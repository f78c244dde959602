//! Input generation and tiny runs of every workload.

use gabm_par::ThreadPool;
use gabm_perfbench::{input_list, Bench, Workload, LIST_LEN};

#[test]
fn input_lists_repeat_for_a_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        let len = 8;
        let a = input_list(w, 1994, len);
        assert_eq!(a.len(), len);
        assert_eq!(a, input_list(w, 1994, len), "{}: same seed", w.name());
        assert_ne!(a, input_list(w, 7, len), "{}: different seeds", w.name());
    }
}

#[test]
fn comparator_workloads_share_their_stimuli() {
    assert_eq!(
        input_list(Workload::TranBehavioural, 3, LIST_LEN),
        input_list(Workload::TranCmos, 3, LIST_LEN)
    );
}

#[test]
fn every_workload_passes_its_checks_on_a_tiny_run() {
    for w in Workload::ALL {
        let bench = Bench::setup(w, 1994, 2, 2).expect("set-up");
        for k in 0..bench.inputs.len() {
            let first = bench.run_op(k).expect("operation runs");
            assert_eq!(first.check, Ok(()), "{} op {k}", w.name());
            assert!(first.op_s > 0.0);
            let again = bench.run_op(k).expect("operation runs");
            assert_eq!(first.counts, again.counts, "{} op {k} counts", w.name());
            assert_eq!(first.signature, again.signature, "{} op {k}", w.name());
            match w {
                Workload::TranBehavioural => {
                    assert!(first.counts.fas_jac_calls + first.counts.fas_eval_calls > 0);
                    assert!(first.counts.newton_iters > 0);
                }
                Workload::TranCmos | Workload::TranLadder512 => {
                    assert_eq!(first.counts.fas_jac_calls + first.counts.fas_eval_calls, 0);
                    assert!(first.counts.newton_iters > 0);
                }
                Workload::Charac => {
                    let serial = bench
                        .run_charac_on(k, &ThreadPool::new(1))
                        .expect("job runs on one worker");
                    assert_eq!(first.signature, serial.signature, "1 vs 2 workers");
                    assert!(first.counts.charac_evals > 0);
                }
            }
        }
    }
}

#[test]
fn the_ladder_takes_the_sparse_path() {
    let bench = Bench::setup(Workload::TranLadder512, 1994, 1, 1).expect("set-up");
    let o = bench.run_op(0).expect("operation runs");
    assert!(o.counts.lu_refactor > o.counts.lu_full, "{:?}", o.counts);
}
