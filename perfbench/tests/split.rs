//! The traced split of a behavioural transient accounts for its time.
//!
//! Tracing and the FAS timing switch are process-wide, so this file holds
//! the only test that turns them on.

use gabm_perfbench::probe::{set_fas_timing, Probes};
use gabm_perfbench::split::split;
use gabm_perfbench::{Bench, Workload};

#[test]
fn behavioural_split_adds_up_to_the_traced_tran_time() {
    let bench = Bench::setup(Workload::TranBehavioural, 1994, 4, 1).expect("set-up");
    set_fas_timing(true);
    for k in 0..bench.inputs.len() {
        let before = Probes::now();
        gabm_trace::enable();
        let outcome = bench.run_op(k).expect("operation runs");
        let trace = gabm_trace::finish();
        let fas_ns = Probes::now().since(before).fas_eval_ns;
        assert_eq!(outcome.check, Ok(()));

        let s = split(&trace);
        assert!(s.bench_tran_ns > 0 && s.tran_ns > 0 && s.step_ns > 0);
        assert!(fas_ns > 0, "FAS evaluations are timed");
        // Each part is a real sub-interval: FAS runs inside Newton, and
        // Newton inside steps or the operating point.
        assert!(fas_ns <= s.newton_in_tran_ns);
        assert!(s.newton_in_step_ns <= s.step_ns);
        assert!(s.step_ns + s.newton_in_tran_ns - s.newton_in_step_ns <= s.tran_ns);
        let parts = fas_ns + s.tran_self_ns() + s.step_self_ns() + s.newton_self_ns(fas_ns);
        let whole = s.bench_tran_ns as f64;
        let err = (parts as f64 - whole).abs() / whole;
        assert!(
            err < 0.05,
            "op {k}: parts {parts} ns vs traced tran {whole} ns ({:.2} %)",
            err * 100.0
        );
    }
    set_fas_timing(false);
}
