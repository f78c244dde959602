//! Shape assertions for the paper's evaluation (E8 Fig. 7 and E9 timing):
//! the behavioural comparator must agree with the transistor circuit on
//! every strobed decision, and must cost less to simulate; reusing the LU
//! symbolic analysis must not change the comparator transient.

use gabm::sim::analysis::tran::TranSpec;
use gabm_bench::{behavioural_comparator_circuit, cmos_comparator_circuit, ComparatorStimulus};

#[test]
fn fig7_decisions_agree_and_behavioural_is_cheaper() {
    let stim = ComparatorStimulus::default();
    let tstop = 40.0e-6;

    let (mut beh, bn) = behavioural_comparator_circuit(&stim).unwrap();
    let rb = beh.tran(&TranSpec::new(tstop)).unwrap();
    let w_beh = rb.voltage_waveform(bn[3]).unwrap();

    let (mut cmos, cn) = cmos_comparator_circuit(&stim).unwrap();
    let rc = cmos.tran(&TranSpec::new(tstop)).unwrap();
    let w_cmos = rc.voltage_waveform(cn[3]).unwrap();

    let mut agree = 0;
    let mut total = 0;
    for (lo, hi) in stim.strobe_windows(tstop) {
        let t = 0.5 * (lo + hi);
        let vb = w_beh.value_at(t).unwrap();
        let vc = w_cmos.value_at(t).unwrap();
        if vb.abs() > 0.5 && vc.abs() > 0.5 {
            total += 1;
            if vb.signum() == vc.signum() {
                agree += 1;
            }
        }
    }
    assert!(total >= 3, "too few comparable strobe windows ({total})");
    assert_eq!(agree, total, "only {agree}/{total} decisions agree");

    // E9: the behavioural model needs less Newton work (the paper's 4.9 s
    // vs 15.2 s in machine-independent terms).
    let work_beh = rb.stats.newton_iterations * beh.n_unknowns();
    let work_cmos = rc.stats.newton_iterations * cmos.n_unknowns();
    assert!(
        work_cmos as f64 > 1.5 * work_beh as f64,
        "expected >=1.5x work ratio, got beh={work_beh}, cmos={work_cmos}"
    );
}

/// The §4 note: behavioural models full of `if…then…else` discontinuities
/// must not break the transient engine — the run completes and every
/// accepted point is finite.
#[test]
fn discontinuities_do_not_break_convergence() {
    let stim = ComparatorStimulus {
        input_freq: 100.0e3,
        strobe_period: 5.0e-6,
        strobe_width: 2.0e-6,
        ..ComparatorStimulus::default()
    };
    let (mut beh, bn) = behavioural_comparator_circuit(&stim).unwrap();
    let r = beh.tran(&TranSpec::new(30.0e-6)).unwrap();
    let w = r.voltage_waveform(bn[3]).unwrap();
    assert!(w.values().iter().all(|v| v.is_finite()));
    assert!(r.stats.accepted_steps > 50);
}

/// LU-reuse oracle on the E8/E9 comparator transient: numeric-only
/// refactorization must retrace the full-factorization run exactly — the
/// same Newton iterations, accepted and rejected steps, and a bitwise
/// identical `outp` waveform.
#[test]
fn lu_reuse_retraces_full_factorization() {
    let stim = ComparatorStimulus::default();
    let run = |reuse_lu: bool| {
        let (mut ckt, nodes) = behavioural_comparator_circuit(&stim).unwrap();
        ckt.options.reuse_lu = reuse_lu;
        let r = ckt.tran(&TranSpec::new(60.0e-6)).unwrap();
        (r.stats, r.voltage_waveform(nodes[3]).unwrap())
    };
    let (full, w_full) = run(false);
    let (reuse, w_reuse) = run(true);
    assert_eq!(
        full.refactorizations, 0,
        "reuse off must always refactor fully"
    );
    assert!(
        reuse.refactorizations > reuse.factorizations,
        "reuse on must mostly refactor: {reuse:?}"
    );
    assert_eq!(full.newton_iterations, reuse.newton_iterations);
    assert_eq!(full.accepted_steps, reuse.accepted_steps);
    assert_eq!(full.rejected_steps, reuse.rejected_steps);
    assert_eq!(w_full.rms_difference(&w_reuse).unwrap(), 0.0);
}
