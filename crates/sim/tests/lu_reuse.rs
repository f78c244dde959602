//! Transient-level checks of the sparse-LU refactorization cache: the
//! reuse path must not change results (bitwise), must survive across time
//! steps, and must be switchable off via [`gabm_sim::Options::reuse_lu`].

use gabm_sim::analysis::tran::TranSpec;
use gabm_sim::devices::{DiodeParams, SourceWave};
use gabm_sim::Circuit;

/// A diode-clamped RC ladder driven by a sine — nonlinear and reactive,
/// so the transient engine runs many Newton iterations per step.
fn ladder(reuse_lu: bool) -> (Circuit, gabm_sim::NodeId) {
    let mut c = Circuit::new();
    c.options.reuse_lu = reuse_lu;
    let input = c.node("in");
    c.add_vsource(
        "VIN",
        input,
        Circuit::GROUND,
        SourceWave::sine(0.0, 3.0, 50.0e3),
    );
    let mut prev = input;
    let mut last = input;
    for k in 0..5 {
        let n = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, n, 1.0e3).unwrap();
        c.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, 1.0e-9);
        if k % 2 == 0 {
            c.add_diode(&format!("D{k}"), n, Circuit::GROUND, DiodeParams::default());
        }
        prev = n;
        last = n;
    }
    (c, last)
}

#[test]
fn transient_reuse_matches_full_factorization_bitwise() {
    let tstop = 60.0e-6;
    let run = |reuse: bool| {
        let (mut ckt, out) = ladder(reuse);
        let r = ckt.tran(&TranSpec::new(tstop)).expect("transient runs");
        let w = r.voltage_waveform(out).expect("waveform");
        (r.stats, w)
    };
    let (stats_full, w_full) = run(false);
    let (stats_reuse, w_reuse) = run(true);

    // Identical trajectory — not merely close: the refactorization replays
    // the same floating-point operations as the full factorization.
    assert_eq!(stats_full.accepted_steps, stats_reuse.accepted_steps);
    assert_eq!(stats_full.newton_iterations, stats_reuse.newton_iterations);
    let rms = w_full.rms_difference(&w_reuse).expect("comparable grids");
    assert_eq!(rms, 0.0, "reuse changed the waveform (rms {rms:e})");

    // The reuse run replaces nearly every factorization with a numeric
    // refactorization; the solve count stays the same.
    assert_eq!(stats_full.refactorizations, 0);
    assert!(
        stats_reuse.refactorizations > stats_reuse.factorizations * 10,
        "expected refactorizations to dominate: {} refactors vs {} full",
        stats_reuse.refactorizations,
        stats_reuse.factorizations
    );
    assert_eq!(
        stats_full.factorizations,
        stats_reuse.factorizations + stats_reuse.refactorizations
    );
}
