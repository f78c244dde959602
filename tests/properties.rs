//! Randomized property tests on the workspace's core invariants.
//!
//! These were property-based (proptest) in spirit and remain so, but use
//! the workspace's own seeded PRNG so the suite is deterministic and has
//! no external dependencies (the repository must build fully offline).

use gabm::codegen::{generate, Backend};
use gabm::core::check_diagram;
use gabm::core::constructs::{InputStageSpec, OutputStageSpec, SlewRateSpec};
use gabm::core::quantity::Dimension;
use gabm::fas::compile;
use gabm::numeric::rng::Rng;
use gabm::sim::analysis::tran::TranSpec;
use gabm::sim::circuit::Circuit;
use gabm::sim::devices::SourceWave;

/// Dimension algebra is a commutative group under multiplication.
#[test]
fn dimension_group_laws() {
    let mut rng = Rng::new(0x22);
    let exp = |rng: &mut Rng| (rng.below(6) as i8) - 3;
    for _ in 0..64 {
        let da = Dimension::new(
            exp(&mut rng),
            exp(&mut rng),
            exp(&mut rng),
            exp(&mut rng),
            exp(&mut rng),
        );
        let db = Dimension::new(
            exp(&mut rng),
            exp(&mut rng),
            exp(&mut rng),
            exp(&mut rng),
            exp(&mut rng),
        );
        assert_eq!(da * db, db * da);
        assert_eq!(da * db / db, da);
        assert_eq!(da / da, Dimension::NONE);
        assert_eq!(da.per_time().times_time(), da);
    }
}

/// Pulse waveforms never leave the [v1, v2] envelope.
#[test]
fn pulse_stays_in_envelope() {
    let mut rng = Rng::new(0x33);
    for _ in 0..64 {
        let v1 = rng.range(-10.0, 10.0);
        let v2 = rng.range(-10.0, 10.0);
        let t = rng.range(0.0, 10.0);
        let delay = rng.range(0.0, 1.0);
        let width = rng.range(1e-3, 1.0);
        let period = rng.range(0.0, 2.0);
        let w = SourceWave::pulse(v1, v2, delay, 0.01, 0.02, width, period);
        let v = w.value_at(t);
        let (lo, hi) = (v1.min(v2), v1.max(v2));
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "v = {v}");
    }
}

/// Every input stage over a broad parameter range survives the full
/// pipeline: consistent diagram, generated FAS compiles, and the model
/// draws the right DC current.
#[test]
fn input_stage_pipeline_total() {
    let mut rng = Rng::new(0x44);
    for _ in 0..64 {
        let rin = 10f64.powf(rng.range(3.0, 8.0));
        let cin = 10f64.powf(rng.range(-14.0, -9.0));
        let diagram = InputStageSpec::new("in", 1.0 / rin, cin).diagram().unwrap();
        assert!(check_diagram(&diagram).is_consistent());
        let code = generate(&diagram, Backend::Fas).unwrap();
        let model = compile(&code.text).unwrap();
        let machine = model.instantiate(&Default::default()).unwrap();
        let mut ckt = Circuit::new();
        let n = ckt.node("in");
        ckt.add_behavioral("X", &[n], Box::new(machine)).unwrap();
        ckt.add_vsource("V1", n, Circuit::GROUND, SourceWave::dc(1.0));
        let op = ckt.op().unwrap();
        let i = op.current_through(&ckt, "V1").unwrap();
        // Source sees the model's gin as load: i = -1/rin.
        assert!((i + 1.0 / rin).abs() < 1e-3 / rin + 1e-12, "i = {i}");
    }
}

/// All three backends generate non-empty code for all three constructs.
#[test]
fn all_backends_total_on_constructs() {
    for which in 0..3 {
        let diagram = match which {
            0 => InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap(),
            1 => OutputStageSpec::new("out", 1e-3)
                .with_current_limit(1e-2)
                .diagram()
                .unwrap(),
            _ => SlewRateSpec::new(1e6, 1e6).diagram().unwrap(),
        };
        for backend in [Backend::Fas, Backend::VhdlAms, Backend::Mast] {
            let code = generate(&diagram, backend).unwrap();
            assert!(!code.text.is_empty());
            // FAS output must always compile — for diagrams with pins; an
            // open fragment like the bare slew-rate block is not a device
            // model.
            if backend == Backend::Fas && !diagram.pins().is_empty() {
                assert!(compile(&code.text).is_ok(), "{}", code.text);
            }
        }
    }
}

/// RC step response converges to the divider value for random R/C —
/// energy cannot appear from nowhere (no overshoot beyond the source).
#[test]
fn rc_transient_bounded_and_settles() {
    let mut rng = Rng::new(0x55);
    for _ in 0..12 {
        let r = 10f64.powf(rng.range(2.0, 6.0));
        let c = 10f64.powf(rng.range(-9.0, -6.0));
        let tau = r * c;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            SourceWave::pulse(
                0.0,
                1.0,
                tau * 0.01,
                tau * 1e-3,
                tau * 1e-3,
                tau * 100.0,
                0.0,
            ),
        );
        ckt.add_resistor("R1", a, b, r).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, c);
        let result = ckt.tran(&TranSpec::new(8.0 * tau)).unwrap();
        let w = result.voltage_waveform(b).unwrap();
        assert!(w.max() <= 1.0 + 1e-6, "overshoot: {}", w.max());
        assert!(w.min() >= -1e-6, "undershoot: {}", w.min());
        let v_end = *w.values().last().unwrap();
        assert!((v_end - 1.0).abs() < 2e-3, "v_end = {v_end}");
    }
}

/// The behavioural slew block: the output slope never exceeds the
/// configured rates, whatever the drive.
#[test]
fn slew_limit_is_never_violated() {
    let mut rng = Rng::new(0x66);
    for _ in 0..12 {
        let rate = 10f64.powf(rng.range(4.0, 7.0));
        let freq = 10f64.powf(rng.range(3.0, 5.5));
        let spec = gabm_bench::SlewBufferSpec {
            slew_rise: rate,
            slew_fall: rate,
            ..gabm_bench::SlewBufferSpec::default()
        };
        let diagram = spec.diagram().unwrap();
        let code = generate(&diagram, Backend::Fas).unwrap();
        let model = compile(&code.text).unwrap();
        let machine = model.instantiate(&Default::default()).unwrap();
        let mut ckt = Circuit::new();
        let inn = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_behavioral("X", &[inn, out], Box::new(machine))
            .unwrap();
        ckt.add_vsource("V1", inn, Circuit::GROUND, SourceWave::sine(0.0, 1.0, freq));
        ckt.add_resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
        let result = ckt.tran(&TranSpec::new(2.0 / freq)).unwrap();
        let w = result.voltage_waveform(out).unwrap();
        let slope = gabm::numeric::measure::max_slew_rate(&w).unwrap();
        assert!(
            slope <= rate * 1.25,
            "slope {slope:.3e} exceeds limit {rate:.3e}"
        );
    }
}
