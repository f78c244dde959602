//! AC small-signal analysis against hand calculations: the MOS
//! linearization cached at the operating point must reproduce the classic
//! amplifier formulas.

use gabm_sim::analysis::ac::{AcSpec, AcSweep};
use gabm_sim::circuit::Circuit;
use gabm_sim::devices::vsource::Vsource;
use gabm_sim::devices::{MosType, MosfetParams, SourceWave};

fn nmos_params() -> MosfetParams {
    MosfetParams {
        vto: 0.8,
        kp: 100e-6,
        lambda: 0.02,
        gamma: 0.0,
        phi: 0.65,
        w: 5e-6,
        l: 1e-6,
        cgs: 0.0,
        cgd: 0.0,
        cgb: 0.0,
    }
}

/// Common-source amplifier: |A| = gm·(RD ∥ ro) at low frequency.
#[test]
fn common_source_gain_matches_hand_calc() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let gate = ckt.node("gate");
    let drain = ckt.node("drain");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(5.0));
    // Bias the gate at 1.5 V (vov = 0.7, safely saturated against the
    // 10 k load line) with the AC stimulus on top.
    ckt.add_device(Box::new(
        Vsource::new("VG", gate, Circuit::GROUND, SourceWave::dc(1.5)).with_ac(1.0),
    ))
    .unwrap();
    let rd = 10.0e3;
    ckt.add_resistor("RD", vdd, drain, rd).unwrap();
    ckt.add_mosfet(
        "M1",
        MosType::Nmos,
        drain,
        gate,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos_params(),
    )
    .unwrap();
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    let gain = r.voltage_at(0, drain).abs();

    // Hand calculation at the same bias. The drain settles where
    // id·RD = vdd − vds; solve the square law + load line numerically.
    let beta = 100e-6 * 5.0;
    let vov = 1.5 - 0.8;
    let lambda = 0.02;
    // Iterate the load line: id = beta/2·vov²·(1+λ·vds).
    let mut vds = 2.0;
    for _ in 0..50 {
        let id = 0.5 * beta * vov * vov * (1.0 + lambda * vds);
        vds = 5.0 - id * rd;
    }
    let id = 0.5 * beta * vov * vov * (1.0 + lambda * vds);
    let gm = beta * vov * (1.0 + lambda * vds);
    let gds = 0.5 * beta * vov * vov * lambda;
    let _ = id;
    assert!(vds > vov, "bias not in saturation: vds = {vds}");
    let expect = gm / (1.0 / rd + gds);
    assert!(
        (gain - expect).abs() / expect < 0.02,
        "gain {gain:.2} vs hand calc {expect:.2}"
    );
    // Inverting stage: phase ≈ 180°.
    let phase = r.phase_deg(drain)[0].abs();
    assert!((phase - 180.0).abs() < 1.0, "phase {phase}");
}

/// The gate capacitance makes the common-source stage a one-pole amplifier
/// from a resistive source: the AC magnitude must drop at high frequency.
#[test]
fn gate_capacitance_rolls_off() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let src = ckt.node("src");
    let gate = ckt.node("gate");
    let drain = ckt.node("drain");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(5.0));
    ckt.add_device(Box::new(
        Vsource::new("VG", src, Circuit::GROUND, SourceWave::dc(1.5)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("RS", src, gate, 100.0e3).unwrap();
    ckt.add_resistor("RD", vdd, drain, 10.0e3).unwrap();
    let params = MosfetParams {
        cgs: 10.0e-12,
        ..nmos_params()
    };
    ckt.add_mosfet(
        "M1",
        MosType::Nmos,
        drain,
        gate,
        Circuit::GROUND,
        Circuit::GROUND,
        params,
    )
    .unwrap();
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3, 10.0e6]),
        })
        .unwrap();
    let lf = r.voltage_at(0, drain).abs();
    let hf = r.voltage_at(1, drain).abs();
    // Pole at 1/(2π·100k·10p) ≈ 159 kHz: 10 MHz is ~63x past it.
    assert!(hf < lf / 20.0, "lf {lf}, hf {hf}");
}

/// Diode AC conductance: at forward bias the measured admittance equals
/// the OP-linearized gd = Is·e^{v/vt}/vt.
#[test]
fn diode_small_signal_conductance() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add_device(Box::new(
        Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(5.0)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("R1", a, d, 10.0e3).unwrap();
    ckt.add_diode(
        "D1",
        d,
        Circuit::GROUND,
        gabm_sim::devices::DiodeParams::default(),
    );
    let op = ckt.op().unwrap();
    let vd = op.voltage(d);
    let gd = 1e-14 * (vd / 0.025861).exp() / 0.025861;
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    // Voltage divider: vd_ac = gR/(gR + gd) with gR = 1e-4.
    let expect = 1.0e-4 / (1.0e-4 + gd);
    let measured = r.voltage_at(0, d).abs();
    assert!(
        (measured - expect).abs() / expect < 0.05,
        "measured {measured:.4e}, expected {expect:.4e}"
    );
}

/// AC through a behavioural device: the cached operating-point conductance
/// of a FAS-style model appears as a resistive admittance.
#[test]
fn behavioural_device_ac_conductance() {
    use gabm_sim::devices::{BehavioralModel, EvalCtx};

    /// A nonlinear behavioural load: i = g·v³ (small-signal g_ac = 3·g·v²).
    #[derive(Debug)]
    struct CubicLoad {
        g: f64,
    }
    impl BehavioralModel for CubicLoad {
        fn pin_count(&self) -> usize {
            1
        }
        fn eval(&mut self, _ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
            i[0] = self.g * v[0] * v[0] * v[0];
        }
        fn accept(&mut self, _ctx: &EvalCtx, _v: &[f64]) {}
    }

    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add_device(Box::new(
        Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(2.0)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("R1", a, d, 1.0e3).unwrap();
    ckt.add_behavioral("XL", &[d], Box::new(CubicLoad { g: 1.0e-4 }))
        .unwrap();
    let op = ckt.op().unwrap();
    let vd = op.voltage(d);
    // Small-signal conductance of the cubic at the OP.
    let g_ac = 3.0 * 1.0e-4 * vd * vd;
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    let measured = r.voltage_at(0, d).abs();
    let expect = 1.0e-3 / (1.0e-3 + g_ac);
    assert!(
        (measured - expect).abs() / expect < 0.02,
        "measured {measured:.4}, expected {expect:.4} (vd = {vd:.3}, g_ac = {g_ac:.3e})"
    );
}

/// AC oracle on the one sparse path: RC ladders of up to 512 stages, swept
/// over nine decades, against the exact ladder recursion. The pattern is
/// factored once at the first frequency and refactored at every other.
#[test]
fn rc_ladder_ac_matches_exact_recursion() {
    use gabm_numeric::Complex64;
    const R: f64 = 1.0e3;
    const C: f64 = 1.0e-9;
    let ladder = |n: usize| {
        let mut ckt = Circuit::new();
        let mut nodes = vec![ckt.node("in")];
        ckt.add_device(Box::new(
            Vsource::new("V1", nodes[0], Circuit::GROUND, SourceWave::dc(0.0)).with_ac(1.0),
        ))
        .unwrap();
        for k in 0..n {
            let next = ckt.node(&format!("n{k}"));
            ckt.add_resistor(&format!("R{k}"), nodes[k], next, R)
                .unwrap();
            ckt.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, C);
            nodes.push(next);
        }
        (ckt, nodes)
    };
    for n in [16usize, 64, 256, 512] {
        let (mut ckt, nodes) = ladder(n);
        let r = ckt.ac(&AcSpec::decade(10, 1.0, 1.0e9)).unwrap();
        assert_eq!(r.len(), 91);
        let mut worst = 0.0f64;
        for (idx, &f) in r.frequencies().iter().enumerate() {
            // Back to front: Z_k = 1/(jωC + 1/(R + Z_{k+1})), Z_n = 1/(jωC).
            let ycap = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f * C);
            let rr = Complex64::from_real(R);
            let mut z = vec![Complex64::ZERO; n + 1];
            z[n] = ycap.recip();
            for k in (1..n).rev() {
                z[k] = (ycap + (rr + z[k + 1]).recip()).recip();
            }
            // Front to back: V_k = V_{k−1}·Z_k/(R + Z_k), V_0 = 1.
            let mut exact = vec![Complex64::ONE; n + 1];
            for k in 1..=n {
                exact[k] = exact[k - 1] * z[k] / (rr + z[k]);
            }
            let (mut err, mut norm) = (0.0f64, 0.0f64);
            for (node, v) in nodes.iter().zip(&exact) {
                err = err.max((r.voltage_at(idx, *node) - *v).abs());
                norm = norm.max(v.abs());
            }
            worst = worst.max(err / norm);
        }
        assert!(worst <= 1e-11, "n={n}: max-norm relative error {worst:e}");
        let op = ladder(n).0.op().unwrap().stats;
        assert_eq!(r.stats.factorizations, op.factorizations + 1, "n={n}");
        assert_eq!(
            r.stats.refactorizations,
            op.refactorizations + r.len() - 1,
            "n={n}"
        );
    }
}
