//! Scalability: large circuits run on the same sparse assembly and LU path
//! as small ones, and must match a direct tridiagonal reference solve.

use gabm_numeric::integrate::Method;
use gabm_numeric::waveform::Waveform;
use gabm_sim::analysis::tran::TranSpec;
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::devices::SourceWave;

const R: f64 = 1.0e3;
const C: f64 = 1.0e-9;

fn step() -> SourceWave {
    SourceWave::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0)
}

/// Builds an n-stage RC ladder driven by a step.
fn ladder(n: usize) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let mut nodes = Vec::with_capacity(n + 1);
    let input = ckt.node("in");
    nodes.push(input);
    ckt.add_vsource("V1", input, Circuit::GROUND, step());
    for k in 0..n {
        let next = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("R{k}"), nodes[k], next, R)
            .expect("valid resistor");
        ckt.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, C);
        nodes.push(next);
    }
    (ckt, nodes)
}

/// Backward-Euler integration of the same ladder on the given time grid,
/// with the source node eliminated and each step's tridiagonal system
/// solved directly by the Thomas algorithm.
fn tridiagonal_reference(n: usize, times: &[f64]) -> Vec<f64> {
    let g = 1.0 / R;
    let mut v = vec![0.0; n];
    let mut far_end = vec![0.0];
    // Forward-sweep coefficients: super-diagonal and right-hand side.
    let (mut c, mut d) = (vec![0.0; n], vec![0.0; n]);
    for k in 1..times.len() {
        let h = times[k] - times[k - 1];
        // Row i: −g·v[i−1] + (C/h + 2g, or C/h + g at the far end)·v[i]
        // − g·v[i+1] = C/h·v_old[i] (+ g·vin on row 0).
        for i in 0..n {
            let diag = C / h + if i + 1 < n { 2.0 * g } else { g };
            let mut rhs = C / h * v[i];
            if i == 0 {
                rhs += g * step().value_at(times[k]);
            }
            let (pivot, rhs) = if i == 0 {
                (diag, rhs)
            } else {
                (diag + g * c[i - 1], rhs + g * d[i - 1])
            };
            c[i] = -g / pivot;
            d[i] = rhs / pivot;
        }
        v[n - 1] = d[n - 1];
        for i in (0..n - 1).rev() {
            v[i] = d[i] - c[i] * v[i + 1];
        }
        far_end.push(v[n - 1]);
    }
    far_end
}

#[test]
fn sparse_path_matches_tridiagonal_reference() {
    let n = 80; // 81 nodes + 1 branch unknown
                // Diffusive settling of an n-stage RC line ~ 0.5 n^2 RC = 3.2 ms.
    let tstop = 20.0e-3;
    let (mut ckt, nodes) = ladder(n);
    let spec = TranSpec::new(tstop).with_method(Method::BackwardEuler);
    let r = ckt.tran(&spec).expect("sparse tran");
    let ws = r.voltage_waveform(nodes[n]).expect("waveform");
    let wd = Waveform::from_samples(r.times().to_vec(), tridiagonal_reference(n, r.times()))
        .expect("reference waveform");
    let rms = wd.rms_difference(&ws).expect("comparable");
    assert!(rms < 1e-6, "reference vs sparse RMS difference {rms}");
    // Both see the diffusion delay: the far end lags the input
    // substantially but eventually rises.
    assert!(ws.value_at(100.0e-6).unwrap() < 0.3);
    assert!(*ws.values().last().unwrap() > 0.8);
}

#[test]
fn large_ladder_op_solves_on_sparse_path() {
    let (mut ckt, nodes) = ladder(300);
    let op = ckt.op().expect("sparse OP converges");
    // DC: no current flows, the whole ladder sits at the source value.
    assert!((op.voltage(nodes[300]) - 0.0).abs() < 1e-9);
}
