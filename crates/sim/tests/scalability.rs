//! Scalability: large circuits run on the same sparse assembly and LU path
//! as small ones, and must match a dense [`LuFactor`] reference.

use gabm_numeric::integrate::Method;
use gabm_numeric::waveform::Waveform;
use gabm_numeric::{DenseMatrix, LuFactor};
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
/// with the source node eliminated and one dense LU solve per step.
fn dense_reference(n: usize, times: &[f64]) -> Vec<f64> {
    let g = 1.0 / R;
    let mut v = vec![0.0; n];
    let mut far_end = vec![0.0];
    for k in 1..times.len() {
        let h = times[k] - times[k - 1];
        let mut a = DenseMatrix::zeros(n, n);
        let mut b = vec![0.0; n];
        for i in 0..n {
            a[(i, i)] = C / h + if i + 1 < n { 2.0 * g } else { g };
            if i > 0 {
                a[(i, i - 1)] = -g;
            }
            if i + 1 < n {
                a[(i, i + 1)] = -g;
            }
            b[i] = C / h * v[i];
        }
        b[0] += g * step().value_at(times[k]);
        v = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        far_end.push(v[n - 1]);
    }
    far_end
}

#[test]
fn sparse_and_dense_paths_agree() {
    let n = 80; // 81 nodes + 1 branch unknown
                // Diffusive settling of an n-stage RC line ~ 0.5 n^2 RC = 3.2 ms.
    let tstop = 20.0e-3;
    let (mut ckt, nodes) = ladder(n);
    let spec = TranSpec::new(tstop).with_method(Method::BackwardEuler);
    let r = ckt.tran(&spec).expect("sparse tran");
    let ws = r.voltage_waveform(nodes[n]).expect("waveform");
    let wd = Waveform::from_samples(r.times().to_vec(), dense_reference(n, r.times()))
        .expect("reference waveform");
    let rms = wd.rms_difference(&ws).expect("comparable");
    assert!(rms < 1e-6, "dense vs sparse RMS difference {rms}");
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
