//! The behavioural bridge: couples an arbitrary pin-current model (e.g. a
//! compiled FAS program) into the Newton iteration.
//!
//! This is the crate's analogue of ELDO's FAS runtime. A
//! [`BehavioralModel`] reads its pin voltages and returns the currents it
//! imposes on each pin — exactly the probe/generator interface-element
//! semantics of the paper's §3.1a. The wrapping [`BehavioralDevice`]
//! linearizes the model numerically (finite-difference Jacobian) and stamps
//! Norton companions so the coupled behavioural/electrical system converges
//! like any other nonlinear circuit.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Mode, Stamper, StateView, Unknown};
use crate::SimError;
use gabm_numeric::Complex64;
use std::fmt;

/// Evaluation context handed to behavioural models.
///
/// Mirrors the simulator variables a FAS model may access: the analysis
/// `mode`, the current `time` and the current time step `dt` (the paper's
/// slew-rate construct divides by "the current time step of the simulation
/// engine").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalCtx {
    /// `true` during DC solves — time derivatives must evaluate to zero,
    /// matching the generated `if (mode = dc)` branches.
    pub mode_dc: bool,
    /// Simulated time (0 in DC).
    pub time: f64,
    /// Current step size (0 in DC).
    pub dt: f64,
    /// Analysis temperature in kelvin.
    pub temperature: f64,
}

/// A behavioural model: computes the current *into each pin* from the pin
/// voltages.
///
/// Implementations must be **pure with respect to committed state** during
/// [`BehavioralModel::eval`]: the engine calls `eval` many times per Newton
/// iteration (for the finite-difference Jacobian) and across rejected steps.
/// State (delays, previous values) is only committed in
/// [`BehavioralModel::accept`].
pub trait BehavioralModel: fmt::Debug {
    /// Number of electrical pins.
    fn pin_count(&self) -> usize;

    /// Computes `currents[k]` = current flowing *into* the model through pin
    /// `k`, given `pin_voltages[k]`.
    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]);

    /// Computes currents **and** the exact pin Jacobian
    /// `jacobian[k·n + j] = ∂i_k/∂v_j` in one pass (e.g. by forward-mode
    /// automatic differentiation). Returns `false` when unsupported, in
    /// which case the device falls back to `pins + 1` finite-difference
    /// evaluations per Newton iteration — the dominant cost of behavioural
    /// simulation, so implementing this is how a model earns the paper's
    /// §5 speedup.
    fn eval_with_jacobian(
        &mut self,
        _ctx: &EvalCtx,
        _pin_voltages: &[f64],
        _currents: &mut [f64],
        _jacobian: &mut [f64],
    ) -> bool {
        false
    }

    /// Commits internal state after an accepted time point.
    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]);

    /// Called before every Newton solve (optional hook).
    fn begin_solve(&mut self) {}
}

/// MNA device wrapping a [`BehavioralModel`].
#[derive(Debug)]
pub struct BehavioralDevice {
    name: String,
    pins: Vec<NodeId>,
    model: Box<dyn BehavioralModel>,
    // Scratch buffers reused across iterations.
    v: Vec<f64>,
    i0: Vec<f64>,
    i_pert: Vec<f64>,
    gv0: Vec<f64>,
    jac: Vec<f64>,
    // Last conductances, (row pin, col pin, g) — the resistive small-signal
    // linearization replayed by stamp_ac.
    g_last: Vec<(usize, usize, f64)>,
}

/// Relative perturbation used for the finite-difference Jacobian.
const FD_REL: f64 = 1e-6;
/// Absolute perturbation floor (volts).
const FD_ABS: f64 = 1e-6;

impl BehavioralDevice {
    /// Wraps `model`, connecting its pins to `pins` in order.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] if the pin counts disagree.
    pub fn new(
        name: &str,
        pins: &[NodeId],
        model: Box<dyn BehavioralModel>,
    ) -> Result<Self, SimError> {
        if pins.len() != model.pin_count() {
            return Err(SimError::BadParameter {
                device: name.to_string(),
                message: format!(
                    "model has {} pins, {} nodes supplied",
                    model.pin_count(),
                    pins.len()
                ),
            });
        }
        let n = pins.len();
        Ok(BehavioralDevice {
            name: name.to_string(),
            pins: pins.to_vec(),
            model,
            v: vec![0.0; n],
            i0: vec![0.0; n],
            i_pert: vec![0.0; n],
            gv0: vec![0.0; n],
            jac: vec![0.0; n * n],
            g_last: Vec::new(),
        })
    }

    fn ctx_of(s_mode: Mode, temperature: f64) -> EvalCtx {
        match s_mode {
            Mode::Dc => EvalCtx {
                mode_dc: true,
                time: 0.0,
                dt: 0.0,
                temperature,
            },
            Mode::Tran { time, coeffs } => EvalCtx {
                mode_dc: false,
                time,
                dt: coeffs.dt(),
                temperature,
            },
        }
    }
}

impl Device for BehavioralDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn begin_solve(&mut self) {
        self.model.begin_solve();
    }

    fn stamp(&mut self, s: &mut Stamper) {
        let n = self.pins.len();
        let ctx = Self::ctx_of(s.mode, 300.15);
        for (k, pin) in self.pins.iter().enumerate() {
            self.v[k] = s.v(*pin);
        }
        // Jacobian G[k][j] = ∂i_k/∂v_j: analytic (one AD evaluation) when
        // the model supports it, finite differences (pins + 1 evaluations)
        // otherwise; stamp i(v) ≈ i0 + G·(v_new − v0).
        //
        // KCL: the current into the model leaves node k, so the matrix gets
        // +G and the right-hand side −(i0 − G·v0).
        for g in &mut self.gv0 {
            *g = 0.0;
        }
        let mut gv0 = std::mem::take(&mut self.gv0);
        self.g_last.clear();
        self.jac.resize(n * n, 0.0);
        let mut jac = std::mem::take(&mut self.jac);
        let mut analytic = self
            .model
            .eval_with_jacobian(&ctx, &self.v, &mut self.i0, &mut jac);
        // At pathological iterates (e.g. a 1/T model evaluated at T = 0)
        // exact derivative propagation can produce non-finite tangents where
        // the value itself is still benign; fall back to finite differences
        // for that iteration, which inherit the value's saturation.
        if analytic
            && (jac[..n * n].iter().any(|g| !g.is_finite())
                || self.i0.iter().any(|i| !i.is_finite()))
        {
            analytic = false;
        }
        if analytic {
            for k in 0..n {
                for j in 0..n {
                    let g = jac[k * n + j];
                    if g != 0.0 {
                        s.add(Unknown::Node(self.pins[k]), Unknown::Node(self.pins[j]), g);
                        gv0[k] += g * self.v[j];
                        self.g_last.push((k, j, g));
                    }
                }
            }
        } else {
            self.model.eval(&ctx, &self.v, &mut self.i0);
            for j in 0..n {
                let vj = self.v[j];
                let dv = FD_ABS.max(vj.abs() * FD_REL);
                self.v[j] = vj + dv;
                self.model.eval(&ctx, &self.v, &mut self.i_pert);
                self.v[j] = vj;
                let col = Unknown::Node(self.pins[j]);
                #[allow(clippy::needless_range_loop)]
                for k in 0..n {
                    let g = (self.i_pert[k] - self.i0[k]) / dv;
                    if g != 0.0 {
                        s.add(Unknown::Node(self.pins[k]), col, g);
                        gv0[k] += g * vj;
                        self.g_last.push((k, j, g));
                    }
                }
            }
        }
        self.jac = jac;
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            let offset = self.i0[k] - gv0[k];
            s.add_rhs(Unknown::Node(self.pins[k]), -offset);
        }
        self.gv0 = gv0;
        // gmin floor: in saturated model regions (current limiters, clipped
        // rails) the finite-difference Jacobian is exactly zero and the pin
        // would float; the junction-conductance floor keeps the MNA matrix
        // non-singular, exactly as ELDO's GMIN does for devices.
        let gmin = s.gmin;
        for pin in self.pins.clone() {
            s.stamp_conductance(pin, crate::circuit::Circuit::GROUND, gmin);
        }
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        // Resistive small-signal model from the last (operating-point)
        // finite-difference linearization. Reactive behaviour inside the
        // model (its `state.dt` terms) vanishes at the DC point, so AC
        // through behavioural devices sees conductances only — documented
        // limitation; use the transient frequency-response rig for full
        // dynamics.
        for &(k, j, g) in &self.g_last {
            s.add(
                Unknown::Node(self.pins[k]),
                Unknown::Node(self.pins[j]),
                Complex64::from_real(g),
            );
        }
        let gmin = Complex64::from_real(1e-12);
        for pin in &self.pins {
            s.add(Unknown::Node(*pin), Unknown::Node(*pin), gmin);
        }
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        let ctx = Self::ctx_of(state.mode, 300.15);
        for (k, pin) in self.pins.iter().enumerate() {
            self.v[k] = state.v(*pin);
        }
        self.model.accept(&ctx, &self.v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A behavioural resistor-to-ground on each pin plus a cross
    /// transconductance: i0 = g·v0 + gm·v1, i1 = g·v1.
    #[derive(Debug)]
    struct TestModel {
        g: f64,
        gm: f64,
        accepted: usize,
    }

    impl BehavioralModel for TestModel {
        fn pin_count(&self) -> usize {
            2
        }
        fn eval(&mut self, _ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
            i[0] = self.g * v[0] + self.gm * v[1];
            i[1] = self.g * v[1];
        }
        fn accept(&mut self, _ctx: &EvalCtx, _v: &[f64]) {
            self.accepted += 1;
        }
    }

    #[test]
    fn pin_count_checked() {
        let m = Box::new(TestModel {
            g: 1.0,
            gm: 0.0,
            accepted: 0,
        });
        let err = BehavioralDevice::new("X1", &[NodeId::from_index(1)], m).unwrap_err();
        assert!(matches!(err, SimError::BadParameter { .. }));
    }

    #[test]
    fn jacobian_matches_model() {
        let m = Box::new(TestModel {
            g: 1e-3,
            gm: 2e-3,
            accepted: 0,
        });
        let pins = [NodeId::from_index(1), NodeId::from_index(2)];
        let mut dev = BehavioralDevice::new("X1", &pins, m).unwrap();
        let mut s = Stamper::new(2, 0, Mode::Dc);
        s.reset(&[1.0, 2.0], Mode::Dc);
        dev.stamp(&mut s);
        let (mat, rhs) = s.finish();
        // The current into the model leaves the node, so the conductances
        // appear with positive sign on the left-hand side.
        assert!((mat[(0, 0)] - 1e-3).abs() < 1e-9, "got {}", mat[(0, 0)]);
        assert!((mat[(0, 1)] - 2e-3).abs() < 1e-9);
        assert!((mat[(1, 1)] - 1e-3).abs() < 1e-9);
        // The model is linear ⇒ the affine offset must vanish.
        assert!(rhs[0].abs() < 1e-9);
        assert!(rhs[1].abs() < 1e-9);
    }

    #[test]
    fn accept_commits() {
        let m = Box::new(TestModel {
            g: 1.0,
            gm: 0.0,
            accepted: 0,
        });
        let pins = [NodeId::from_index(1), NodeId::from_index(2)];
        let mut dev = BehavioralDevice::new("X1", &pins, m).unwrap();
        let x = [0.5, 0.25];
        let sv = StateView {
            x: &x,
            n_nodes: 2,
            time: 0.0,
            mode: Mode::Dc,
        };
        dev.accept_step(&sv);
        // Downcast not available; observe via Debug formatting.
        let dbg = format!("{dev:?}");
        assert!(dbg.contains("accepted: 1"), "{dbg}");
    }

    /// i0 = g·v0 + gm·max(v1, 0), i1 = g·v1: a clipped transconductance
    /// whose ∂i0/∂v1 is exactly zero below the corner.
    #[derive(Debug)]
    struct Clipped;

    impl BehavioralModel for Clipped {
        fn pin_count(&self) -> usize {
            2
        }
        fn eval(&mut self, _ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
            i[0] = 1e-3 * v[0] + 2e-3 * v[1].max(0.0);
            i[1] = 1e-3 * v[1];
        }
        fn accept(&mut self, _ctx: &EvalCtx, _v: &[f64]) {}
    }

    #[test]
    fn skipped_zero_jacobian_entry_keeps_its_slot() {
        let pins = [NodeId::from_index(1), NodeId::from_index(2)];
        let mut dev = BehavioralDevice::new("X1", &pins, Box::new(Clipped)).unwrap();
        let mut s = Stamper::new(2, 0, Mode::Dc);
        // Linear region: ∂i0/∂v1 is stamped and enters the pattern.
        s.reset(&[0.0, 1.0], Mode::Dc);
        dev.stamp(&mut s);
        assert!(s.grows_pattern());
        let nnz = s.finish().0.nnz();
        // Clipped region: the entry is zero and skipped, but its slot
        // stays, so the factorization can be reused.
        s.reset(&[0.0, -1.0], Mode::Dc);
        dev.stamp(&mut s);
        assert!(!s.grows_pattern());
        let (mat, _) = s.finish();
        assert_eq!(mat.nnz(), nnz);
        assert_eq!(mat[(0, 1)], 0.0);
    }
}
