//! DC operating-point analysis with gmin and source stepping.

use crate::analysis::engine::{newton_solve, SolveSetup};
use crate::circuit::{Circuit, NodeId};
use crate::device::{Mode, StateView};
use crate::options::SimStats;
use crate::SimError;

/// Result of an operating-point solve.
#[derive(Debug, Clone)]
pub struct OpResult {
    x: Vec<f64>,
    n_nodes: usize,
    /// Work counters accumulated during the solve.
    pub stats: SimStats,
}

impl OpResult {
    pub(crate) fn new(x: Vec<f64>, n_nodes: usize, stats: SimStats) -> Self {
        OpResult { x, n_nodes, stats }
    }

    /// Node voltage at the operating point.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current by global branch index.
    pub fn branch_current(&self, idx: usize) -> f64 {
        self.x[self.n_nodes + idx]
    }

    /// Current through a named branch device (voltage source or inductor),
    /// positive from its `plus`/`a` terminal through the device.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDevice`] if the device is absent or has no branch.
    pub fn current_through(&self, circuit: &Circuit, device: &str) -> Result<f64, SimError> {
        let idx = circuit
            .device_index(device)
            .ok_or_else(|| SimError::UnknownDevice(device.to_string()))?;
        let branch = circuit.devices()[idx]
            .branch_index()
            .ok_or_else(|| SimError::UnknownDevice(format!("{device} has no branch current")))?;
        Ok(self.branch_current(branch))
    }

    /// Full solution vector (node voltages, then branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

/// Solves the operating point: plain Newton first, then gmin stepping, then
/// source stepping — the same escalation ladder SPICE/ELDO use.
pub(crate) fn solve_op(circuit: &mut Circuit) -> Result<OpResult, SimError> {
    let (x, stats) = solve_op_internal(circuit, None)?;
    commit(circuit, &x);
    Ok(OpResult::new(x, circuit.n_nodes(), stats))
}

/// Operating point with an initial guess (used by DC sweeps to track the
/// previous point's solution) — does *not* commit device state.
pub(crate) fn solve_op_guess(
    circuit: &mut Circuit,
    guess: &[f64],
) -> Result<(Vec<f64>, SimStats), SimError> {
    solve_op_internal(circuit, Some(guess))
}

fn solve_op_internal(
    circuit: &mut Circuit,
    guess: Option<&[f64]>,
) -> Result<(Vec<f64>, SimStats), SimError> {
    let _span = gabm_trace::span("sim.op");
    let wall_start = std::time::Instant::now();
    let n = circuit.n_unknowns();
    if n == 0 {
        return Ok((Vec::new(), SimStats::default()));
    }
    let zero = vec![0.0; n];
    let x0: Vec<f64> = guess.map(|g| g.to_vec()).unwrap_or(zero);
    let mut stats = SimStats::default();

    // 1. Plain Newton.
    match newton_solve(circuit, Mode::Dc, &x0, SolveSetup::default(), &mut stats) {
        Ok(out) => {
            stats.wall_s = wall_start.elapsed().as_secs_f64();
            return Ok((out.x, stats));
        }
        Err(SimError::SingularMatrix { detail }) => {
            return Err(SimError::SingularMatrix { detail })
        }
        Err(_) => {}
    }

    // 2. gmin stepping: solve with a strong shunt everywhere, then relax it
    //    decade by decade, carrying the solution.
    let opts = circuit.options.clone();
    if opts.gmin_steps > 0 {
        let mut x = x0.clone();
        let mut ok = true;
        let mut gshunt = 1e-2;
        for _ in 0..opts.gmin_steps {
            match newton_solve(
                circuit,
                Mode::Dc,
                &x,
                SolveSetup {
                    gshunt,
                    source_scale: 1.0,
                },
                &mut stats,
            ) {
                Ok(out) => x = out.x,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            gshunt /= 10.0;
        }
        if ok {
            // Final solve with the shunt removed entirely.
            if let Ok(out) = newton_solve(circuit, Mode::Dc, &x, SolveSetup::default(), &mut stats)
            {
                stats.wall_s = wall_start.elapsed().as_secs_f64();
                return Ok((out.x, stats));
            }
        }
    }

    // 3. Source stepping: ramp the sources from 0 to 100 %.
    if opts.source_steps > 0 {
        let mut x = vec![0.0; n];
        let mut ok = true;
        for k in 1..=opts.source_steps {
            let scale = k as f64 / opts.source_steps as f64;
            match newton_solve(
                circuit,
                Mode::Dc,
                &x,
                SolveSetup {
                    gshunt: 0.0,
                    source_scale: scale,
                },
                &mut stats,
            ) {
                Ok(out) => x = out.x,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            stats.wall_s = wall_start.elapsed().as_secs_f64();
            return Ok((x, stats));
        }
    }

    Err(SimError::NoConvergence {
        analysis: "op",
        detail: "plain Newton, gmin stepping and source stepping all failed".to_string(),
    })
}

/// Commits the operating point into every device's state (capacitor voltages
/// etc.), making it the initial condition for a following transient.
pub(crate) fn commit(circuit: &mut Circuit, x: &[f64]) {
    let n_nodes = circuit.n_nodes();
    let sv = StateView {
        x,
        n_nodes,
        time: 0.0,
        mode: Mode::Dc,
    };
    for d in circuit.devices_mut() {
        d.accept_step(&sv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DiodeParams, SourceWave};

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(9.0));
        c.add_resistor("R1", a, b, 2.0e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
        let op = c.op().unwrap();
        assert!((op.voltage(b) - 3.0).abs() < 1e-9);
        assert!((op.voltage(a) - 9.0).abs() < 1e-9);
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
        let i = op.current_through(&c, "V1").unwrap();
        assert!((i + 3.0e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource("I1", Circuit::GROUND, a, SourceWave::dc(1.0e-3));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        let op = c.op().unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diode_clamp() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(5.0));
        c.add_resistor("R1", a, d, 1.0e3).unwrap();
        c.add_diode("D1", d, Circuit::GROUND, DiodeParams::default());
        let op = c.op().unwrap();
        let vd = op.voltage(d);
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
    }

    #[test]
    fn unknown_device_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let op = c.op().unwrap();
        assert!(op.current_through(&c, "VX").is_err());
        assert!(op.current_through(&c, "R1").is_err());
    }

    #[test]
    fn empty_circuit_solves() {
        let mut c = Circuit::new();
        let op = c.op().unwrap();
        assert!(op.solution().is_empty());
    }

    #[test]
    fn back_to_back_diodes_need_homotopy() {
        // A floating-ish midpoint between two diodes biased hard: a stress
        // test that commonly requires gmin stepping.
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.4));
        c.add_diode("D1", a, m, DiodeParams::default());
        c.add_diode("D2", m, Circuit::GROUND, DiodeParams::default());
        let op = c.op().unwrap();
        // Symmetric stack: midpoint at half the supply.
        assert!((op.voltage(m) - 0.7).abs() < 0.05, "vm = {}", op.voltage(m));
    }

    /// The stepping homotopies only move values (the gmin shunt sits on
    /// the diagonal, which is always in the pattern), so after the first
    /// factorization every solve of the escalation ladder is a numeric
    /// refactorization.
    #[test]
    fn gmin_and_source_stepping_add_no_full_factorization() {
        // Too few iterations for plain Newton from zero: the operating
        // point has to escalate to gmin stepping, or (with that disabled)
        // to source stepping.
        for gmin_steps in [12, 0] {
            let mut c = Circuit::new();
            let top = c.node("top");
            c.add_vsource("V1", top, Circuit::GROUND, SourceWave::dc(5.0));
            let mut prev = top;
            for k in 0..6 {
                let n = c.node(&format!("n{k}"));
                c.add_resistor(&format!("R{k}"), prev, n, 500.0).unwrap();
                c.add_diode(&format!("D{k}"), n, Circuit::GROUND, DiodeParams::default());
                prev = n;
            }
            c.options.max_newton_iters = 10;
            c.options.gmin_steps = gmin_steps;
            let stats = c.op().unwrap().stats;
            assert!(stats.newton_iterations > 10, "{stats:?}");
            assert_eq!(stats.factorizations, 1, "{stats:?}");
            assert_eq!(stats.refactorizations, stats.newton_iterations - 1);
        }
    }
}
