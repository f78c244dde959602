//! The damped Newton–Raphson core shared by all real-valued analyses.

use crate::circuit::Circuit;
use crate::device::{Mode, Stamper};
use crate::options::SimStats;
use crate::SimError;
use gabm_numeric::newton::damp_update;
use gabm_numeric::SparseLu;

/// Result of one Newton solve.
#[derive(Debug, Clone)]
pub(crate) struct NewtonOutcome {
    /// Converged solution.
    pub x: Vec<f64>,
    /// Iterations used (exposed for diagnostics and the engine tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub iterations: usize,
}

/// Extra knobs for the homotopy (continuation) strategies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveSetup {
    /// Shunt conductance to ground on every node (gmin stepping).
    pub gshunt: f64,
    /// Scale factor applied to independent sources (source stepping).
    pub source_scale: f64,
}

impl Default for SolveSetup {
    fn default() -> Self {
        SolveSetup {
            gshunt: 0.0,
            source_scale: 1.0,
        }
    }
}

/// Everything a Newton solve reuses across iterations, solves and time
/// steps: the fixed-pattern stamper, the sparse factorization (its symbolic
/// analysis and pivot order) and every work and solution buffer. Cached on
/// the circuit and rebuilt only when the unknown count changes, so an
/// iteration allocates nothing.
#[derive(Debug)]
pub(crate) struct SolverWorkspace {
    stamper: Stamper,
    lu: Option<SparseLu>,
    /// Refactorization scratch, all zeros between uses.
    work: Vec<f64>,
    /// Forward-substitution scratch of the solve.
    scratch: Vec<f64>,
    /// Current iterate.
    x: Vec<f64>,
    /// Solution of the linear system, then the damped update in place.
    x_new: Vec<f64>,
    /// Next iterate.
    x_next: Vec<f64>,
    is_voltage: Vec<bool>,
}

impl SolverWorkspace {
    fn new(n_nodes: usize, n: usize) -> Self {
        SolverWorkspace {
            stamper: Stamper::new(n_nodes, n - n_nodes, Mode::Dc),
            lu: None,
            work: vec![0.0; n],
            scratch: vec![0.0; n],
            x: vec![0.0; n],
            x_new: vec![0.0; n],
            x_next: vec![0.0; n],
            is_voltage: (0..n).map(|i| i < n_nodes).collect(),
        }
    }

    fn fits(&self, n_nodes: usize, n: usize) -> bool {
        self.stamper.n_nodes() == n_nodes && self.stamper.n_unknowns() == n
    }
}

/// Runs a damped Newton iteration for the given mode, starting from `x0`.
///
/// Uses the Norton-companion formulation: each assembled linear system yields
/// the *next iterate* directly, and damping interpolates between iterates
/// when a step is too violent.
pub(crate) fn newton_solve(
    circuit: &mut Circuit,
    mode: Mode,
    x0: &[f64],
    setup: SolveSetup,
    stats: &mut SimStats,
) -> Result<NewtonOutcome, SimError> {
    let _span = gabm_trace::span("sim.newton");
    // The workspace lives on the circuit so the matrix pattern and the
    // factorization survive across solves (and time steps). Take it out
    // for the iteration and put it back on every exit path.
    let (n_nodes, n) = (circuit.n_nodes(), circuit.n_unknowns());
    let mut ws = match circuit.solver.take() {
        Some(ws) if ws.fits(n_nodes, n) => ws,
        _ => SolverWorkspace::new(n_nodes, n),
    };
    let iters_before = stats.newton_iterations;
    let result = newton_iterate(circuit, mode, x0, setup, stats, &mut ws);
    circuit.solver = Some(ws);
    gabm_trace::add(
        "sim.newton.iterations",
        (stats.newton_iterations - iters_before) as u64,
    );
    result
}

fn newton_iterate(
    circuit: &mut Circuit,
    mode: Mode,
    x0: &[f64],
    setup: SolveSetup,
    stats: &mut SimStats,
    ws: &mut SolverWorkspace,
) -> Result<NewtonOutcome, SimError> {
    debug_assert_eq!(x0.len(), ws.x.len(), "initial guess length mismatch");
    let opts = &circuit.options;
    let (gmin, vt, reuse_lu) = (opts.gmin, opts.thermal_voltage(), opts.reuse_lu);
    let (tolerances, max_voltage_step) = (opts.tolerances, opts.max_voltage_step);
    let nonlinear = circuit.is_nonlinear();
    let max_iters = if nonlinear { opts.max_newton_iters } else { 1 };

    for d in circuit.devices_mut() {
        d.begin_solve();
    }

    ws.x.copy_from_slice(x0);
    for iter in 0..max_iters {
        let stamper = &mut ws.stamper;
        stamper.reset(&ws.x, mode);
        stamper.gmin = gmin;
        stamper.vt = vt;
        stamper.source_scale = setup.source_scale;
        stamper.gshunt = setup.gshunt;
        for d in circuit.devices_mut() {
            d.stamp(stamper);
        }
        stats.device_evals += 1;
        let limited = stamper.was_limited();
        let grows = stamper.grows_pattern();
        let (mat, rhs) = stamper.finish();
        // Numeric-only refactorization while the pattern holds; a grown
        // pattern, or a pivot collapsing under the frozen order, takes a
        // full re-pivoting factorization.
        let refactored = match &mut ws.lu {
            Some(lu) if reuse_lu && !grows => {
                lu.refactor_values(mat.values(), &mut ws.work).is_ok()
            }
            _ => false,
        };
        if refactored {
            stats.refactorizations += 1;
            gabm_trace::add("sim.lu.refactor", 1);
        } else {
            if grows {
                gabm_trace::add("sim.lu.pattern_grow", 1);
            }
            stats.factorizations += 1;
            gabm_trace::add("sim.lu.full", 1);
            // A failed factorization leaves nothing valid to refactor.
            ws.lu = None;
            let lu = SparseLu::new(mat).map_err(|e| match e {
                gabm_numeric::NumericError::Singular { pivot } => SimError::SingularMatrix {
                    detail: unknown_name(circuit, pivot),
                },
                other => SimError::from(other),
            })?;
            ws.lu = Some(lu);
        }
        let lu = ws.lu.as_ref().expect("factorized above");
        lu.solve_into(rhs, &mut ws.scratch, &mut ws.x_new)?;
        stats.newton_iterations += 1;
        if !nonlinear {
            return Ok(NewtonOutcome {
                x: ws.x_new.clone(),
                iterations: 1,
            });
        }
        // Damped update.
        for (d, x) in ws.x_new.iter_mut().zip(&ws.x) {
            *d -= x;
        }
        let scale = damp_update(&mut ws.x_new, max_voltage_step);
        for ((next, x), d) in ws.x_next.iter_mut().zip(&ws.x).zip(&ws.x_new) {
            *next = x + d;
        }
        let converged =
            scale == 1.0 && !limited && tolerances.converged(&ws.x_next, &ws.x, &ws.is_voltage);
        std::mem::swap(&mut ws.x, &mut ws.x_next);
        if converged {
            return Ok(NewtonOutcome {
                x: ws.x.clone(),
                iterations: iter + 1,
            });
        }
    }
    Err(SimError::NoConvergence {
        analysis: "newton",
        detail: format!("no convergence in {max_iters} iterations"),
    })
}

/// Human-readable name of MNA unknown `idx` (the column the sparse LU found
/// no pivot for) for singular-matrix diagnostics. A branch current is named
/// after the device that owns it.
fn unknown_name(circuit: &Circuit, idx: usize) -> String {
    let n_nodes = circuit.n_nodes();
    if idx < n_nodes {
        return format!(
            "node '{}'",
            circuit.node_name(crate::circuit::NodeId::from_index(idx + 1))
        );
    }
    let branch = idx - n_nodes;
    match circuit
        .devices()
        .iter()
        .find(|d| d.branch_index() == Some(branch))
    {
        Some(d) => format!("branch current of {}", d.name()),
        None => format!("branch current #{branch}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWave;

    #[test]
    fn linear_divider_single_iteration() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(10.0));
        c.add_resistor("R1", a, b, 1.0e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.iterations, 1);
        // b is node index 2 → x[1].
        assert!((out.x[1] - 5.0).abs() < 1e-9);
        // Source current = −10/2k = −5 mA (into + terminal).
        assert!((out.x[2] + 5.0e-3).abs() < 1e-9);
    }

    #[test]
    fn floating_node_reports_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("floating");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        // b only connects to a resistor to itself-ish: make it truly floating
        // by adding a resistor between b and b (no-op is impossible) — use a
        // node with no devices instead.
        let _ = b;
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let err = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap_err();
        match err {
            SimError::SingularMatrix { detail } => {
                assert!(detail.contains("floating"), "detail: {detail}");
            }
            other => panic!("expected singular matrix, got {other:?}"),
        }
    }

    #[test]
    fn shorted_source_reports_owning_device() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
        c.add_vsource("V1", b, Circuit::GROUND, SourceWave::dc(1.0));
        // Both terminals on one node: the branch equation 0 = 2 V has no
        // pivot, and its column is V2's branch current.
        c.add_vsource("V2", a, a, SourceWave::dc(2.0));
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let err = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap_err();
        match err {
            SimError::SingularMatrix { detail } => {
                assert_eq!(detail, "branch current of V2");
            }
            other => panic!("expected singular matrix, got {other:?}"),
        }
    }

    /// Nonlinear diode/resistor ladder.
    fn diode_ladder(reuse_lu: bool) -> Circuit {
        let mut c = Circuit::new();
        c.options.reuse_lu = reuse_lu;
        let top = c.node("top");
        c.add_vsource("V1", top, Circuit::GROUND, SourceWave::dc(5.0));
        let mut prev = top;
        for k in 0..6 {
            let n = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, n, 500.0).unwrap();
            c.add_diode(
                &format!("D{k}"),
                n,
                Circuit::GROUND,
                crate::devices::DiodeParams::default(),
            );
            prev = n;
        }
        c
    }

    #[test]
    fn sparse_lu_reuse_is_bitwise_identical_to_full_factorization() {
        let solve = |reuse: bool| {
            let mut c = diode_ladder(reuse);
            let n = c.n_unknowns();
            let mut stats = SimStats::default();
            let out = newton_solve(
                &mut c,
                Mode::Dc,
                &vec![0.0; n],
                SolveSetup::default(),
                &mut stats,
            )
            .unwrap();
            (out, stats)
        };
        let (out_full, stats_full) = solve(false);
        let (out_reuse, stats_reuse) = solve(true);
        assert_eq!(out_full.iterations, out_reuse.iterations);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_full.x), bits(&out_reuse.x));
        // Without reuse every iteration refactors from scratch; with it,
        // only the first does.
        assert_eq!(stats_full.refactorizations, 0);
        assert_eq!(stats_full.factorizations, out_full.iterations);
        assert_eq!(stats_reuse.factorizations, 1);
        assert_eq!(stats_reuse.refactorizations, out_reuse.iterations - 1);
    }

    #[test]
    fn lu_cache_survives_consecutive_solves() {
        let mut c = diode_ladder(true);
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        // Second solve from the converged point: same pattern, so no new
        // full factorization at all.
        newton_solve(&mut c, Mode::Dc, &out.x, SolveSetup::default(), &mut stats).unwrap();
        assert_eq!(stats.factorizations, 1);
        assert!(stats.refactorizations >= out.iterations);
    }

    #[test]
    fn diode_resistor_converges() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(5.0));
        c.add_resistor("R1", a, d, 1.0e3).unwrap();
        c.add_diode(
            "D1",
            d,
            Circuit::GROUND,
            crate::devices::DiodeParams::default(),
        );
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        // Diode drop should be ~0.6–0.8 V.
        let vd = out.x[1];
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
        assert!(out.iterations > 1);
        // KCL: (5 − vd)/1k = Is(e^{vd/vt} − 1) within tolerance.
        let i_r = (5.0 - vd) / 1.0e3;
        let i_d = 1e-14 * ((vd / 0.025861).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-2, "ir={i_r}, id={i_d}");
    }
}
