//! Simulator options: tolerances, iteration limits, integration method.

use gabm_numeric::integrate::Method;
use gabm_numeric::newton::Tolerances;

/// Global simulator options, the analogue of SPICE's `.OPTIONS` card.
///
/// # Example
///
/// ```
/// use gabm_sim::Options;
///
/// let opts = Options {
///     gmin: 1e-12,
///     ..Options::default()
/// };
/// assert_eq!(opts.max_newton_iters, 250);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Newton convergence tolerances (RELTOL / VNTOL / ABSTOL).
    pub tolerances: Tolerances,
    /// Minimum conductance placed across nonlinear junctions (SPICE `GMIN`).
    pub gmin: f64,
    /// Maximum Newton iterations per solve attempt (SPICE `ITL1`).
    pub max_newton_iters: usize,
    /// Number of gmin-stepping decades tried when the plain operating-point
    /// solve fails.
    pub gmin_steps: usize,
    /// Number of source-stepping points tried when gmin stepping also fails.
    pub source_steps: usize,
    /// Integration method for transient analysis.
    pub method: Method,
    /// Transient local-truncation-error tolerance (volts per step).
    pub tran_tol: f64,
    /// Maximum voltage change per Newton iteration before damping kicks in.
    pub max_voltage_step: f64,
    /// Analysis temperature in kelvin (default 300.15 K = 27 °C).
    pub temperature: f64,
    /// Reuse the sparse LU symbolic analysis and pivot order across Newton
    /// iterations and time steps (numeric-only refactorization) while the
    /// matrix pattern is unchanged. Disable to force a full factorization
    /// per iteration (the pre-reuse behaviour, kept for benchmarking).
    pub reuse_lu: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            tolerances: Tolerances::default(),
            gmin: 1e-12,
            max_newton_iters: 250,
            gmin_steps: 12,
            source_steps: 10,
            method: Method::Trapezoidal,
            tran_tol: 1e-3,
            max_voltage_step: 2.0,
            temperature: 300.15,
            reuse_lu: true,
        }
    }
}

impl Options {
    /// Thermal voltage `kT/q` at the configured temperature.
    pub fn thermal_voltage(&self) -> f64 {
        const K_OVER_Q: f64 = 8.617_333_262e-5; // volts per kelvin
        K_OVER_Q * self.temperature
    }
}

/// Cumulative work counters, used by the benchmark harness to report the
/// paper's §5 cost comparison in machine-independent terms as well as
/// wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Accepted time steps.
    pub accepted_steps: usize,
    /// Rejected (redone) time steps.
    pub rejected_steps: usize,
    /// Total Newton iterations across all solves.
    pub newton_iterations: usize,
    /// Full matrix factorizations (symbolic analysis + pivoting + numerics).
    pub factorizations: usize,
    /// Numeric-only sparse refactorizations served from the cached
    /// symbolic analysis (see [`Options::reuse_lu`]).
    pub refactorizations: usize,
    /// Total device evaluation sweeps.
    pub device_evals: usize,
    /// Wall-clock seconds spent in the analysis that produced these stats
    /// (set by each analysis entry point; [`SimStats::absorb`] sums, and a
    /// composite analysis overwrites with its own total).
    pub wall_s: f64,
}

impl SimStats {
    /// Merges the counters of `other` into `self`.
    pub fn absorb(&mut self, other: SimStats) {
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.newton_iterations += other.newton_iterations;
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
        self.device_evals += other.device_evals;
        self.wall_s += other.wall_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_spice_like() {
        let o = Options::default();
        assert_eq!(o.gmin, 1e-12);
        assert_eq!(o.tolerances.reltol, 1e-3);
        assert_eq!(o.method, Method::Trapezoidal);
        // kT/q at 27 °C ≈ 25.9 mV.
        assert!((o.thermal_voltage() - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn stats_absorb() {
        let mut a = SimStats {
            accepted_steps: 1,
            newton_iterations: 3,
            ..SimStats::default()
        };
        a.absorb(SimStats {
            accepted_steps: 2,
            rejected_steps: 1,
            newton_iterations: 4,
            factorizations: 5,
            refactorizations: 7,
            device_evals: 6,
            wall_s: 0.25,
        });
        assert_eq!(a.accepted_steps, 3);
        assert_eq!(a.rejected_steps, 1);
        assert_eq!(a.newton_iterations, 7);
        assert_eq!(a.factorizations, 5);
        assert_eq!(a.refactorizations, 7);
        assert_eq!(a.device_evals, 6);
        assert_eq!(a.wall_s, 0.25);
    }
}
