//! The traced per-layer split of transient time.
//!
//! From the program's own `sim.tran`, `sim.tran.step` and `sim.newton`
//! spans, the time of every transient divides into four parts that add up
//! to it:
//!
//! * `sim.tran.self` — inside `sim.tran` but outside its steps and outside
//!   every Newton solve: operating-point set-up, breakpoints, state commits
//!   and result storage;
//! * `sim.step.self` — inside steps, outside Newton: step control;
//! * `sim.newton.self` — Newton solves (the operating point's and the
//!   steps') minus FAS evaluation: stamping, LU and convergence checks;
//! * FAS evaluation, timed by [`crate::probe::ProbedModel`].

use gabm_trace::{Event, Trace};

/// Span time totals of one or more traces (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split {
    /// The benchmark's own `bench.tran` spans around `Circuit::tran`.
    pub bench_tran_ns: u64,
    /// `sim.tran` spans.
    pub tran_ns: u64,
    /// `sim.tran.step` spans.
    pub step_ns: u64,
    /// `sim.newton` spans nested anywhere inside `sim.tran`.
    pub newton_in_tran_ns: u64,
    /// `sim.newton` spans directly inside `sim.tran.step`.
    pub newton_in_step_ns: u64,
}

impl Split {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Split) {
        self.bench_tran_ns += other.bench_tran_ns;
        self.tran_ns += other.tran_ns;
        self.step_ns += other.step_ns;
        self.newton_in_tran_ns += other.newton_in_tran_ns;
        self.newton_in_step_ns += other.newton_in_step_ns;
    }

    /// Time in `sim.tran` outside steps and Newton solves (ns).
    pub fn tran_self_ns(&self) -> u64 {
        let newton_outside_steps = self.newton_in_tran_ns - self.newton_in_step_ns;
        self.tran_ns
            .saturating_sub(self.step_ns)
            .saturating_sub(newton_outside_steps)
    }

    /// Time in steps outside Newton solves (ns).
    pub fn step_self_ns(&self) -> u64 {
        self.step_ns.saturating_sub(self.newton_in_step_ns)
    }

    /// Time in Newton solves outside FAS evaluation (ns), given the FAS
    /// evaluation time `fas_ns` measured over the same transients.
    pub fn newton_self_ns(&self, fas_ns: u64) -> u64 {
        self.newton_in_tran_ns.saturating_sub(fas_ns)
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    in_tran: bool,
}

/// Sums the span times of `trace` into a [`Split`]. Detached spans (pool
/// jobs) start outside any transient.
pub fn split(trace: &Trace) -> Split {
    let mut s = Split::default();
    for thread in &trace.threads {
        let mut stack: Vec<Open> = Vec::new();
        let close = |s: &mut Split, stack: &[Open], open: Open, end_ns: u64| {
            let dur = end_ns.saturating_sub(open.start_ns);
            let parent = stack.last().map(|p| p.name);
            match open.name {
                "bench.tran" => s.bench_tran_ns += dur,
                "sim.tran" => s.tran_ns += dur,
                "sim.tran.step" => s.step_ns += dur,
                "sim.newton" if open.in_tran => {
                    s.newton_in_tran_ns += dur;
                    if parent == Some("sim.tran.step") {
                        s.newton_in_step_ns += dur;
                    }
                }
                _ => {}
            }
        };
        for ev in &thread.events {
            match ev {
                Event::Begin {
                    name,
                    ts_ns,
                    detached,
                    ..
                } => {
                    let in_tran = !detached
                        && stack
                            .last()
                            .is_some_and(|p| p.in_tran || p.name == "sim.tran");
                    stack.push(Open {
                        name,
                        start_ns: *ts_ns,
                        in_tran,
                    });
                }
                Event::End { ts_ns } => {
                    if let Some(open) = stack.pop() {
                        close(&mut s, &stack, open, *ts_ns);
                    }
                }
            }
        }
        while let Some(open) = stack.pop() {
            close(&mut s, &stack, open, trace.end_ns);
        }
    }
    s
}

/// The value of the named counter in `trace`, 0 when absent.
pub fn counter(trace: &Trace, name: &str) -> u64 {
    trace
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// The value of the named gauge in `trace`, 0 when absent.
pub fn gauge(trace: &Trace, name: &str) -> u64 {
    trace
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}
