//! Counters the benchmark keeps from outside the program: a timing wrapper
//! around FAS model instances, model-build timing and pool busy time.
//!
//! All counters are process-wide relaxed atomics (they publish no other
//! data). Calls are always counted; FAS evaluations are timed only while
//! [`set_fas_timing`] is on, so untraced runs pay two atomic additions per
//! evaluation and no clock reads.

use gabm_sim::devices::{BehavioralModel, EvalCtx};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static FAS_EVAL_CALLS: AtomicU64 = AtomicU64::new(0);
static FAS_JAC_CALLS: AtomicU64 = AtomicU64::new(0);
static FAS_EVAL_NS: AtomicU64 = AtomicU64::new(0);
static FAS_TIMING: AtomicBool = AtomicBool::new(false);
static BUILD_CALLS: AtomicU64 = AtomicU64::new(0);
static BUILD_NS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of every counter. Differences of two snapshots give the
/// work done between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probes {
    /// `BehavioralModel::eval` calls.
    pub fas_eval_calls: u64,
    /// `BehavioralModel::eval_with_jacobian` calls.
    pub fas_jac_calls: u64,
    /// Nanoseconds inside both, while timing was on.
    pub fas_eval_ns: u64,
    /// Model builds (diagram → FAS code → compiled model).
    pub build_calls: u64,
    /// Nanoseconds inside model builds.
    pub build_ns: u64,
    /// Nanoseconds inside the benchmark's pool sample closures.
    pub busy_ns: u64,
}

impl Probes {
    /// Reads every counter.
    pub fn now() -> Probes {
        Probes {
            fas_eval_calls: FAS_EVAL_CALLS.load(Ordering::Relaxed),
            fas_jac_calls: FAS_JAC_CALLS.load(Ordering::Relaxed),
            fas_eval_ns: FAS_EVAL_NS.load(Ordering::Relaxed),
            build_calls: BUILD_CALLS.load(Ordering::Relaxed),
            build_ns: BUILD_NS.load(Ordering::Relaxed),
            busy_ns: BUSY_NS.load(Ordering::Relaxed),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Probes) -> Probes {
        Probes {
            fas_eval_calls: self.fas_eval_calls - earlier.fas_eval_calls,
            fas_jac_calls: self.fas_jac_calls - earlier.fas_jac_calls,
            fas_eval_ns: self.fas_eval_ns - earlier.fas_eval_ns,
            build_calls: self.build_calls - earlier.build_calls,
            build_ns: self.build_ns - earlier.build_ns,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Turns clock reads around FAS evaluations on or off.
pub fn set_fas_timing(on: bool) {
    FAS_TIMING.store(on, Ordering::Relaxed);
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs a model build in a `bench.build` span and records its time.
pub fn timed_build<T>(build: impl FnOnce() -> T) -> T {
    let _span = gabm_trace::span("bench.build");
    let t0 = Instant::now();
    let out = build();
    BUILD_NS.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    BUILD_CALLS.fetch_add(1, Ordering::Relaxed);
    out
}

/// Runs one pool sample closure in a `bench.sample` span and records its
/// time as pool busy time.
pub fn busy<T>(work: impl FnOnce() -> T) -> T {
    let _span = gabm_trace::span("bench.sample");
    let t0 = Instant::now();
    let out = work();
    BUSY_NS.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    out
}

/// Wraps a FAS model instance, counting (and optionally timing) every
/// evaluation before forwarding it unchanged.
#[derive(Debug)]
pub struct ProbedModel {
    inner: Box<dyn BehavioralModel>,
}

impl ProbedModel {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn BehavioralModel>) -> Self {
        ProbedModel { inner }
    }
}

impl BehavioralModel for ProbedModel {
    fn pin_count(&self) -> usize {
        self.inner.pin_count()
    }

    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]) {
        FAS_EVAL_CALLS.fetch_add(1, Ordering::Relaxed);
        if FAS_TIMING.load(Ordering::Relaxed) {
            let t0 = Instant::now();
            self.inner.eval(ctx, pin_voltages, currents);
            FAS_EVAL_NS.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        } else {
            self.inner.eval(ctx, pin_voltages, currents);
        }
    }

    fn eval_with_jacobian(
        &mut self,
        ctx: &EvalCtx,
        pin_voltages: &[f64],
        currents: &mut [f64],
        jacobian: &mut [f64],
    ) -> bool {
        FAS_JAC_CALLS.fetch_add(1, Ordering::Relaxed);
        if FAS_TIMING.load(Ordering::Relaxed) {
            let t0 = Instant::now();
            let ok = self
                .inner
                .eval_with_jacobian(ctx, pin_voltages, currents, jacobian);
            FAS_EVAL_NS.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
            ok
        } else {
            self.inner
                .eval_with_jacobian(ctx, pin_voltages, currents, jacobian)
        }
    }

    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]) {
        self.inner.accept(ctx, pin_voltages);
    }

    fn begin_solve(&mut self) {
        self.inner.begin_solve();
    }
}
