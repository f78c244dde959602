//! The FAS interpreter: executes a compiled model inside the simulator.

use crate::compile::{CCond, CExpr, CStmt, CompiledModel};
use crate::dual::{Dual, MAX_TANGENTS};
use gabm_sim::devices::{BehavioralModel, EvalCtx};
use std::collections::VecDeque;

/// Pseudo time step reported by `timestep` during DC solves. Large enough
/// that slope-limiter patterns (slew rate) never clip at the operating
/// point, so `y = ylast + ((u − ylast)/dt)·dt = u` holds exactly.
pub const DC_PSEUDO_DT: f64 = 1.0e9;

/// An executable instance of a [`CompiledModel`].
///
/// Implements [`BehavioralModel`], so it can be attached to a circuit with
/// [`gabm_sim::Circuit::add_behavioral`]. Evaluation is pure with respect to
/// committed state; state commits happen in [`BehavioralModel::accept`].
#[derive(Debug, Clone)]
pub struct FasMachine {
    model: CompiledModel,
    params: Vec<f64>,
    // Committed state (last accepted time point).
    committed_vars: Vec<f64>,
    committed_dt_args: Vec<f64>,
    committed_idt_args: Vec<f64>,
    committed_idt_integral: Vec<f64>,
    history: Vec<VecDeque<(f64, f64)>>,
    max_td_seen: f64,
    scratch: Scratch,
}

/// Reusable buffers for evaluation passes: the device Jacobian requires
/// `pins + 1` evaluations per Newton iteration, so per-pass allocation would
/// dominate the interpreter cost.
#[derive(Debug, Clone, Default)]
struct Scratch {
    vars: Vec<f64>,
    assigned: Vec<bool>,
    imposed: Vec<f64>,
    dt_args: Vec<f64>,
    dt_seen: Vec<bool>,
    idt_args: Vec<f64>,
    idt_seen: Vec<bool>,
    // Dual-number buffers for the analytic-Jacobian pass.
    vars_dual: Vec<Dual>,
    imposed_dual: Vec<Dual>,
}

impl Scratch {
    fn reset(&mut self, n_vars: usize, n_pins: usize, n_dt: usize, n_idt: usize) {
        self.vars.clear();
        self.vars.resize(n_vars, 0.0);
        self.assigned.clear();
        self.assigned.resize(n_vars, false);
        self.imposed.clear();
        self.imposed.resize(n_pins, 0.0);
        self.dt_args.clear();
        self.dt_args.resize(n_dt, 0.0);
        self.dt_seen.clear();
        self.dt_seen.resize(n_dt, false);
        self.idt_args.clear();
        self.idt_args.resize(n_idt, 0.0);
        self.idt_seen.clear();
        self.idt_seen.resize(n_idt, false);
        self.vars_dual.clear();
        self.vars_dual.resize(n_vars, Dual::constant(0.0));
        self.imposed_dual.clear();
        self.imposed_dual.resize(n_pins, Dual::constant(0.0));
    }
}

/// One evaluation pass over the model body.
struct Pass<'a> {
    machine: &'a FasMachine,
    ctx: EvalCtx,
    pin_v: &'a [f64],
    scratch: &'a mut Scratch,
    max_td: f64,
}

impl FasMachine {
    pub(crate) fn new(model: CompiledModel, params: Vec<f64>) -> Self {
        let n_vars = model.var_names.len();
        let n_dt = model.n_dt;
        let n_idt = model.n_idt;
        let n_delayt = model.n_delayt;
        FasMachine {
            model,
            params,
            committed_vars: vec![0.0; n_vars],
            committed_dt_args: vec![0.0; n_dt],
            committed_idt_args: vec![0.0; n_idt],
            committed_idt_integral: vec![0.0; n_idt],
            history: vec![VecDeque::new(); n_delayt],
            max_td_seen: 0.0,
            scratch: Scratch::default(),
        }
    }

    /// The compiled model this machine runs.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Current value of a named parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.model
            .params
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| self.params[i])
    }

    /// Committed value of a named variable (test/diagnostic hook).
    pub fn committed_var(&self, name: &str) -> Option<f64> {
        self.model
            .var_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.committed_vars[i])
    }

    /// Runs one evaluation pass into the reusable scratch buffers, which
    /// are left holding the pass results. Returns the largest `delayt` time
    /// seen.
    fn run_pass_mut(&mut self, ctx: EvalCtx, pin_v: &[f64]) -> f64 {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(
            self.model.var_names.len(),
            self.model.pins.len(),
            self.model.n_dt,
            self.model.n_idt,
        );
        let max_td = {
            let mut pass = Pass {
                machine: self,
                ctx,
                pin_v,
                scratch: &mut scratch,
                max_td: 0.0,
            };
            pass.exec_block(&self.model.body);
            pass.max_td
        };
        self.scratch = scratch;
        max_td
    }

    /// Runs one dual-number pass (value + exact pin Jacobian in a single
    /// interpreter walk). Results land in `scratch.imposed_dual`.
    fn run_dual_pass(&mut self, ctx: EvalCtx, pin_v: &[f64]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(
            self.model.var_names.len(),
            self.model.pins.len(),
            self.model.n_dt,
            self.model.n_idt,
        );
        {
            let mut pass = Pass {
                machine: self,
                ctx,
                pin_v,
                scratch: &mut scratch,
                max_td: 0.0,
            };
            pass.exec_block_dual(&self.model.body);
        }
        self.scratch = scratch;
    }
}

impl Pass<'_> {
    fn exec_block(&mut self, stmts: &[CStmt]) {
        for stmt in stmts {
            match stmt {
                CStmt::Set(var, expr) => {
                    let v = self.eval(expr);
                    self.scratch.vars[*var] = v;
                    self.scratch.assigned[*var] = true;
                }
                CStmt::Impose(pin, expr) => {
                    let v = self.eval(expr);
                    self.scratch.imposed[*pin] += v;
                }
                CStmt::If(cond, then_b, else_b) => {
                    let taken = match cond {
                        CCond::ModeIs(dc) => *dc == self.ctx.mode_dc,
                        CCond::Cmp(op, a, b) => {
                            let av = self.eval(a);
                            let bv = self.eval(b);
                            op.apply(av, bv)
                        }
                    };
                    if taken {
                        self.exec_block(then_b);
                    } else {
                        self.exec_block(else_b);
                    }
                }
            }
        }
    }

    fn exec_block_dual(&mut self, stmts: &[CStmt]) {
        for stmt in stmts {
            match stmt {
                CStmt::Set(var, expr) => {
                    let v = self.eval_dual(expr);
                    self.scratch.vars_dual[*var] = v;
                    self.scratch.vars[*var] = v.v;
                    self.scratch.assigned[*var] = true;
                }
                CStmt::Impose(pin, expr) => {
                    let v = self.eval_dual(expr);
                    let cur = self.scratch.imposed_dual[*pin];
                    self.scratch.imposed_dual[*pin] = cur + v;
                    self.scratch.imposed[*pin] += v.v;
                }
                CStmt::If(cond, then_b, else_b) => {
                    let taken = match cond {
                        CCond::ModeIs(dc) => *dc == self.ctx.mode_dc,
                        CCond::Cmp(op, a, b) => {
                            let av = self.eval_dual(a).v;
                            let bv = self.eval_dual(b).v;
                            op.apply(av, bv)
                        }
                    };
                    if taken {
                        self.exec_block_dual(then_b);
                    } else {
                        self.exec_block_dual(else_b);
                    }
                }
            }
        }
    }

    fn eval_dual(&mut self, expr: &CExpr) -> Dual {
        use crate::compile::{Func1, Func2};
        match expr {
            CExpr::Num(v) => Dual::constant(*v),
            CExpr::Var(i) => self.scratch.vars_dual[*i],
            CExpr::Param(i) => Dual::constant(self.machine.params[*i]),
            CExpr::PinValue(i) => Dual::variable(self.pin_v[*i], *i),
            CExpr::Time => Dual::constant(self.ctx.time),
            CExpr::Temp => Dual::constant(self.ctx.temperature),
            CExpr::TimeStep => Dual::constant(self.dt_effective()),
            CExpr::Neg(e) => -self.eval_dual(e),
            CExpr::Bin(op, a, b) => {
                let av = self.eval_dual(a);
                let bv = self.eval_dual(b);
                match op {
                    crate::ast::BinOp::Add => av + bv,
                    crate::ast::BinOp::Sub => av - bv,
                    crate::ast::BinOp::Mul => av * bv,
                    crate::ast::BinOp::Div => av / bv,
                }
            }
            CExpr::Call1(f, a) => {
                let av = self.eval_dual(a);
                let x = av.v;
                let (value, slope) = match f {
                    Func1::Sin => (x.sin(), x.cos()),
                    Func1::Cos => (x.cos(), -x.sin()),
                    Func1::Exp => {
                        let e = x.exp();
                        (e, e)
                    }
                    Func1::Ln => (x.ln(), 1.0 / x),
                    Func1::Abs => (x.abs(), if x >= 0.0 { 1.0 } else { -1.0 }),
                    Func1::Sqrt => {
                        let r = x.sqrt();
                        (r, if r > 0.0 { 0.5 / r } else { 0.0 })
                    }
                    Func1::Tanh => {
                        let t = x.tanh();
                        (t, 1.0 - t * t)
                    }
                    Func1::Atan => (x.atan(), 1.0 / (1.0 + x * x)),
                };
                av.chain(value, slope)
            }
            CExpr::Call2(f, a, b) => {
                let av = self.eval_dual(a);
                let bv = self.eval_dual(b);
                match f {
                    Func2::Min => av.min(bv),
                    Func2::Max => av.max(bv),
                    Func2::Pow => {
                        let value = av.v.powf(bv.v);
                        // d(a^b) = a^b (b' ln a + b a'/a); the ln-term only
                        // exists for positive bases.
                        let da = if av.v != 0.0 {
                            value * bv.v / av.v
                        } else {
                            0.0
                        };
                        let db = if av.v > 0.0 { value * av.v.ln() } else { 0.0 };
                        let mut d = [0.0; MAX_TANGENTS];
                        #[allow(clippy::needless_range_loop)]
                        for i in 0..MAX_TANGENTS {
                            d[i] = da * av.d[i] + db * bv.d[i];
                        }
                        Dual { v: value, d }
                    }
                }
            }
            CExpr::Limit(x, lo, hi) => {
                let xv = self.eval_dual(x);
                let lov = self.eval_dual(lo);
                let hiv = self.eval_dual(hi);
                xv.limit(lov, hiv)
            }
            CExpr::Dt { inst, arg } => {
                let av = self.eval_dual(arg);
                self.scratch.dt_args[*inst] = av.v;
                self.scratch.dt_seen[*inst] = true;
                if self.ctx.mode_dc {
                    Dual::constant(0.0)
                } else {
                    let dt = self.dt_effective();
                    let value = (av.v - self.machine.committed_dt_args[*inst]) / dt;
                    let mut out = av.scale_tangent(1.0 / dt);
                    out.v = value;
                    out
                }
            }
            CExpr::Delay { var } => Dual::constant(self.machine.committed_vars[*var]),
            CExpr::DelayT { inst, var, td } => {
                let tdv = self.eval_dual(td).v.max(0.0);
                self.max_td = self.max_td.max(tdv);
                if self.ctx.mode_dc {
                    return Dual::constant(self.machine.committed_vars[*var]);
                }
                let target = self.ctx.time - tdv;
                let hist = &self.machine.history[*inst];
                Dual::constant(
                    sample_history(hist, target).unwrap_or(self.machine.committed_vars[*var]),
                )
            }
            CExpr::Idt { inst, arg } => {
                let av = self.eval_dual(arg);
                self.scratch.idt_args[*inst] = av.v;
                self.scratch.idt_seen[*inst] = true;
                if self.ctx.mode_dc {
                    Dual::constant(0.0)
                } else {
                    let half_dt = 0.5 * self.ctx.dt;
                    let value = self.machine.committed_idt_integral[*inst]
                        + half_dt * (av.v + self.machine.committed_idt_args[*inst]);
                    let mut out = av.scale_tangent(half_dt);
                    out.v = value;
                    out
                }
            }
        }
    }

    fn dt_effective(&self) -> f64 {
        if self.ctx.mode_dc || self.ctx.dt <= 0.0 {
            DC_PSEUDO_DT
        } else {
            self.ctx.dt
        }
    }

    fn eval(&mut self, expr: &CExpr) -> f64 {
        match expr {
            CExpr::Num(v) => *v,
            CExpr::Var(i) => self.scratch.vars[*i],
            CExpr::Param(i) => self.machine.params[*i],
            CExpr::PinValue(i) => self.pin_v[*i],
            CExpr::Time => self.ctx.time,
            CExpr::Temp => self.ctx.temperature,
            CExpr::TimeStep => self.dt_effective(),
            CExpr::Neg(e) => -self.eval(e),
            CExpr::Bin(op, a, b) => {
                let av = self.eval(a);
                let bv = self.eval(b);
                match op {
                    crate::ast::BinOp::Add => av + bv,
                    crate::ast::BinOp::Sub => av - bv,
                    crate::ast::BinOp::Mul => av * bv,
                    crate::ast::BinOp::Div => av / bv,
                }
            }
            CExpr::Call1(f, a) => {
                let av = self.eval(a);
                f.apply(av)
            }
            CExpr::Call2(f, a, b) => {
                let av = self.eval(a);
                let bv = self.eval(b);
                f.apply(av, bv)
            }
            CExpr::Limit(x, lo, hi) => {
                let xv = self.eval(x);
                let lov = self.eval(lo);
                let hiv = self.eval(hi);
                crate::dual::limit(xv, lov, hiv)
            }
            CExpr::Dt { inst, arg } => {
                let v = self.eval(arg);
                self.scratch.dt_args[*inst] = v;
                self.scratch.dt_seen[*inst] = true;
                if self.ctx.mode_dc {
                    0.0
                } else {
                    (v - self.machine.committed_dt_args[*inst]) / self.dt_effective()
                }
            }
            CExpr::Delay { var } => self.machine.committed_vars[*var],
            CExpr::DelayT { inst, var, td } => {
                let tdv = self.eval(td).max(0.0);
                self.max_td = self.max_td.max(tdv);
                if self.ctx.mode_dc {
                    return self.machine.committed_vars[*var];
                }
                let target = self.ctx.time - tdv;
                let hist = &self.machine.history[*inst];
                sample_history(hist, target).unwrap_or(self.machine.committed_vars[*var])
            }
            CExpr::Idt { inst, arg } => {
                let v = self.eval(arg);
                self.scratch.idt_args[*inst] = v;
                self.scratch.idt_seen[*inst] = true;
                if self.ctx.mode_dc {
                    0.0
                } else {
                    // Committed integral extended by the current half step
                    // (trapezoidal).
                    self.machine.committed_idt_integral[*inst]
                        + 0.5 * self.ctx.dt * (v + self.machine.committed_idt_args[*inst])
                }
            }
        }
    }
}

/// Linear interpolation into a delayed-variable history. Shared with the
/// bytecode VM so both backends resolve `state.delayt` identically.
pub fn sample_history(hist: &VecDeque<(f64, f64)>, t: f64) -> Option<f64> {
    if hist.is_empty() {
        return None;
    }
    if t <= hist.front().expect("non-empty").0 {
        return Some(hist.front().expect("non-empty").1);
    }
    if t >= hist.back().expect("non-empty").0 {
        return Some(hist.back().expect("non-empty").1);
    }
    let mut prev = *hist.front().expect("non-empty");
    for &(ht, hv) in hist.iter().skip(1) {
        if ht >= t {
            let frac = (t - prev.0) / (ht - prev.0);
            return Some(prev.1 + frac * (hv - prev.1));
        }
        prev = (ht, hv);
    }
    Some(prev.1)
}

impl BehavioralModel for FasMachine {
    fn pin_count(&self) -> usize {
        self.model.pins.len()
    }

    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]) {
        self.run_pass_mut(*ctx, pin_voltages);
        currents.copy_from_slice(&self.scratch.imposed);
    }

    fn eval_with_jacobian(
        &mut self,
        ctx: &EvalCtx,
        pin_voltages: &[f64],
        currents: &mut [f64],
        jacobian: &mut [f64],
    ) -> bool {
        let n = self.model.pins.len();
        if n > MAX_TANGENTS {
            return false;
        }
        self.run_dual_pass(*ctx, pin_voltages);
        for k in 0..n {
            let imposed = self.scratch.imposed_dual[k];
            currents[k] = imposed.v;
            jacobian[k * n..k * n + n].copy_from_slice(&imposed.d[..n]);
        }
        true
    }

    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]) {
        if ctx.mode_dc {
            // Pass 1 — DC semantics: commit the variable values.
            self.run_pass_mut(*ctx, pin_voltages);
            for i in 0..self.committed_vars.len() {
                if self.scratch.assigned[i] {
                    self.committed_vars[i] = self.scratch.vars[i];
                }
            }
            // Pass 2 — shadow transient with the DC pseudo-step: walks the
            // `else` branches of the mode guards so every state instance
            // records its argument, seeding derivatives/integrals/delays
            // with operating-point values.
            let shadow_ctx = EvalCtx {
                mode_dc: false,
                time: 0.0,
                dt: DC_PSEUDO_DT,
                temperature: ctx.temperature,
            };
            self.run_pass_mut(shadow_ctx, pin_voltages);
            for i in 0..self.committed_dt_args.len() {
                if self.scratch.dt_seen[i] {
                    self.committed_dt_args[i] = self.scratch.dt_args[i];
                }
            }
            for i in 0..self.committed_idt_args.len() {
                if self.scratch.idt_seen[i] {
                    self.committed_idt_args[i] = self.scratch.idt_args[i];
                    self.committed_idt_integral[i] = 0.0;
                }
            }
            // Seed delayed-variable histories at t = 0.
            let committed = self.committed_vars.clone();
            for (inst, hist) in self.history.iter_mut().enumerate() {
                hist.clear();
                // Which variable does this instance delay? Recover it by
                // scanning the compiled body once.
                if let Some(var) = delayt_var(&self.model.body, inst) {
                    hist.push_back((0.0, committed[var]));
                }
            }
        } else {
            let max_td = self.run_pass_mut(*ctx, pin_voltages);
            for i in 0..self.committed_vars.len() {
                if self.scratch.assigned[i] {
                    self.committed_vars[i] = self.scratch.vars[i];
                }
            }
            for i in 0..self.committed_dt_args.len() {
                if self.scratch.dt_seen[i] {
                    self.committed_dt_args[i] = self.scratch.dt_args[i];
                }
            }
            for i in 0..self.committed_idt_args.len() {
                if self.scratch.idt_seen[i] {
                    let v = self.scratch.idt_args[i];
                    self.committed_idt_integral[i] +=
                        0.5 * ctx.dt * (v + self.committed_idt_args[i]);
                    self.committed_idt_args[i] = v;
                }
            }
            self.max_td_seen = self.max_td_seen.max(max_td);
            // Append to delayed histories and prune.
            let committed = self.committed_vars.clone();
            let keep_after = ctx.time - 2.0 * self.max_td_seen - ctx.dt;
            for (inst, hist) in self.history.iter_mut().enumerate() {
                if let Some(var) = delayt_var(&self.model.body, inst) {
                    hist.push_back((ctx.time, committed[var]));
                    while hist.len() > 2 && hist.front().map(|h| h.0) < Some(keep_after) {
                        hist.pop_front();
                    }
                }
            }
        }
    }
}

/// Finds the variable delayed by `state.delayt` instance `inst`. Shared
/// with the bytecode VM, which keys history commits off the same mapping.
pub fn delayt_var(body: &[CStmt], inst: usize) -> Option<usize> {
    fn in_expr(e: &CExpr, inst: usize) -> Option<usize> {
        match e {
            CExpr::DelayT {
                inst: i, var, td, ..
            } => {
                if *i == inst {
                    Some(*var)
                } else {
                    in_expr(td, inst)
                }
            }
            CExpr::Neg(a)
            | CExpr::Call1(_, a)
            | CExpr::Dt { arg: a, .. }
            | CExpr::Idt { arg: a, .. } => in_expr(a, inst),
            CExpr::Bin(_, a, b) | CExpr::Call2(_, a, b) => {
                in_expr(a, inst).or_else(|| in_expr(b, inst))
            }
            CExpr::Limit(a, b, c) => in_expr(a, inst)
                .or_else(|| in_expr(b, inst))
                .or_else(|| in_expr(c, inst)),
            _ => None,
        }
    }
    fn in_stmts(stmts: &[CStmt], inst: usize) -> Option<usize> {
        for s in stmts {
            let found = match s {
                CStmt::Set(_, e) | CStmt::Impose(_, e) => in_expr(e, inst),
                CStmt::If(cond, a, b) => {
                    let c = match cond {
                        CCond::Cmp(_, x, y) => in_expr(x, inst).or_else(|| in_expr(y, inst)),
                        CCond::ModeIs(_) => None,
                    };
                    c.or_else(|| in_stmts(a, inst))
                        .or_else(|| in_stmts(b, inst))
                }
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    in_stmts(body, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use std::collections::BTreeMap;

    fn machine(src: &str) -> FasMachine {
        compile(src).unwrap().instantiate(&BTreeMap::new()).unwrap()
    }

    fn dc_ctx() -> EvalCtx {
        EvalCtx {
            mode_dc: true,
            time: 0.0,
            dt: 0.0,
            temperature: 300.15,
        }
    }

    fn tran_ctx(time: f64, dt: f64) -> EvalCtx {
        EvalCtx {
            mode_dc: false,
            time,
            dt,
            temperature: 300.15,
        }
    }

    #[test]
    fn resistor_model_current() {
        let mut m = machine(
            "model r pin (a) param (g=1e-3)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = g * v\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[2.0], &mut i);
        assert!((i[0] - 2e-3).abs() < 1e-15);
        assert_eq!(m.param("g"), Some(1e-3));
        assert_eq!(m.param("zz"), None);
    }

    #[test]
    fn paper_input_stage_semantics() {
        let src = "\
model input_stage pin (in) param (gin=1e-6, cin=1e-9)
analog
make v2 = volt.value(in)
if (mode=dc) then
make yd4 = 0
else
make yd4 = state.dt(v2)
endif
make yout5 = cin * yd4
make yout6 = gin * v2
make yout7 = yout5 + yout6
make curr.on(in) = yout7
endanalog
endmodel
";
        let mut m = machine(src);
        // DC: only the conductive part.
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[1.0], &mut i);
        assert!((i[0] - 1e-6).abs() < 1e-18);
        // Accept the OP at 1 V; the shadow pass seeds v_prev = 1.0.
        m.accept(&dc_ctx(), &[1.0]);
        assert_eq!(m.committed_var("v2"), Some(1.0));
        // Transient step to 2 V over 1 µs: derivative = 1e6 V/s,
        // capacitive current = 1e-9 · 1e6 = 1 mA plus 2 µA conductive.
        let ctx = tran_ctx(1e-6, 1e-6);
        m.eval(&ctx, &[2.0], &mut i);
        assert!((i[0] - (1e-3 + 2e-6)).abs() < 1e-9, "i = {}", i[0]);
    }

    #[test]
    fn derivative_is_zero_in_dc_even_after_steps() {
        let mut m = machine(
            "model d pin (a)\nanalog\nif (mode=dc) then\nmake y = 0\nelse\nmake y = state.dt(volt.value(a))\nendif\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[5.0], &mut i);
        assert_eq!(i[0], 0.0);
    }

    #[test]
    fn state_delay_reads_committed() {
        let mut m = machine(
            "model d pin (a)\nanalog\nmake y = volt.value(a)\nmake z = state.delay(y)\nmake curr.on(a) = z\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        // Before any accept, delay reads 0.
        m.eval(&tran_ctx(1e-6, 1e-6), &[3.0], &mut i);
        assert_eq!(i[0], 0.0);
        m.accept(&tran_ctx(1e-6, 1e-6), &[3.0]);
        // Now the committed value of y is 3.
        m.eval(&tran_ctx(2e-6, 1e-6), &[7.0], &mut i);
        assert_eq!(i[0], 3.0);
    }

    #[test]
    fn slew_rate_pattern_dc_passthrough() {
        // The generated slew-rate code: at DC, y must equal u thanks to the
        // 1e9 pseudo-step.
        let src = "\
model slew pin (a) param (srise=1e6, sfall=1e6)
analog
make u = volt.value(a)
make ylast = state.delay(y)
make slope = (u - ylast) / timestep
make slim = limit(slope, (-sfall), srise)
make y = ylast + slim * timestep
make curr.on(a) = 0
endanalog
endmodel
";
        let mut m = machine(src);
        m.accept(&dc_ctx(), &[2.5]);
        assert!((m.committed_var("y").unwrap() - 2.5).abs() < 1e-12);
        // A big step is slope-limited: from 2.5 V target 10 V in 1 µs with
        // 1e6 V/s → only 1 V of movement.
        m.accept(&tran_ctx(1e-6, 1e-6), &[10.0]);
        assert!((m.committed_var("y").unwrap() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn integral_accumulates() {
        let mut m = machine(
            "model i pin (a)\nanalog\nmake y = state.idt(volt.value(a))\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        m.accept(&dc_ctx(), &[1.0]);
        // Integrate a constant 1 V for 3 steps of 1 ms: integral = 3e-3.
        m.accept(&tran_ctx(1e-3, 1e-3), &[1.0]);
        m.accept(&tran_ctx(2e-3, 1e-3), &[1.0]);
        m.accept(&tran_ctx(3e-3, 1e-3), &[1.0]);
        let mut i = [0.0];
        m.eval(&tran_ctx(4e-3, 1e-3), &[1.0], &mut i);
        // committed integral (3e-3) + half-step extension (1e-3).
        assert!((i[0] - 4e-3).abs() < 1e-12, "i = {}", i[0]);
    }

    #[test]
    fn delayt_interpolates_history() {
        let mut m = machine(
            "model d pin (a)\nanalog\nmake y = volt.value(a)\nmake z = state.delayt(y, 2e-3)\nmake curr.on(a) = z\nendanalog\nendmodel\n",
        );
        m.accept(&dc_ctx(), &[0.0]);
        // Ramp: v = t/1e-3 volts at 1 ms steps.
        for k in 1..=5 {
            let t = k as f64 * 1e-3;
            m.accept(&tran_ctx(t, 1e-3), &[k as f64]);
        }
        let mut i = [0.0];
        // At t = 6 ms (eval), delayed 2 ms → value at t = 4 ms = 4.0.
        m.eval(&tran_ctx(6e-3, 1e-3), &[6.0], &mut i);
        assert!((i[0] - 4.0).abs() < 1e-9, "i = {}", i[0]);
    }

    #[test]
    fn conditional_on_signal() {
        let mut m = machine(
            "model c pin (a)\nanalog\nmake v = volt.value(a)\nif (v > 1) then\nmake y = 10\nelse\nmake y = -10\nendif\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[2.0], &mut i);
        assert_eq!(i[0], 10.0);
        m.eval(&dc_ctx(), &[0.5], &mut i);
        assert_eq!(i[0], -10.0);
    }

    #[test]
    fn multi_pin_imposition() {
        let mut m = machine(
            "model two pin (a, b)\nanalog\nmake va = volt.value(a)\nmake curr.on(a) = va\nmake curr.on(b) = -va\nendanalog\nendmodel\n",
        );
        let mut i = [0.0, 0.0];
        m.eval(&dc_ctx(), &[1.5, 0.0], &mut i);
        assert_eq!(i[0], 1.5);
        assert_eq!(i[1], -1.5);
    }

    #[test]
    fn imposition_accumulates() {
        let mut m = machine(
            "model acc pin (a)\nanalog\nmake curr.on(a) = 1\nmake curr.on(a) = 2\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[0.0], &mut i);
        assert_eq!(i[0], 3.0);
    }

    #[test]
    fn eval_is_pure() {
        let mut m = machine(
            "model p pin (a)\nanalog\nmake y = state.dt(volt.value(a))\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        m.accept(&dc_ctx(), &[1.0]);
        let ctx = tran_ctx(1e-6, 1e-6);
        let mut i1 = [0.0];
        let mut i2 = [0.0];
        m.eval(&ctx, &[2.0], &mut i1);
        // Repeated evaluation at the same point gives the same answer (no
        // hidden state advancement).
        m.eval(&ctx, &[2.0], &mut i2);
        assert_eq!(i1, i2);
    }
}

#[cfg(test)]
mod jacobian_tests {
    use super::*;
    use crate::compile::compile;
    use std::collections::BTreeMap;

    fn tran_ctx(time: f64, dt: f64) -> EvalCtx {
        EvalCtx {
            mode_dc: false,
            time,
            dt,
            temperature: 300.15,
        }
    }

    /// A model exercising every differentiable construct.
    const KITCHEN_SINK: &str = "\
model sink pin (a, b, c) param (g=1e-3, k=0.5)
analog
make va = volt.value(a)
make vb = volt.value(b)
make vc = volt.value(c)
make p1 = g * (va - vb) + k * va * vb
make p2 = limit(p1, -1e-3, 1e-3)
make p3 = tanh(va) + sin(vb) * exp(-vc) + sqrt(abs(va) + 1.0)
make p4 = max(va, vb) + min(vb, vc) + pow(abs(vc) + 1.0, 2.0)
make p5 = state.dt(va) * 1e-9 + state.idt(vb) * 1e-3
make p6 = state.delay(p4)
make curr.on(a) = p2 + 1e-6 * p3
make curr.on(b) = 1e-6 * p4 - p2
make curr.on(c) = 1e-6 * (p5 + p6)
endanalog
endmodel
";

    /// AD and finite differences must agree everywhere (to FD accuracy).
    #[test]
    fn analytic_jacobian_matches_finite_differences() {
        let model = compile(KITCHEN_SINK).unwrap();
        let mut m = model.instantiate(&BTreeMap::new()).unwrap();
        // Give the state some history so dt/idt/delay are non-trivial.
        m.accept(&tran_ctx(1e-6, 1e-6), &[0.3, -0.2, 0.1]);
        let ctx = tran_ctx(2e-6, 1e-6);
        // Test points avoid the non-differentiable kinks (abs at 0,
        // min/max ties, limiter boundaries), where one-sided AD
        // subgradients and central finite differences legitimately differ.
        for v in [
            [0.5, -0.4, 0.2],
            [-1.0, 1.0, 0.3],
            [2.0, 1.5, 2.5],
            [0.1, 0.2, 0.35],
            [-0.1, 0.7, -3.0],
        ] {
            let mut i_ad = [0.0; 3];
            let mut jac = [0.0; 9];
            assert!(m.eval_with_jacobian(&ctx, &v, &mut i_ad, &mut jac));
            // Values match the scalar pass exactly.
            let mut i_scalar = [0.0; 3];
            m.eval(&ctx, &v, &mut i_scalar);
            for k in 0..3 {
                assert!(
                    (i_ad[k] - i_scalar[k]).abs() <= 1e-15 * i_scalar[k].abs().max(1.0),
                    "value mismatch at pin {k}: {} vs {}",
                    i_ad[k],
                    i_scalar[k]
                );
            }
            // Jacobian matches central finite differences.
            for j in 0..3 {
                let h = 1e-6;
                let mut vp = v;
                vp[j] += h;
                let mut ip = [0.0; 3];
                m.eval(&ctx, &vp, &mut ip);
                let mut vm = v;
                vm[j] -= h;
                let mut im = [0.0; 3];
                m.eval(&ctx, &vm, &mut im);
                for k in 0..3 {
                    let fd = (ip[k] - im[k]) / (2.0 * h);
                    let ad = jac[k * 3 + j];
                    let tol = 1e-5 * fd.abs().max(1e-9);
                    assert!(
                        (ad - fd).abs() <= tol,
                        "jacobian mismatch at v={v:?} [{k}][{j}]: ad={ad:.6e}, fd={fd:.6e}"
                    );
                }
            }
        }
    }

    /// Selections where a clamp and an if-chain (or `f64::min` and a `<=`
    /// test) can disagree: degenerate `limit` bounds, a NaN operand and
    /// `+0`/`-0` ties (the reciprocals expose the sign of a zero).
    const SELECTION_EDGES: &str = "\
model edges pin (a, b, c, d, e)
analog
make v = volt.value(a)
make w = volt.value(b)
make curr.on(a) = limit(v, 1, -1)
make curr.on(b) = max(v, w / 0)
make curr.on(c) = 1 / min(v, -v)
make curr.on(d) = 1 / max(-v, v)
make curr.on(e) = limit(0, 1, -1) + max(0, 0 / 0)
endanalog
endmodel
";

    /// The value lane and the dual lane compute one value, bit for bit,
    /// and the dual lane carries the tangent of the operand it selected.
    #[test]
    fn lanes_agree_bitwise_on_selection_edges() {
        let model = compile(SELECTION_EDGES).unwrap();
        let mut m = model.instantiate(&BTreeMap::new()).unwrap();
        let ctx = tran_ctx(1e-6, 1e-6);
        for v in [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [-0.0, -0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [-3.0, -0.0, 0.0, 0.0, 0.0],
        ] {
            let mut value = [0.0; 5];
            m.eval(&ctx, &v, &mut value);
            let mut dual = [0.0; 5];
            let mut jac = [0.0; 25];
            assert!(m.eval_with_jacobian(&ctx, &v, &mut dual, &mut jac));
            assert_eq!(value.map(f64::to_bits), dual.map(f64::to_bits), "v={v:?}");
            // limit(v, 1, -1) is hi = -1 whatever v is: no dependence.
            assert_eq!(value[0], -1.0);
            assert_eq!(jac[..5], [0.0; 5]);
            // max(v, w / 0) with w = ±0 is max(v, NaN): v, tangent included.
            assert_eq!(value[1], v[0]);
            assert_eq!(jac[5..10], [1.0, 0.0, 0.0, 0.0, 0.0]);
            assert_eq!(value[4], -1.0);
        }
        // Ties keep the first operand: min(+0, -0) = +0, max(-0, +0) = -0.
        let mut value = [0.0; 5];
        m.eval(&ctx, &[0.0; 5], &mut value);
        assert_eq!(value[2], f64::INFINITY);
        assert_eq!(value[3], f64::NEG_INFINITY);
    }

    /// The full comparator model supports the analytic path (7 pins ≤ 8).
    #[test]
    fn comparator_model_uses_analytic_jacobian() {
        // Generated FAS of the paper input stage (1 pin) as a cheap proxy,
        // plus a synthetic 9-pin model that must fall back.
        let model = compile(
            "model small pin (a)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = 1e-3 * v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let mut m = model.instantiate(&BTreeMap::new()).unwrap();
        let mut i = [0.0];
        let mut jac = [0.0];
        let ctx = tran_ctx(0.0, 1e-6);
        assert!(m.eval_with_jacobian(&ctx, &[2.0], &mut i, &mut jac));
        assert!((i[0] - 2e-3).abs() < 1e-15);
        assert!((jac[0] - 1e-3).abs() < 1e-12);

        let many = compile(
            "model wide pin (p0,p1,p2,p3,p4,p5,p6,p7,p8)\nanalog\nmake v = volt.value(p0)\nmake curr.on(p0) = v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let mut w = many.instantiate(&BTreeMap::new()).unwrap();
        let mut i9 = [0.0; 9];
        let mut jac9 = [0.0; 81];
        assert!(!w.eval_with_jacobian(&ctx, &[0.0; 9], &mut i9, &mut jac9));
    }
}
