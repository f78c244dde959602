//! Semantic analysis and lowering to an index-resolved executable form.

use crate::ast::{BinOp, Cond, Expr, Model, RelOp, Stmt, UnaryOp};
use crate::parser::parse;
use crate::FasError;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One-argument intrinsic functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func1 {
    Sin,
    Cos,
    Exp,
    Ln,
    Abs,
    Sqrt,
    Tanh,
    Atan,
}

impl Func1 {
    /// Evaluates the intrinsic. Every consumer (interpreter, bytecode VM,
    /// constant folders) must call this so all layers agree bit for bit.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Func1::Sin => x.sin(),
            Func1::Cos => x.cos(),
            Func1::Exp => x.exp(),
            Func1::Ln => x.ln(),
            Func1::Abs => x.abs(),
            Func1::Sqrt => x.sqrt(),
            Func1::Tanh => x.tanh(),
            Func1::Atan => x.atan(),
        }
    }
}

/// Two-argument intrinsic functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func2 {
    Min,
    Max,
    Pow,
}

impl Func2 {
    /// Evaluates the intrinsic; `min`/`max` are [`crate::dual::min`] and
    /// [`crate::dual::max`], which the dual lane shares.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Func2::Min => crate::dual::min(a, b),
            Func2::Max => crate::dual::max(a, b),
            Func2::Pow => a.powf(b),
        }
    }
}

/// Index-resolved expression: the executable tree form the interpreter
/// walks and the bytecode compiler (`gabm-fasvm`) lowers further.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum CExpr {
    Num(f64),
    Var(usize),
    Param(usize),
    PinValue(usize),
    Time,
    Temp,
    TimeStep,
    Neg(Box<CExpr>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Call1(Func1, Box<CExpr>),
    Call2(Func2, Box<CExpr>, Box<CExpr>),
    Limit(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// `state.dt(arg)` — time derivative instance `inst`.
    Dt {
        inst: usize,
        arg: Box<CExpr>,
    },
    /// `state.delay(var)` — the committed value of `var`.
    Delay {
        var: usize,
    },
    /// `state.delayt(var, td)` — `var` delayed by `td` seconds.
    DelayT {
        inst: usize,
        var: usize,
        td: Box<CExpr>,
    },
    /// `state.idt(arg)` — running integral instance `inst`.
    Idt {
        inst: usize,
        arg: Box<CExpr>,
    },
}

/// Index-resolved condition.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum CCond {
    ModeIs(bool),
    Cmp(RelOp, CExpr, CExpr),
}

/// Index-resolved statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum CStmt {
    Set(usize, CExpr),
    Impose(usize, CExpr),
    If(CCond, Vec<CStmt>, Vec<CStmt>),
}

/// A compiled FAS model, ready to instantiate as a simulator device.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    pub(crate) name: String,
    pub(crate) pins: Vec<String>,
    pub(crate) params: Vec<(String, f64)>,
    pub(crate) var_names: Vec<String>,
    pub(crate) body: Vec<CStmt>,
    pub(crate) n_dt: usize,
    pub(crate) n_delayt: usize,
    pub(crate) n_idt: usize,
}

impl CompiledModel {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pin names in device-pin order.
    pub fn pins(&self) -> Vec<&str> {
        self.pins.iter().map(String::as_str).collect()
    }

    /// Parameter names and defaults.
    pub fn params(&self) -> &[(String, f64)] {
        &self.params
    }

    /// Variable names in slot order.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Lowered analog body.
    pub fn body(&self) -> &[CStmt] {
        &self.body
    }

    /// Number of `state.dt` instances.
    pub fn n_dt(&self) -> usize {
        self.n_dt
    }

    /// Number of `state.delayt` instances.
    pub fn n_delayt(&self) -> usize {
        self.n_delayt
    }

    /// Number of `state.idt` instances.
    pub fn n_idt(&self) -> usize {
        self.n_idt
    }

    /// Resolves parameter overrides to a dense value vector in
    /// declaration order. Shared by every backend that instantiates
    /// this model so override validation stays identical.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters.
    pub fn param_values(&self, overrides: &BTreeMap<String, f64>) -> Result<Vec<f64>, FasError> {
        let mut values: Vec<f64> = self.params.iter().map(|(_, v)| *v).collect();
        for (name, value) in overrides {
            match self.params.iter().position(|(n, _)| n == name) {
                Some(idx) => values[idx] = *value,
                None => {
                    return Err(FasError::Instantiate(format!(
                        "model {} has no parameter '{name}'",
                        self.name
                    )))
                }
            }
        }
        Ok(values)
    }

    /// Instantiates the model with parameter overrides.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters.
    pub fn instantiate(
        &self,
        overrides: &BTreeMap<String, f64>,
    ) -> Result<crate::machine::FasMachine, FasError> {
        let values = self.param_values(overrides)?;
        Ok(crate::machine::FasMachine::new(self.clone(), values))
    }
}

/// Parses and compiles a model file.
///
/// # Errors
///
/// Lexical, syntax or semantic errors.
pub fn compile(src: &str) -> Result<CompiledModel, FasError> {
    let model = parse(src)?;
    lower(model)
}

struct Lowerer {
    pins: HashMap<String, usize>,
    params: HashMap<String, usize>,
    vars: HashMap<String, usize>,
    var_names: Vec<String>,
}

const ACROSS_PREFIXES: [&str; 3] = ["volt", "omega", "temp"];
const THROUGH_PREFIXES: [&str; 3] = ["curr", "torque", "heat"];

fn lower(model: Model) -> Result<CompiledModel, FasError> {
    let mut pins = HashMap::new();
    for (i, p) in model.pins.iter().enumerate() {
        if pins.insert(p.clone(), i).is_some() {
            return Err(FasError::Semantic(format!("duplicate pin '{p}'")));
        }
    }
    let mut params = HashMap::new();
    for (i, (p, _)) in model.params.iter().enumerate() {
        if params.insert(p.clone(), i).is_some() {
            return Err(FasError::Semantic(format!("duplicate parameter '{p}'")));
        }
    }
    for builtin in ["time", "temp", "timestep", "mode"] {
        if params.contains_key(builtin) {
            return Err(FasError::Semantic(format!(
                "parameter '{builtin}' shadows a builtin"
            )));
        }
    }
    // Collect all assigned variables.
    let mut lw = Lowerer {
        pins,
        params,
        vars: HashMap::new(),
        var_names: Vec::new(),
    };
    collect_vars(&model.body, &mut lw)?;
    // Use-before-definition analysis (forward references allowed only in
    // state.delay / state.delayt).
    let mut defined: HashSet<usize> = HashSet::new();
    check_order(&model.body, &lw, &mut defined)?;
    // Lower.
    let body = lower_stmts(&model.body, &lw)?;
    Ok(CompiledModel {
        name: model.name,
        pins: model.pins,
        params: model.params,
        var_names: lw.var_names,
        body,
        n_dt: model.n_dt,
        n_delayt: model.n_delayt,
        n_idt: model.n_idt,
    })
}

fn collect_vars(stmts: &[Stmt], lw: &mut Lowerer) -> Result<(), FasError> {
    for stmt in stmts {
        match stmt {
            Stmt::Make { var, .. } => {
                if lw.params.contains_key(var) {
                    return Err(FasError::Semantic(format!(
                        "cannot assign to parameter '{var}'"
                    )));
                }
                if ["time", "temp", "timestep", "mode"].contains(&var.as_str()) {
                    return Err(FasError::Semantic(format!(
                        "cannot assign to builtin '{var}'"
                    )));
                }
                if !lw.vars.contains_key(var) {
                    lw.vars.insert(var.clone(), lw.var_names.len());
                    lw.var_names.push(var.clone());
                }
            }
            Stmt::Impose { .. } => {}
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_vars(then_branch, lw)?;
                collect_vars(else_branch, lw)?;
            }
        }
    }
    Ok(())
}

fn check_order(stmts: &[Stmt], lw: &Lowerer, defined: &mut HashSet<usize>) -> Result<(), FasError> {
    for stmt in stmts {
        match stmt {
            Stmt::Make { var, expr, .. } => {
                check_expr_order(expr, lw, defined)?;
                defined.insert(lw.vars[var]);
            }
            Stmt::Impose { expr, .. } => check_expr_order(expr, lw, defined)?,
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                if let Cond::Cmp(_, a, b) = cond {
                    check_expr_order(a, lw, defined)?;
                    check_expr_order(b, lw, defined)?;
                }
                let mut then_defined = defined.clone();
                check_order(then_branch, lw, &mut then_defined)?;
                let mut else_defined = defined.clone();
                check_order(else_branch, lw, &mut else_defined)?;
                // Only variables defined on both paths are definitely
                // available afterwards.
                for v in then_defined.intersection(&else_defined) {
                    defined.insert(*v);
                }
            }
        }
    }
    Ok(())
}

fn check_expr_order(expr: &Expr, lw: &Lowerer, defined: &HashSet<usize>) -> Result<(), FasError> {
    match expr {
        Expr::Num(_) | Expr::PinValue { .. } => Ok(()),
        Expr::Var(name) => {
            if lw.params.contains_key(name) || ["time", "temp", "timestep"].contains(&name.as_str())
            {
                return Ok(());
            }
            match lw.vars.get(name) {
                Some(id) if defined.contains(id) => Ok(()),
                Some(_) => Err(FasError::Semantic(format!(
                    "variable '{name}' used before it is assigned (forward references are only legal inside state.delay)"
                ))),
                None => Err(FasError::Semantic(format!("unknown identifier '{name}'"))),
            }
        }
        Expr::Unary(_, e) | Expr::StateDt { arg: e, .. } | Expr::StateIdt { arg: e, .. } => {
            check_expr_order(e, lw, defined)
        }
        Expr::Binary(_, a, b) => {
            check_expr_order(a, lw, defined)?;
            check_expr_order(b, lw, defined)
        }
        Expr::Call { args, .. } => {
            for a in args {
                check_expr_order(a, lw, defined)?;
            }
            Ok(())
        }
        Expr::StateDelay { var } | Expr::StateDelayT { var, .. } => {
            // Forward references read committed state: legal as long as the
            // variable is assigned *somewhere* in the model.
            if lw.vars.contains_key(var) {
                if let Expr::StateDelayT { td, .. } = expr {
                    check_expr_order(td, lw, defined)?;
                }
                Ok(())
            } else {
                Err(FasError::Semantic(format!(
                    "state.delay of unknown variable '{var}'"
                )))
            }
        }
    }
}

fn lower_stmts(stmts: &[Stmt], lw: &Lowerer) -> Result<Vec<CStmt>, FasError> {
    stmts.iter().map(|s| lower_stmt(s, lw)).collect()
}

fn lower_stmt(stmt: &Stmt, lw: &Lowerer) -> Result<CStmt, FasError> {
    match stmt {
        Stmt::Make { var, expr, .. } => Ok(CStmt::Set(lw.vars[var], lower_expr(expr, lw)?)),
        Stmt::Impose {
            quantity,
            pin,
            expr,
            ..
        } => {
            if !THROUGH_PREFIXES.contains(&quantity.as_str()) {
                return Err(FasError::Semantic(format!(
                    "'{quantity}.on' is not a through-quantity imposition (expected one of {THROUGH_PREFIXES:?})"
                )));
            }
            let pin_id = *lw
                .pins
                .get(pin)
                .ok_or_else(|| FasError::Semantic(format!("undeclared pin '{pin}'")))?;
            Ok(CStmt::Impose(pin_id, lower_expr(expr, lw)?))
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let ccond = match cond {
                Cond::ModeIs { dc } => CCond::ModeIs(*dc),
                Cond::Cmp(op, a, b) => CCond::Cmp(*op, lower_expr(a, lw)?, lower_expr(b, lw)?),
            };
            Ok(CStmt::If(
                ccond,
                lower_stmts(then_branch, lw)?,
                lower_stmts(else_branch, lw)?,
            ))
        }
    }
}

fn lower_expr(expr: &Expr, lw: &Lowerer) -> Result<CExpr, FasError> {
    Ok(match expr {
        Expr::Num(v) => CExpr::Num(*v),
        Expr::Var(name) => match name.as_str() {
            "time" => CExpr::Time,
            "temp" => CExpr::Temp,
            "timestep" => CExpr::TimeStep,
            _ => {
                if let Some(&p) = lw.params.get(name) {
                    CExpr::Param(p)
                } else if let Some(&v) = lw.vars.get(name) {
                    CExpr::Var(v)
                } else {
                    return Err(FasError::Semantic(format!("unknown identifier '{name}'")));
                }
            }
        },
        Expr::PinValue { quantity, pin } => {
            if !ACROSS_PREFIXES.contains(&quantity.as_str()) {
                return Err(FasError::Semantic(format!(
                    "'{quantity}.value' is not an across-quantity probe (expected one of {ACROSS_PREFIXES:?})"
                )));
            }
            let pin_id = *lw
                .pins
                .get(pin)
                .ok_or_else(|| FasError::Semantic(format!("undeclared pin '{pin}'")))?;
            CExpr::PinValue(pin_id)
        }
        Expr::Unary(UnaryOp::Neg, e) => CExpr::Neg(Box::new(lower_expr(e, lw)?)),
        Expr::Binary(op, a, b) => CExpr::Bin(
            *op,
            Box::new(lower_expr(a, lw)?),
            Box::new(lower_expr(b, lw)?),
        ),
        Expr::Call { func, args } => lower_call(func, args, lw)?,
        Expr::StateDt { inst, arg } => CExpr::Dt {
            inst: *inst,
            arg: Box::new(lower_expr(arg, lw)?),
        },
        Expr::StateDelay { var } => CExpr::Delay { var: lw.vars[var] },
        Expr::StateDelayT { inst, var, td } => CExpr::DelayT {
            inst: *inst,
            var: lw.vars[var],
            td: Box::new(lower_expr(td, lw)?),
        },
        Expr::StateIdt { inst, arg } => CExpr::Idt {
            inst: *inst,
            arg: Box::new(lower_expr(arg, lw)?),
        },
    })
}

fn lower_call(func: &str, args: &[Expr], lw: &Lowerer) -> Result<CExpr, FasError> {
    let arity_err = |want: usize| {
        Err(FasError::Semantic(format!(
            "function '{func}' takes {want} argument(s), got {}",
            args.len()
        )))
    };
    let f1 = |f: Func1, args: &[Expr], lw: &Lowerer| -> Result<CExpr, FasError> {
        Ok(CExpr::Call1(f, Box::new(lower_expr(&args[0], lw)?)))
    };
    let f2 = |f: Func2, args: &[Expr], lw: &Lowerer| -> Result<CExpr, FasError> {
        Ok(CExpr::Call2(
            f,
            Box::new(lower_expr(&args[0], lw)?),
            Box::new(lower_expr(&args[1], lw)?),
        ))
    };
    match func {
        "sin" | "cos" | "exp" | "ln" | "abs" | "sqrt" | "tanh" | "atan" => {
            if args.len() != 1 {
                return arity_err(1);
            }
            let f = match func {
                "sin" => Func1::Sin,
                "cos" => Func1::Cos,
                "exp" => Func1::Exp,
                "ln" => Func1::Ln,
                "abs" => Func1::Abs,
                "sqrt" => Func1::Sqrt,
                "tanh" => Func1::Tanh,
                _ => Func1::Atan,
            };
            f1(f, args, lw)
        }
        "min" | "max" | "pow" => {
            if args.len() != 2 {
                return arity_err(2);
            }
            let f = match func {
                "min" => Func2::Min,
                "max" => Func2::Max,
                _ => Func2::Pow,
            };
            f2(f, args, lw)
        }
        "limit" => {
            if args.len() != 3 {
                return arity_err(3);
            }
            Ok(CExpr::Limit(
                Box::new(lower_expr(&args[0], lw)?),
                Box::new(lower_expr(&args[1], lw)?),
                Box::new(lower_expr(&args[2], lw)?),
            ))
        }
        other => Err(FasError::Semantic(format!("unknown function '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(body: &str) -> String {
        format!("model m pin (a, b) param (g=1e-3)\nanalog\n{body}\nendanalog\nendmodel\n")
    }

    #[test]
    fn compiles_basic_model() {
        let m = compile(&wrap("make v = volt.value(a)\nmake curr.on(a) = g * v")).unwrap();
        assert_eq!(m.name(), "m");
        assert_eq!(m.pins(), ["a", "b"]);
        assert_eq!(m.params().len(), 1);
        assert_eq!(m.var_names, vec!["v"]);
    }

    #[test]
    fn undeclared_pin_rejected() {
        assert!(compile(&wrap("make v = volt.value(zz)")).is_err());
        assert!(compile(&wrap("make curr.on(zz) = 1")).is_err());
    }

    #[test]
    fn use_before_def_rejected() {
        let err = compile(&wrap("make x = y\nmake y = 1")).unwrap_err();
        assert!(err.to_string().contains("before"), "{err}");
    }

    #[test]
    fn forward_reference_in_delay_allowed() {
        assert!(compile(&wrap("make x = state.delay(y)\nmake y = x + 1")).is_ok());
    }

    #[test]
    fn delay_of_unknown_var_rejected() {
        assert!(compile(&wrap("make x = state.delay(zz)")).is_err());
    }

    #[test]
    fn branch_definition_rules() {
        // Defined in both branches ⇒ usable after.
        assert!(compile(&wrap(
            "if (mode=dc) then\nmake x = 0\nelse\nmake x = 1\nendif\nmake y = x"
        ))
        .is_ok());
        // Defined only in one branch ⇒ not definitely assigned.
        assert!(compile(&wrap("if (mode=dc) then\nmake x = 0\nendif\nmake y = x")).is_err());
    }

    #[test]
    fn parameter_assignment_rejected() {
        assert!(compile(&wrap("make g = 1")).is_err());
        assert!(compile(&wrap("make time = 1")).is_err());
    }

    #[test]
    fn bad_prefixes_rejected() {
        assert!(compile(&wrap("make v = curr.value(a)")).is_err());
        assert!(compile(&wrap("make volt.on(a) = 1")).is_err());
    }

    #[test]
    fn arity_checked() {
        assert!(compile(&wrap("make x = sin(1, 2)")).is_err());
        assert!(compile(&wrap("make x = max(1)")).is_err());
        assert!(compile(&wrap("make x = limit(1, 2)")).is_err());
        assert!(compile(&wrap("make x = frobnicate(1)")).is_err());
    }

    #[test]
    fn instantiate_with_overrides() {
        let m = compile(&wrap("make v = volt.value(a)\nmake curr.on(a) = g * v")).unwrap();
        let mut o = BTreeMap::new();
        o.insert("g".to_string(), 2e-3);
        assert!(m.instantiate(&o).is_ok());
        let mut bad = BTreeMap::new();
        bad.insert("zz".to_string(), 1.0);
        assert!(m.instantiate(&bad).is_err());
    }

    #[test]
    fn func_eval_helpers() {
        assert_eq!(Func1::Abs.apply(-2.0), 2.0);
        assert_eq!(Func2::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(Func2::Pow.apply(2.0, 3.0), 8.0);
        assert!((Func1::Tanh.apply(100.0) - 1.0).abs() < 1e-12);
    }
}
