//! Forward-mode automatic differentiation for the FAS interpreter.
//!
//! ELDO executed *compiled* models with analytic derivatives; the
//! interpreter's equivalent is a dual-number evaluation pass that produces
//! the model's pin currents **and** the exact Jacobian ∂i/∂v in a single
//! walk, instead of the `pins + 1` finite-difference evaluations the
//! generic bridge needs. For the 7-pin comparator this cuts the per-Newton-
//! iteration interpreter work by ~8×, which is what makes the paper's §5
//! behavioural-speedup ratio reachable.

/// `min(a, b)` as every FAS evaluation lane computes it: `b` when it is
/// strictly smaller or `a` is NaN, otherwise `a`. This is `f64::min`
/// except that a tie (including `+0` against `-0`) always keeps `a`, so
/// the result is fully specified and the value lane, the dual lane and
/// the bytecode constant folder agree bit for bit.
#[inline]
pub fn min(a: f64, b: f64) -> f64 {
    if min_takes_rhs(a, b) {
        b
    } else {
        a
    }
}

/// `max(a, b)`, the mirror of [`min`]: `b` when it is strictly larger or
/// `a` is NaN, otherwise `a`.
#[inline]
pub fn max(a: f64, b: f64) -> f64 {
    if max_takes_rhs(a, b) {
        b
    } else {
        a
    }
}

/// `limit(x, lo, hi)` = `min(max(x, lo), hi)`. With degenerate bounds
/// (`lo > hi`) the result is `hi`, in every lane.
#[inline]
pub fn limit(x: f64, lo: f64, hi: f64) -> f64 {
    min(max(x, lo), hi)
}

#[inline]
fn min_takes_rhs(a: f64, b: f64) -> bool {
    b < a || a.is_nan()
}

#[inline]
fn max_takes_rhs(a: f64, b: f64) -> bool {
    b > a || a.is_nan()
}

/// Maximum number of simultaneous tangents (pins) the dual pass supports;
/// models with more pins fall back to finite differences.
pub const MAX_TANGENTS: usize = 8;

/// A dual number: value plus a fixed-width tangent vector.
///
/// The tangent lanes correspond to the model's pins; lane `j` carries
/// ∂value/∂v_pin_j. Lanes beyond the active pin count stay zero and cost
/// only predictable SIMD-friendly arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual {
    /// Value part.
    pub v: f64,
    /// Tangent vector.
    pub d: [f64; MAX_TANGENTS],
}

impl Dual {
    /// A constant (zero tangent).
    #[inline]
    pub fn constant(v: f64) -> Dual {
        Dual {
            v,
            d: [0.0; MAX_TANGENTS],
        }
    }

    /// The `j`-th independent variable with value `v`.
    #[inline]
    pub fn variable(v: f64, j: usize) -> Dual {
        let mut d = [0.0; MAX_TANGENTS];
        d[j] = 1.0;
        Dual { v, d }
    }

    /// Scales the tangent vector by `k` and maps the value by `f(v)`:
    /// the chain rule for a unary function with derivative `k` at `v`.
    #[inline]
    pub fn chain(self, value: f64, derivative: f64) -> Dual {
        let mut d = self.d;
        for x in &mut d {
            *x *= derivative;
        }
        Dual { v: value, d }
    }

    /// [`min`] of the values, carrying the tangent of the operand it
    /// selects.
    #[inline]
    pub fn min(self, rhs: Dual) -> Dual {
        if min_takes_rhs(self.v, rhs.v) {
            rhs
        } else {
            self
        }
    }

    /// [`max`] of the values, carrying the tangent of the operand it
    /// selects.
    #[inline]
    pub fn max(self, rhs: Dual) -> Dual {
        if max_takes_rhs(self.v, rhs.v) {
            rhs
        } else {
            self
        }
    }

    /// [`limit`] of the values, carrying the tangent of the operand it
    /// selects.
    #[inline]
    pub fn limit(self, lo: Dual, hi: Dual) -> Dual {
        self.max(lo).min(hi)
    }

    /// Scales every tangent by `k` (value unchanged semantics handled by
    /// the caller).
    #[inline]
    pub fn scale_tangent(self, k: f64) -> Dual {
        let mut d = self.d;
        for x in &mut d {
            *x *= k;
        }
        Dual { v: self.v, d }
    }
}

impl std::ops::Neg for Dual {
    type Output = Dual;

    #[inline]
    fn neg(self) -> Dual {
        let mut d = self.d;
        for x in &mut d {
            *x = -*x;
        }
        Dual { v: -self.v, d }
    }
}

impl std::ops::Add for Dual {
    type Output = Dual;

    #[inline]
    fn add(self, rhs: Dual) -> Dual {
        let mut d = self.d;
        for (a, b) in d.iter_mut().zip(rhs.d) {
            *a += b;
        }
        Dual {
            v: self.v + rhs.v,
            d,
        }
    }
}

impl std::ops::Sub for Dual {
    type Output = Dual;

    #[inline]
    fn sub(self, rhs: Dual) -> Dual {
        let mut d = self.d;
        for (a, b) in d.iter_mut().zip(rhs.d) {
            *a -= b;
        }
        Dual {
            v: self.v - rhs.v,
            d,
        }
    }
}

impl std::ops::Mul for Dual {
    type Output = Dual;

    /// Product rule.
    #[inline]
    fn mul(self, rhs: Dual) -> Dual {
        let mut d = [0.0; MAX_TANGENTS];
        #[allow(clippy::needless_range_loop)]
        for i in 0..MAX_TANGENTS {
            d[i] = self.d[i] * rhs.v + self.v * rhs.d[i];
        }
        Dual {
            v: self.v * rhs.v,
            d,
        }
    }
}

impl std::ops::Div for Dual {
    type Output = Dual;

    /// Quotient rule.
    #[inline]
    fn div(self, rhs: Dual) -> Dual {
        let inv = 1.0 / rhs.v;
        let v = self.v * inv;
        let mut d = [0.0; MAX_TANGENTS];
        #[allow(clippy::needless_range_loop)]
        for i in 0..MAX_TANGENTS {
            d[i] = (self.d[i] - v * rhs.d[i]) * inv;
        }
        Dual { v, d }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(v: f64) -> Dual {
        Dual::variable(v, 0)
    }

    #[test]
    fn constants_and_variables() {
        let c = Dual::constant(3.0);
        assert_eq!(c.v, 3.0);
        assert!(c.d.iter().all(|&d| d == 0.0));
        let v = Dual::variable(2.0, 3);
        assert_eq!(v.d[3], 1.0);
        assert_eq!(v.d[0], 0.0);
    }

    #[test]
    fn arithmetic_rules() {
        let a = x(2.0);
        let b = Dual::constant(3.0);
        assert_eq!((a + b).v, 5.0);
        assert_eq!((a + b).d[0], 1.0);
        assert_eq!((a - b).d[0], 1.0);
        assert_eq!((a * b).v, 6.0);
        assert_eq!((a * b).d[0], 3.0);
        // d/dx (x²) = 2x.
        assert_eq!((a * a).d[0], 4.0);
        // d/dx (1/x) = -1/x².
        let inv = Dual::constant(1.0) / a;
        assert!((inv.d[0] + 0.25).abs() < 1e-15);
        assert_eq!((-a).d[0], -1.0);
    }

    #[test]
    fn quotient_rule() {
        // d/dx (x / (x+1)) = 1/(x+1)².
        let a = x(2.0);
        let q = a / (a + Dual::constant(1.0));
        assert!((q.d[0] - 1.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn chain_rule_helper() {
        // sin(x) at x = 0.5.
        let a = x(0.5);
        let s = a.chain(a.v.sin(), a.v.cos());
        assert!((s.v - 0.5f64.sin()).abs() < 1e-15);
        assert!((s.d[0] - 0.5f64.cos()).abs() < 1e-15);
    }

    #[test]
    fn independent_lanes() {
        let a = Dual::variable(2.0, 0);
        let b = Dual::variable(3.0, 1);
        let p = a * b;
        assert_eq!(p.d[0], 3.0);
        assert_eq!(p.d[1], 2.0);
        assert_eq!(p.d[2], 0.0);
    }
}
