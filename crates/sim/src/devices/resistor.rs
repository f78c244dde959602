//! Linear resistor.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Stamper};
use crate::SimError;
use gabm_numeric::Complex64;

/// A two-terminal linear resistor.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    conductance: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] unless `ohms > 0` and finite.
    pub fn new(name: &str, a: NodeId, b: NodeId, ohms: f64) -> Result<Self, SimError> {
        if !(ohms > 0.0 && ohms.is_finite()) {
            return Err(SimError::BadParameter {
                device: name.to_string(),
                message: format!("resistance must be positive and finite, got {ohms}"),
            });
        }
        Ok(Resistor {
            name: name.to_string(),
            a,
            b,
            conductance: 1.0 / ohms,
        })
    }

    /// Resistance in ohms.
    pub fn ohms(&self) -> f64 {
        1.0 / self.conductance
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&mut self, s: &mut Stamper) {
        s.stamp_conductance(self.a, self.b, self.conductance);
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        s.stamp_admittance(self.a, self.b, Complex64::from_real(self.conductance));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Mode;

    #[test]
    fn rejects_bad_values() {
        let a = NodeId::from_index(1);
        let g = NodeId::ground();
        assert!(Resistor::new("R", a, g, 0.0).is_err());
        assert!(Resistor::new("R", a, g, -5.0).is_err());
        assert!(Resistor::new("R", a, g, f64::INFINITY).is_err());
        assert!(Resistor::new("R", a, g, f64::NAN).is_err());
    }

    #[test]
    fn stamps_conductance() {
        let a = NodeId::from_index(1);
        let mut r = Resistor::new("R1", a, NodeId::ground(), 100.0).unwrap();
        assert_eq!(r.ohms(), 100.0);
        let mut s = Stamper::new(1, 0, Mode::Dc);
        r.stamp(&mut s);
        let (m, _) = s.finish();
        assert!((m[(0, 0)] - 0.01).abs() < 1e-15);
    }

    #[test]
    fn ac_stamp_is_real() {
        let a = NodeId::from_index(1);
        let mut r = Resistor::new("R1", a, NodeId::ground(), 50.0).unwrap();
        let mut s = AcStamper::new(1, 0, 1.0e3);
        r.stamp_ac(&mut s);
        let (m, _) = s.finish();
        assert_eq!(m.get(0, 0), Complex64::from_real(0.02));
    }
}
