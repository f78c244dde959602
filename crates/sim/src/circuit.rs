//! The netlist: named nodes plus a device list.

use crate::analysis::ac::{AcResult, AcSpec};
use crate::analysis::dc::DcResult;
use crate::analysis::op::OpResult;
use crate::analysis::tran::{TranResult, TranSpec};
use crate::device::Device;
use crate::devices::behavioral::{BehavioralDevice, BehavioralModel};
use crate::devices::capacitor::Capacitor;
use crate::devices::controlled::{Cccs, Ccvs, Vccs, Vcvs};
use crate::devices::diode::{Diode, DiodeParams};
use crate::devices::inductor::Inductor;
use crate::devices::isource::Isource;
use crate::devices::mosfet::{MosType, Mosfet, MosfetParams};
use crate::devices::resistor::Resistor;
use crate::devices::switch::VSwitch;
use crate::devices::vsource::Vsource;
use crate::devices::SourceWave;
use crate::options::Options;
use crate::SimError;
use std::collections::HashMap;

/// Identifier of a circuit node.
///
/// Node 0 is always ground. Ids are created by [`Circuit::node`] and are only
/// meaningful for the circuit that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The ground node (node 0).
    pub fn ground() -> NodeId {
        NodeId(0)
    }

    /// `true` if this is the ground node.
    pub fn is_ground(&self) -> bool {
        self.0 == 0
    }

    /// Raw index (0 = ground, 1.. = circuit nodes).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Builds a `NodeId` from a raw index. Prefer [`Circuit::node`]; this
    /// exists for tests and for results processing.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ground() {
            write!(f, "0")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// A circuit under construction and analysis.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    name_to_node: HashMap<String, NodeId>,
    devices: Vec<Box<dyn Device>>,
    device_names: HashMap<String, usize>,
    n_branches: usize,
    /// Simulator options used by all analyses on this circuit.
    pub options: Options,
    /// Cached solver workspace: the matrix pattern, the sparse LU's
    /// symbolic analysis and pivot order, and all buffers survive across
    /// Newton solves and time steps, so iterations with an unchanged
    /// pattern only pay a numeric refactorization (see
    /// [`Options::reuse_lu`]).
    pub(crate) solver: Option<crate::analysis::engine::SolverWorkspace>,
}

impl Circuit {
    /// The ground node, shared by every circuit.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit with default [`Options`].
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["0".to_string()],
            name_to_node: HashMap::new(),
            devices: Vec::new(),
            device_names: HashMap::new(),
            n_branches: 0,
            options: Options::default(),
            solver: None,
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"`, `"gnd"` and `"GND"` alias ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Circuit::GROUND;
        }
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Circuit::GROUND);
        }
        self.name_to_node.get(name).copied()
    }

    /// Name of a node (for reporting).
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Number of non-ground nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Number of extra branch-current unknowns.
    pub fn n_branches(&self) -> usize {
        self.n_branches
    }

    /// Total MNA unknowns (node voltages + branch currents).
    pub fn n_unknowns(&self) -> usize {
        self.n_nodes() + self.n_branches
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Adds an already-constructed device, assigning its branch unknowns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateDevice`] if the instance name is taken.
    pub fn add_device(&mut self, mut device: Box<dyn Device>) -> Result<(), SimError> {
        let name = device.name().to_string();
        if self.device_names.contains_key(&name) {
            return Err(SimError::DuplicateDevice(name));
        }
        let nb = device.num_branches();
        device.set_branch_base(self.n_branches);
        self.n_branches += nb;
        self.device_names.insert(name, self.devices.len());
        self.devices.push(device);
        Ok(())
    }

    /// Mutable access to the device list (used by the analyses).
    pub(crate) fn devices_mut(&mut self) -> &mut [Box<dyn Device>] {
        &mut self.devices
    }

    /// Shared access to the device list.
    pub fn devices(&self) -> &[Box<dyn Device>] {
        &self.devices
    }

    /// Index of the named device.
    pub(crate) fn device_index(&self, name: &str) -> Option<usize> {
        self.device_names.get(name).copied()
    }

    /// `true` if any device is nonlinear.
    pub fn is_nonlinear(&self) -> bool {
        self.devices.iter().any(|d| d.is_nonlinear())
    }

    // ------------------------------------------------------------------
    // Convenience constructors for the primitive devices.
    // ------------------------------------------------------------------

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] for non-positive resistance;
    /// [`SimError::DuplicateDevice`] on a name clash.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), SimError> {
        self.add_device(Box::new(Resistor::new(name, a, b, ohms)?))
    }

    /// Adds a capacitor (farads).
    ///
    /// Accepts any non-negative capacitance; a zero capacitor is a no-op.
    pub fn add_capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) {
        let _ = self.add_device(Box::new(Capacitor::new(name, a, b, farads)));
    }

    /// Adds an inductor (henries). Introduces one branch unknown.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] for non-positive inductance.
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), SimError> {
        self.add_device(Box::new(Inductor::new(name, a, b, henries)?))
    }

    /// Adds an independent voltage source from `plus` to `minus`.
    pub fn add_vsource(&mut self, name: &str, plus: NodeId, minus: NodeId, wave: SourceWave) {
        let _ = self.add_device(Box::new(Vsource::new(name, plus, minus, wave)));
    }

    /// Adds an independent current source driving current from `plus`
    /// through the source into `minus`.
    pub fn add_isource(&mut self, name: &str, plus: NodeId, minus: NodeId, wave: SourceWave) {
        let _ = self.add_device(Box::new(Isource::new(name, plus, minus, wave)));
    }

    /// Adds a voltage-controlled voltage source (gain `mu`).
    pub fn add_vcvs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_m: NodeId,
        ctl_p: NodeId,
        ctl_m: NodeId,
        mu: f64,
    ) {
        let _ = self.add_device(Box::new(Vcvs::new(name, out_p, out_m, ctl_p, ctl_m, mu)));
    }

    /// Adds a voltage-controlled current source (transconductance `gm`).
    pub fn add_vccs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_m: NodeId,
        ctl_p: NodeId,
        ctl_m: NodeId,
        gm: f64,
    ) {
        let _ = self.add_device(Box::new(Vccs::new(name, out_p, out_m, ctl_p, ctl_m, gm)));
    }

    /// Adds a current-controlled current source. The controlling current is
    /// that of the named voltage source (by its branch), SPICE-style.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDevice`] if the controlling source is absent.
    pub fn add_cccs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_m: NodeId,
        vsource_name: &str,
        gain: f64,
    ) -> Result<(), SimError> {
        let branch = self.branch_of_vsource(vsource_name)?;
        self.add_device(Box::new(Cccs::new(name, out_p, out_m, branch, gain)))
    }

    /// Adds a current-controlled voltage source (transresistance `rm`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDevice`] if the controlling source is absent.
    pub fn add_ccvs(
        &mut self,
        name: &str,
        out_p: NodeId,
        out_m: NodeId,
        vsource_name: &str,
        rm: f64,
    ) -> Result<(), SimError> {
        let branch = self.branch_of_vsource(vsource_name)?;
        self.add_device(Box::new(Ccvs::new(name, out_p, out_m, branch, rm)))
    }

    /// Adds a diode (anode, cathode).
    pub fn add_diode(&mut self, name: &str, anode: NodeId, cathode: NodeId, params: DiodeParams) {
        let _ = self.add_device(Box::new(Diode::new(name, anode, cathode, params)));
    }

    /// Adds a level-1 MOSFET (drain, gate, source, bulk).
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] for non-positive `W`/`L`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosfetParams,
    ) -> Result<(), SimError> {
        self.add_device(Box::new(Mosfet::new(name, mos_type, d, g, s, b, params)?))
    }

    /// Adds a smooth voltage-controlled switch.
    #[allow(clippy::too_many_arguments)]
    pub fn add_vswitch(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ctl_p: NodeId,
        ctl_m: NodeId,
        v_threshold: f64,
        r_on: f64,
        r_off: f64,
    ) {
        let _ = self.add_device(Box::new(VSwitch::new(
            name,
            a,
            b,
            ctl_p,
            ctl_m,
            v_threshold,
            r_on,
            r_off,
        )));
    }

    /// Wraps a behavioural model (e.g. a compiled FAS program) as a device
    /// connected to the given circuit nodes, in pin order.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] if `pins.len()` does not match the model's
    /// pin count; [`SimError::DuplicateDevice`] on a name clash.
    pub fn add_behavioral(
        &mut self,
        name: &str,
        pins: &[NodeId],
        model: Box<dyn BehavioralModel>,
    ) -> Result<(), SimError> {
        self.add_device(Box::new(BehavioralDevice::new(name, pins, model)?))
    }

    fn branch_of_vsource(&self, name: &str) -> Result<usize, SimError> {
        let idx = self
            .device_index(name)
            .ok_or_else(|| SimError::UnknownDevice(name.to_string()))?;
        self.devices[idx]
            .branch_index()
            .ok_or_else(|| SimError::UnknownDevice(format!("{name} has no branch current")))
    }

    // ------------------------------------------------------------------
    // Analyses (thin wrappers over the `analysis` module).
    // ------------------------------------------------------------------

    /// Solves the DC operating point.
    ///
    /// # Errors
    ///
    /// [`SimError::NoConvergence`] or [`SimError::SingularMatrix`] on solver
    /// failure.
    pub fn op(&mut self) -> Result<OpResult, SimError> {
        crate::analysis::op::solve_op(self)
    }

    /// Sweeps the DC value of the named independent source.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDevice`] for a bad source name, or solver errors.
    pub fn dc_sweep(
        &mut self,
        source: &str,
        from: f64,
        to: f64,
        step: f64,
    ) -> Result<DcResult, SimError> {
        crate::analysis::dc::sweep(self, source, from, to, step)
    }

    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// Solver errors, or [`SimError::TimestepTooSmall`] when the step
    /// controller cannot recover.
    pub fn tran(&mut self, spec: &TranSpec) -> Result<TranResult, SimError> {
        crate::analysis::tran::solve_tran(self, spec)
    }

    /// Runs an AC small-signal analysis about the last operating point.
    ///
    /// # Errors
    ///
    /// Solver errors from the OP pre-solve or the complex solves.
    pub fn ac(&mut self, spec: &AcSpec) -> Result<AcResult, SimError> {
        crate::analysis::ac::solve_ac(self, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert!(Circuit::GROUND.is_ground());
    }

    #[test]
    fn node_creation_is_idempotent() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.n_nodes(), 1);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zz"), None);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let err = c.add_resistor("R1", a, Circuit::GROUND, 2.0).unwrap_err();
        assert!(matches!(err, SimError::DuplicateDevice(_)));
    }

    #[test]
    fn branch_allocation() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
        c.add_inductor("L1", a, b, 1e-3).unwrap();
        assert_eq!(c.n_branches(), 2);
        assert_eq!(c.n_unknowns(), 4);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId::ground().to_string(), "0");
        assert_eq!(NodeId::from_index(3).to_string(), "n3");
    }

    #[test]
    fn nonlinear_detection() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(!c.is_nonlinear());
        c.add_diode("D1", a, Circuit::GROUND, DiodeParams::default());
        assert!(c.is_nonlinear());
    }
}
