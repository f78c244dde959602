//! The gabm benchmark: four seeded workloads over the simulation and
//! characterization stack, timed from outside through the layers' public
//! functions. `src/main.rs` drives a run; README.md says what each
//! workload and metric is for.

pub mod inputs;
pub mod ops;
pub mod probe;
pub mod split;

pub use inputs::{input_list, Input, Workload, LIST_LEN};
pub use ops::{Bench, Counts, OpOutcome};
