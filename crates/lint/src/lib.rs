//! Static analysis for the GABM toolchain.
//!
//! `gabm-lint` runs diagnostics across the three representations a model
//! passes through:
//!
//! * **functional diagrams** — the §3.2 consistency rules (net drivers,
//!   port connections, dimension propagation) plus structural lints such
//!   as dead symbols, unused parameters, and algebraic loops with the full
//!   cycle path (§4.1);
//! * **lowered codegen IR** — dataflow over the ordered statement list
//!   every backend renders: use-before-definition, dead assignments, and
//!   constant-folding errors;
//! * **FAS source** — the same analyses applied to hand-written textual
//!   models (§4.2), located by line and column.
//!
//! Every finding carries a stable `GABM0xx` code, a severity, and a
//! location, and renders both human-readably and as JSON (see [`render`]).
//! The `gabm lint` command-line tool is a thin front end over
//! [`registry::lint_diagram`] and [`registry::lint_fas_source`].
//!
//! Beyond reporting, the linter *repairs*: diagnostics whose defect has a
//! single safe remedy carry a machine-applicable [`gabm_core::diag::Fix`],
//! and the [`fix`] module applies them to a fixpoint (`gabm lint --fix`).
//!
//! The diagram-level passes live in `gabm_core::check` so that the code
//! generator itself refuses any diagram with a lint error — the lint tool
//! and the generator can never disagree about validity.

pub mod fas;
pub mod fix;
pub mod ir;
pub mod registry;
pub mod render;

pub use fix::{attach_fas_fixes, fix_code_ir, fix_diagram, fix_fas_source, FixOutcome};
pub use gabm_core::diag::{Code, Diagnostic, Fix, FixEdit, Location, Severity};
pub use registry::{lint_diagram, lint_fas_source, passes, Layer};
pub use render::{render_json, render_text, summarize, to_json};
