//! # tpcds-synth
//!
//! Grammar-driven SQL workload synthesis with a differential soak
//! harness — the scenario-diversity engine beyond the 99 fixed
//! templates (ROADMAP direction 5, in the spirit of SynQL's rule-based
//! synthesis and DWEB's parameterized warehouse workloads).
//!
//! The pieces, bottom-up:
//!
//! * [`spec`] — [`QuerySpec`](spec::QuerySpec), the structured form of a
//!   synthesized query and the unit the shrinker edits;
//! * [`gen`] — the seeded, deterministic generator: FK-walked joins,
//!   histogram-steered predicate selectivity, a tunable
//!   aggregate/sort/set-op/window mix, and four adversarial classes
//!   (empty results, all-NULL join keys, modulo skew, 64k-boundary
//!   LIMITs);
//! * [`diff`] — the four-way row-vs-columnar differential oracle at
//!   1/2/8 workers against one pinned snapshot;
//! * [`shrink`] — greedy spec-level minimization of failing queries;
//! * [`soak`] — concurrent streams (in-process or via a real TCP
//!   server) interleaved with data-maintenance commits.

#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod shrink;
pub mod soak;
pub mod spec;

pub use diff::{run_differential, DiffError, DiffReport};
pub use gen::{SynthConfig, Synthesizer, SYNTH_STREAM};
pub use shrink::{shrink, shrink_with};
pub use soak::{run_soak, ClassStat, Failure, SoakConfig, SoakOutcome};
pub use spec::{QuerySpec, ShapeClass};
