//! # typefuse-engine
//!
//! The distributed-execution substrate standing in for Apache Spark.
//!
//! The paper (Section 5.2) needs exactly two things from Spark:
//!
//! 1. **A parallel map + associative reduce** over a partitioned
//!    collection. [`Runtime`] (a work-stealing-free, queue-fed thread
//!    pool) and [`Dataset`] provide `map`, `map_partitions`, `reduce` and
//!    `aggregate` with the same semantics as the Spark RDD operations the
//!    paper's Scala implementation uses. Associativity of the reduce
//!    operator is what makes every execution order equivalent; the
//!    topology is configurable through [`ReducePlan`] for the ablation
//!    bench.
//! 2. **A cluster whose data placement governs utilisation** — Section 6.2
//!    observes that with all HDFS blocks on one node, only two of six
//!    nodes did any work, and that explicit partitioning restores
//!    locality. Real hardware like that is not available here, so the
//!    [`sim`] module provides a deterministic discrete-event cluster
//!    simulator (nodes × cores, block placement, locality-aware
//!    scheduling, network cost) that reproduces that behaviour for the
//!    Table 7 / Table 8 experiments.
//!
//! Every data-path operation reports [`metrics`] (per-task wall time,
//! items processed) so the bench harness can print per-partition rows
//! like the paper's Table 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod dataset;
pub mod fused;
pub mod metrics;
pub mod reduce;
pub mod runtime;
pub mod sim;

pub use background::{spawn_periodic, BackgroundTask, Tick};
pub use dataset::Dataset;
pub use metrics::{StageMetrics, TaskMetrics};
pub use reduce::ReducePlan;
pub use runtime::{panic_message, Runtime, WorkerPanic};
