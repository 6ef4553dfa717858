//! # typefuse-infer
//!
//! The two algorithmic phases of *Schema Inference for Massive JSON
//! Datasets* (EDBT 2017):
//!
//! 1. **Type inference** ([`infer_type`], Figure 4): map each JSON value to
//!    the type isomorphic to it. This is the Map phase.
//! 2. **Type fusion** ([`fuse`], Figure 6): a commutative, associative
//!    binary operator that merges two normal types into a succinct common
//!    super-type. This is the Reduce phase; associativity (Theorem 5.5) is
//!    what allows the engine to split the reduce across threads, nodes and
//!    partitions in any order.
//!
//! The module also provides:
//!
//! * [`collapse`] — the array-simplification of Section 2 / Figure 6
//!   lines 8–9, exposed separately for the ablation study;
//! * [`FuseConfig`] — the paper's collapse strategy plus a
//!   positional-when-aligned variant used by the precision/succinctness
//!   ablation bench;
//! * [`Incremental`] — the incremental schema maintenance sketched in
//!   Section 7 ("fusion is incremental by essence"), which fuses each
//!   distinct type at most twice (the cap-2 rule, DESIGN.md §10);
//! * [`profile`] — the statistics enrichment named as future work in
//!   Section 7, grown into a full data-plane profiler: per-path presence,
//!   kind histograms, length/numeric statistics and provenance lines
//!   (which input line introduced each union branch, which one demoted a
//!   field to optional), mergeable with the same monoid laws as fusion;
//! * [`dedup`] — the memoized shape-dedup Reduce over hash-consed type
//!   ids, which the bench harness times against the cap-2 fold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup;
mod fuse;
pub mod fuse_inplace;
pub mod fuser;
pub mod incremental;
pub mod infer;
pub mod maplike;
pub mod obs;
pub mod profile;
mod project;
pub mod shape;
pub mod streaming;

pub use dedup::{fuse_ids, DedupAcc, DedupFuser, FuseCache};
pub use fuse::{collapse, fuse, fuse_all, fuse_with, kinds_present, ArrayFusion, FuseConfig};
pub use fuse_inplace::fuse_into;
pub use fuser::{Fuser, RecordedFuser};
pub use incremental::{Incremental, NODE_BUDGET};
pub use infer::infer_type;
pub use maplike::{find_map_like, MapLikeConfig, MapLikeSite};
pub use obs::{fuse_with_recorded, infer_type_recorded};
pub use profile::{PathProfile, ProfileAcc, ProfileReport, Profiling};
pub use project::project;
pub use shape::{shape_signature, ShapeCache};
