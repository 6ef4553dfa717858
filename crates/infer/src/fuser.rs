//! The [`Fuser`] trait: one interface for every Reduce-phase strategy.
//!
//! The crate grew several concrete entry points for the same algebraic
//! operation — [`fuse`](crate::fuse) / [`fuse_with`]
//! (by-reference binary fusion), [`fuse_into`]
//! (in-place accumulator fusion) and [`ProfileAcc`](crate::ProfileAcc)
//! (fusion enriched with per-path statistics). Each caller — the
//! pipeline, the CLI, the bench runner — picked one and wired its own
//! closures into the engine's reduce. This trait captures the common
//! shape (identity, absorb, merge, extract) so the engine's reduce is
//! written once against it (see `typefuse_engine`'s `reduce_fused` /
//! `reduce_items`) and strategies compose with any topology.
//!
//! All implementations must satisfy the paper's laws: `merge` is
//! associative and commutative (Theorems 5.4/5.5) with [`empty`] as
//! identity, which is exactly what licenses partition-order-independent
//! reduction.
//!
//! [`empty`]: Fuser::empty

use crate::fuse::{fuse_with, FuseConfig};
use crate::fuse_inplace::fuse_into;
use crate::incremental::Incremental;
use crate::infer::infer_type;
use crate::obs::union_width;
use typefuse_json::Value;
use typefuse_obs::Recorder;
use typefuse_types::Type;

/// A Reduce-phase strategy: how per-record types fold into a
/// partition-local accumulator and how accumulators combine.
pub trait Fuser: Sync {
    /// Partition-local accumulator.
    type Acc: Send + Sync + Clone;

    /// The identity accumulator (the paper's `ε`).
    fn empty(&self) -> Self::Acc;

    /// Fold one inferred type into the accumulator.
    fn absorb_type(&self, acc: &mut Self::Acc, ty: &Type);

    /// Fold one JSON value. The default infers the value's type
    /// (Figure 4) and absorbs it; strategies that need the value itself
    /// (e.g. profiling) override this.
    fn absorb_value(&self, acc: &mut Self::Acc, value: &Value) {
        self.absorb_type(acc, &infer_type(value));
    }

    /// Merge another accumulator in (associative and commutative).
    fn merge(&self, acc: &mut Self::Acc, other: &Self::Acc);

    /// Whether the accumulator is still the identity — such partials
    /// can be dropped before combining (empty dataset partitions).
    fn is_empty_acc(&self, acc: &Self::Acc) -> bool;

    /// Extract the fused schema.
    fn finish_schema(&self, acc: Self::Acc) -> Type;
}

/// The canonical strategy: Figure 6 fusion under a [`FuseConfig`], with
/// a bare [`Type`] accumulator. `absorb_type` is
/// [`fuse_into`](crate::fuse_into) (in-place, no clone of untouched
/// subtrees); `merge` is [`fuse_with`](crate::fuse_with).
impl Fuser for FuseConfig {
    type Acc = Type;

    fn empty(&self) -> Type {
        Type::Bottom
    }

    fn absorb_type(&self, acc: &mut Type, ty: &Type) {
        fuse_into(*self, acc, ty);
    }

    fn merge(&self, acc: &mut Type, other: &Type) {
        *acc = fuse_with(*self, acc, other);
    }

    fn is_empty_acc(&self, acc: &Type) -> bool {
        matches!(acc, Type::Bottom)
    }

    fn finish_schema(&self, acc: Type) -> Type {
        acc
    }
}

/// The product's strategy: an [`Incremental`] accumulator, so the
/// cap-2 rule applies (each distinct type fused at most twice per
/// accumulator), plus the pipeline's fusion metrics: `fuse.calls` and
/// the `fuse.union_width` histogram for every fusion performed, as
/// emitted by [`fuse_with_recorded`](crate::fuse_with_recorded), and
/// `fuse.saturated` for every absorb the rule skipped. Absorbing into
/// the identity accumulator, or merging with it, is a move, not a
/// fusion, and is not counted — matching the engine's historical "fold
/// from the first element" semantics.
#[derive(Debug, Clone)]
pub struct RecordedFuser {
    cfg: FuseConfig,
    rec: Recorder,
}

impl RecordedFuser {
    /// A recorded fuser sharing `rec` with the rest of the run.
    pub fn new(cfg: FuseConfig, rec: Recorder) -> Self {
        RecordedFuser { cfg, rec }
    }

    fn count(&self, fused: &Type) {
        if self.rec.is_enabled() {
            self.rec.add("fuse.calls", 1);
            self.rec.record("fuse.union_width", union_width(fused));
        }
    }
}

impl Fuser for RecordedFuser {
    type Acc = Incremental;

    fn empty(&self) -> Incremental {
        Incremental::with_config(self.cfg)
    }

    fn absorb_type(&self, acc: &mut Incremental, ty: &Type) {
        let moved = self.is_empty_acc(acc);
        if !acc.absorb_type_ref(ty) {
            self.rec.add("fuse.saturated", 1);
        } else if !moved {
            self.count(acc.schema());
        }
    }

    fn merge(&self, acc: &mut Incremental, other: &Incremental) {
        let moved = self.is_empty_acc(acc) || self.is_empty_acc(other);
        acc.merge(other);
        if !moved {
            self.count(acc.schema());
        }
    }

    fn is_empty_acc(&self, acc: &Incremental) -> bool {
        matches!(acc.schema(), Type::Bottom)
    }

    fn finish_schema(&self, acc: Incremental) -> Type {
        acc.into_schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse_all;
    use typefuse_json::json;

    fn types() -> Vec<Type> {
        [
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
        ]
        .iter()
        .map(infer_type)
        .collect()
    }

    #[test]
    fn config_fuser_matches_fuse_all() {
        let cfg = FuseConfig::default();
        let mut acc = Fuser::empty(&cfg);
        for t in &types() {
            cfg.absorb_type(&mut acc, t);
        }
        assert_eq!(cfg.finish_schema(acc), fuse_all(&types()));
    }

    #[test]
    fn merge_of_split_streams_matches_one_stream() {
        let cfg = FuseConfig::default();
        let ts = types();
        let mut left = Fuser::empty(&cfg);
        cfg.absorb_type(&mut left, &ts[0]);
        let mut right = Fuser::empty(&cfg);
        cfg.absorb_type(&mut right, &ts[1]);
        cfg.absorb_type(&mut right, &ts[2]);
        cfg.merge(&mut left, &right);
        assert_eq!(left, fuse_all(&ts));
    }

    #[test]
    fn recorded_fuser_counts_only_real_fusions() {
        let rec = Recorder::enabled();
        let fuser = RecordedFuser::new(FuseConfig::default(), rec.clone());
        let mut acc = fuser.empty();
        for t in &types() {
            fuser.absorb_type(&mut acc, t);
        }
        // First absorb is a move into ε, then two fusions.
        assert_eq!(rec.counter_value("fuse.calls"), 2);
        assert_eq!(fuser.finish_schema(acc), fuse_all(&types()));
    }

    #[test]
    fn recorded_fuser_counts_saturated_absorbs() {
        let rec = Recorder::enabled();
        let fuser = RecordedFuser::new(FuseConfig::default(), rec.clone());
        let ty = infer_type(&json!({"tags": [true]}));
        let mut acc = fuser.empty();
        for _ in 0..5 {
            fuser.absorb_type(&mut acc, &ty);
        }
        // A move, one fusion, then three absorbs the cap-2 rule skips.
        assert_eq!(rec.counter_value("fuse.calls"), 1);
        assert_eq!(rec.counter_value("fuse.saturated"), 3);
        assert_eq!(acc.count(), 5);
        assert_eq!(fuser.finish_schema(acc), fuse_all(&vec![ty; 5]));
    }

    #[test]
    fn empty_accumulators_are_detected() {
        let cfg = FuseConfig::default();
        let acc = Fuser::empty(&cfg);
        assert!(cfg.is_empty_acc(&acc));
        let mut acc = acc;
        cfg.absorb_type(&mut acc, &Type::Num);
        assert!(!cfg.is_empty_acc(&acc));
    }
}
