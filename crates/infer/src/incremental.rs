//! Incremental schema maintenance (Section 7).
//!
//! "Another benefit of our approach is its ability to perform type
//! inference in an incremental fashion. This is possible because the core
//! of our technique, fusion, is incremental by essence."
//!
//! [`Incremental`] keeps a running fused schema. Appending a record is
//! `schema ⊔ infer(record)`; merging two independently maintained schemas
//! (e.g. one per partition of an updated dataset) is a single `Fuse` —
//! exactly the maintenance story the paper gives for partitioned data.
//!
//! Every schema fold of the product runs through it, so it also owns the
//! **cap-2 rule**: `F(F(F(S,T),T),T) = F(F(S,T),T)` (DESIGN.md §10), and
//! fusion is commutative and associative, so the fused schema depends
//! only on the set of distinct absorbed types, each counted at most
//! twice. An accumulator counts the sightings of each type and fuses a
//! type only on its first two; the third and later sightings only count
//! the record.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;

use crate::fuse::{fuse_with, FuseConfig};
use crate::fuse_inplace::fuse_into;
use crate::infer::infer_type;
use typefuse_json::Value;
use typefuse_types::intern::FxHasher;
use typefuse_types::Type;

/// Type nodes a per-accumulator memo may store: the sightings of an
/// [`Incremental`] and the signature cache of a
/// [`ShapeCache`](crate::ShapeCache). Past it a memo stops inserting,
/// which costs speed, never exactness.
pub const NODE_BUDGET: usize = 1 << 16;

/// A running fused schema over a stream of JSON values.
///
/// ```
/// use typefuse_infer::Incremental;
/// use typefuse_json::parse_value;
///
/// let mut inc = Incremental::new();
/// inc.absorb(&parse_value(r#"{"a": 1}"#).unwrap());
/// inc.absorb(&parse_value(r#"{"a": "x", "b": true}"#).unwrap());
/// assert_eq!(inc.schema().to_string(), "{a: Num + Str, b: Bool?}");
/// assert_eq!(inc.count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Incremental {
    schema: Type,
    count: u64,
    config: FuseConfig,
    /// Performance state only: `merge`, `resume`, equality and
    /// checkpoints ignore it. A merged or resumed accumulator may fuse a
    /// type up to twice more, which the cap-2 law makes harmless.
    seen: Sightings,
}

/// Sightings per distinct absorbed type, saturating at 2, within
/// [`NODE_BUDGET`] stored type nodes. A type not stored is fused on every
/// sighting, which is the plain fold.
///
/// A type is stored as its [`encode`]d bytes, one allocation per type,
/// not as a deep clone: clones of the first types interleave with the
/// running schema's nodes on the heap and slow every later fusion, which
/// walks the schema. At most [`SAME_HASH`] types are stored per hash
/// value, so input crafted to collide cannot turn a lookup into a scan.
#[derive(Clone, Default)]
struct Sightings {
    counts: HashMap<u64, Vec<Stored>>,
    nodes: usize,
    /// The encoding of the type being looked up, reused across absorbs.
    key: Vec<u8>,
}

/// An encoded type and its sightings so far (1 or 2).
type Stored = (Box<[u8]>, u8);

/// Types stored per hash value.
const SAME_HASH: usize = 2;

impl Sightings {
    /// Note one sighting of `ty`; whether it still has to be fused.
    fn fuse(&mut self, ty: &Type) -> bool {
        self.key.clear();
        let nodes = encode(ty, &mut self.key);
        let mut hasher = FxHasher::default();
        hasher.write(&self.key);
        let hash = hasher.finish();
        let key = &self.key[..];
        let seen = self
            .counts
            .get_mut(&hash)
            .and_then(|same| same.iter_mut().find(|(seen, _)| **seen == *key));
        match seen {
            Some((_, n)) if *n >= 2 => return false,
            Some((_, n)) => *n += 1,
            None if self.nodes < NODE_BUDGET => {
                let same = self.counts.entry(hash).or_default();
                if same.len() < SAME_HASH {
                    self.nodes += nodes;
                    same.push((key.into(), 1));
                }
            }
            None => {}
        }
        true
    }
}

/// Append a prefix-free byte encoding of `ty` to `out`, so two types are
/// equal exactly when their encodings are; returns the type's node count
/// ([`Type::size`]).
fn encode(ty: &Type, out: &mut Vec<u8>) -> usize {
    fn len(n: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    match ty {
        Type::Bottom => out.push(0),
        Type::Null => out.push(1),
        Type::Bool => out.push(2),
        Type::Num => out.push(3),
        Type::Str => out.push(4),
        Type::Record(record) => {
            out.push(5);
            len(record.fields().len(), out);
            let mut nodes = 1;
            for field in record.fields() {
                len(field.name.len(), out);
                out.extend_from_slice(field.name.as_bytes());
                out.push(u8::from(field.optional));
                nodes += 1 + encode(&field.ty, out);
            }
            return nodes;
        }
        Type::Array(array) => {
            out.push(6);
            len(array.len(), out);
            return 1 + array.elems().iter().map(|e| encode(e, out)).sum::<usize>();
        }
        Type::Star(body) => {
            out.push(7);
            return 1 + encode(body, out);
        }
        Type::Union(union) => {
            out.push(8);
            len(union.addends().len(), out);
            return 1 + union
                .addends()
                .iter()
                .map(|a| encode(a, out))
                .sum::<usize>();
        }
    }
    1
}

impl fmt::Debug for Sightings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sightings")
            .field("types", &self.counts.values().map(Vec::len).sum::<usize>())
            .field("nodes", &self.nodes)
            .finish()
    }
}

impl PartialEq for Incremental {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.count == other.count && self.config == other.config
    }
}

impl Default for Incremental {
    fn default() -> Self {
        Self::new()
    }
}

impl Incremental {
    /// An empty accumulator: the schema starts at `ε`, the identity of
    /// `Fuse`.
    pub fn new() -> Self {
        Self::with_config(FuseConfig::default())
    }

    /// An empty accumulator with an explicit fusion configuration.
    pub fn with_config(config: FuseConfig) -> Self {
        Self::resume(Type::Bottom, 0, config)
    }

    /// Resume from a previously computed schema (e.g. loaded from disk)
    /// and record count, fusing further records under `config`.
    ///
    /// The config is part of the construction, not per-`absorb`: a warm
    /// accumulator resumed by a long-running service must keep honoring
    /// the same fusion options the original batch run used, or the
    /// incremental ≡ batch law breaks.
    pub fn resume(schema: Type, count: u64, config: FuseConfig) -> Self {
        Incremental {
            schema,
            count,
            config,
            seen: Sightings::default(),
        }
    }

    /// The fusion configuration this accumulator absorbs under.
    pub fn config(&self) -> FuseConfig {
        self.config
    }

    /// Absorb one JSON value: infer its type and fuse it in.
    pub fn absorb(&mut self, value: &Value) {
        self.absorb_type(infer_type(value));
    }

    /// Absorb an already inferred type. Uses in-place fusion, so the
    /// running schema's untouched subtrees are never copied.
    pub fn absorb_type(&mut self, ty: Type) {
        self.absorb_type_ref(&ty);
    }

    /// [`absorb_type`](Incremental::absorb_type) for a borrowed type.
    /// Returns whether the type was fused: `false` when this accumulator
    /// had already fused it twice (the cap-2 rule), so only the record
    /// was counted.
    pub fn absorb_type_ref(&mut self, ty: &Type) -> bool {
        self.count += 1;
        if !self.seen.fuse(ty) {
            return false;
        }
        fuse_into(self.config, &mut self.schema, ty);
        true
    }

    /// Merge another accumulator (e.g. from a different partition). Thanks
    /// to associativity and commutativity of fusion, the result is the
    /// same as if all values had been absorbed by one accumulator, in any
    /// order.
    pub fn merge(&mut self, other: &Incremental) {
        self.schema = fuse_with(self.config, &self.schema, &other.schema);
        self.count += other.count;
    }

    /// The current fused schema. `ε` if nothing has been absorbed.
    pub fn schema(&self) -> &Type {
        &self.schema
    }

    /// Number of values absorbed (across merges).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consume the accumulator, returning the schema.
    pub fn into_schema(self) -> Type {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    #[test]
    fn empty_accumulator_is_bottom() {
        let inc = Incremental::new();
        assert_eq!(inc.schema(), &Type::Bottom);
        assert_eq!(inc.count(), 0);
    }

    #[test]
    fn absorb_matches_batch_fusion() {
        let values = [
            json!({"a": 1}),
            json!({"a": null, "b": [1, "x"]}),
            json!({"b": []}),
        ];
        let mut inc = Incremental::new();
        for v in &values {
            inc.absorb(v);
        }
        let batch = crate::fuse_all(&values.iter().map(crate::infer_type).collect::<Vec<_>>());
        assert_eq!(inc.schema(), &batch);
        assert_eq!(inc.count(), 3);
    }

    #[test]
    fn merge_equals_single_stream() {
        let left = [json!({"a": 1}), json!({"b": "x"})];
        let right = [json!({"a": true}), json!({"c": null})];

        let mut part1 = Incremental::new();
        left.iter().for_each(|v| part1.absorb(v));
        let mut part2 = Incremental::new();
        right.iter().for_each(|v| part2.absorb(v));

        let mut merged = part1.clone();
        merged.merge(&part2);

        let mut sequential = Incremental::new();
        left.iter().chain(&right).for_each(|v| sequential.absorb(v));

        assert_eq!(merged.schema(), sequential.schema());
        assert_eq!(merged.count(), 4);

        // Commutativity: merge in the other direction too.
        let mut merged_rev = part2.clone();
        merged_rev.merge(&part1);
        assert_eq!(merged_rev.schema(), sequential.schema());
    }

    #[test]
    fn resume_continues_from_snapshot() {
        let mut inc = Incremental::new();
        inc.absorb(&json!({"a": 1}));
        let snapshot = inc.schema().clone();

        let mut resumed = Incremental::resume(snapshot, inc.count(), inc.config());
        resumed.absorb(&json!({"a": "x"}));
        assert_eq!(resumed.schema().to_string(), "{a: Num + Str}");
        assert_eq!(resumed.count(), 2);
    }

    #[test]
    fn resume_keeps_the_given_config() {
        let config = FuseConfig::default();
        let resumed = Incremental::resume(Type::Bottom, 0, config);
        assert_eq!(resumed.config(), config);
    }

    #[test]
    fn update_only_changed_partition() {
        // The paper's maintenance scenario: re-infer only the updated
        // partition, then fuse with the stale schemas of the others.
        let stable = [json!({"id": 1, "tag": "x"}), json!({"id": 2, "tag": "y"})];
        let updated_old = [json!({"id": 3})];
        let updated_new = [json!({"id": 3}), json!({"id": 4, "extra": true})];

        let mut stable_acc = Incremental::new();
        stable.iter().for_each(|v| stable_acc.absorb(v));

        let mut full = Incremental::new();
        stable
            .iter()
            .chain(&updated_new)
            .for_each(|v| full.absorb(v));

        // Incremental path: reuse stable_acc, re-infer only the updated part.
        let mut updated_acc = Incremental::new();
        updated_new.iter().for_each(|v| updated_acc.absorb(v));
        let mut maintained = stable_acc.clone();
        maintained.merge(&updated_acc);

        assert_eq!(maintained.schema(), full.schema());
        // The old content of the updated partition never mattered.
        let _ = updated_old;
    }

    #[test]
    fn third_sightings_are_counted_not_fused() {
        // `[Bool] ⊔ [Bool]` collapses to `[Bool*]`: the second sighting
        // still changes the schema, the third cannot.
        let ty = crate::infer_type(&json!([true]));
        let mut inc = Incremental::new();
        let fused: Vec<bool> = (0..5).map(|_| inc.absorb_type_ref(&ty)).collect();
        assert_eq!(fused, [true, true, false, false, false]);
        assert_eq!(inc.schema().to_string(), "[Bool*]");
        assert_eq!(inc.count(), 5);
        assert_eq!(
            inc.schema(),
            &crate::fuse_all(&vec![ty; 5]),
            "the spec fold of all five"
        );
    }

    #[test]
    fn past_the_budget_every_unseen_type_is_fused() {
        // Positional arrays of length 1..=400 hold about 80K type nodes:
        // the first ~360 are stored, the rest are fused on every sighting.
        // Either way the schema is the spec fold of every record.
        let types: Vec<Type> = (1..=400)
            .map(|n| crate::infer_type(&Value::Array(vec![json!(1); n])))
            .collect();
        let all: Vec<Type> = types.iter().chain(&types).chain(&types).cloned().collect();
        let mut inc = Incremental::new();
        let skipped = all.iter().filter(|ty| !inc.absorb_type_ref(ty)).count();
        assert!(inc.seen.nodes >= NODE_BUDGET, "{:?}", inc.seen);
        assert!(inc.seen.nodes <= NODE_BUDGET + 401, "{:?}", inc.seen);
        assert!(skipped > 0 && skipped < types.len(), "{skipped} skipped");
        let stored: usize = inc.seen.counts.values().map(Vec::len).sum();
        assert_eq!(skipped, stored, "the third sightings of the stored types");
        assert_eq!(inc.schema(), &crate::fuse_all(&all));
        assert_eq!(inc.count(), all.len() as u64);
    }

    fn encoded(t: &Type) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        let nodes = encode(t, &mut out);
        (out, nodes)
    }

    proptest::proptest! {
        #[test]
        fn the_encoding_is_injective_and_counts_nodes(
            a in typefuse_types::testkit::arb_type(),
            b in typefuse_types::testkit::arb_type(),
        ) {
            let (ea, na) = encoded(&a);
            proptest::prop_assert_eq!(na, a.size());
            proptest::prop_assert_eq!(ea == encoded(&b).0, a == b);
        }
    }

    #[test]
    fn names_flags_and_nesting_are_part_of_the_encoding() {
        for (a, b) in [
            ("{a: Num}", "{b: Num}"),
            ("{a: Num}", "{a: Num?}"),
            ("{ab: Num}", "{a: Num, b: Num}"),
            ("[Num, Str]", "[Num + Str]"),
            ("[Num*]", "[Num]"),
        ] {
            let (a, b) = (
                typefuse_types::parse_type(a).unwrap(),
                typefuse_types::parse_type(b).unwrap(),
            );
            assert_ne!(encoded(&a).0, encoded(&b).0, "{a} vs {b}");
        }
    }

    #[test]
    fn sightings_are_not_part_of_the_value() {
        let ty = crate::infer_type(&json!({"a": [1]}));
        let mut warm = Incremental::new();
        for _ in 0..3 {
            warm.absorb_type_ref(&ty);
        }
        let cold = Incremental::resume(warm.schema().clone(), warm.count(), warm.config());
        assert_eq!(warm, cold, "equality ignores the sightings");
        // A merged accumulator fuses the type up to twice more: same
        // schema by the cap-2 law.
        let mut merged = cold.clone();
        merged.merge(&warm);
        merged.absorb_type_ref(&ty);
        assert_eq!(merged.schema(), warm.schema());
    }
}
