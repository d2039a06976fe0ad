//! Differential update tests: every update-capable engine, under both
//! `UpdatePolicy` values, against a sorted-vec oracle over random
//! interleaved query/insert/delete streams.
//!
//! Two layers of guarantee:
//!
//! * **oracle equality** — after any interleaving, every query returns
//!   exactly the multiset of keys a sorted `Vec<u64>` model holds for the
//!   range (inserts add, deletes remove one instance, pending updates
//!   become visible to the first qualifying query);
//! * **policy invariance** — the per-element ripple and the batched
//!   merge-ripple produce *bit-identical answers* (count + checksum per
//!   query), with `check_integrity` holding after every step.

use proptest::prelude::*;
use scrack_core::{CrackConfig, Engine, EngineKind, UpdatePolicy};
use scrack_types::QueryRange;
use scrack_updates::{build_update_engine, update_capable_kinds};

const N: u64 = 2_000;
/// Update keys may land beyond the original domain (appends).
const KEY_SPAN: u64 = 3 * N / 2;

/// One step of an interleaved read/write stream.
#[derive(Clone, Debug)]
enum Op {
    Query(u64, u64),
    Insert(u64),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest stub has no weighted prop_oneof; repeating
    // the query arm approximates a 2:1:1 read/write mix.
    prop_oneof![
        (0u64..N, 1u64..300).prop_map(|(a, w)| Op::Query(a, w)),
        (0u64..N, 1u64..300).prop_map(|(a, w)| Op::Query(a, w)),
        (0u64..KEY_SPAN).prop_map(Op::Insert),
        (0u64..KEY_SPAN).prop_map(Op::Delete),
    ]
}

/// The sorted-vec oracle: the multiset of keys the column must hold once
/// all pending updates are merged.
struct Model {
    keys: Vec<u64>, // sorted
    pending_inserts: Vec<u64>,
    pending_deletes: Vec<u64>,
}

impl Model {
    fn new(data: &[u64]) -> Self {
        let mut keys = data.to_vec();
        keys.sort_unstable();
        Self {
            keys,
            pending_inserts: Vec::new(),
            pending_deletes: Vec::new(),
        }
    }

    fn insert(&mut self, k: u64) {
        self.pending_inserts.push(k);
    }

    fn delete(&mut self, k: u64) {
        self.pending_deletes.push(k);
    }

    /// Merges pending updates qualifying for `q` (inserts before
    /// deletes, mirroring the documented ordering invariant), then
    /// returns the range's `(count, key_sum)`.
    fn query(&mut self, q: QueryRange) -> (usize, u64) {
        let mut ins = Vec::new();
        self.pending_inserts.retain(|k| {
            let take = q.contains(*k);
            if take {
                ins.push(*k);
            }
            !take
        });
        for k in ins {
            let at = self.keys.partition_point(|x| *x < k);
            self.keys.insert(at, k);
        }
        let mut del = Vec::new();
        self.pending_deletes.retain(|k| {
            let take = q.contains(*k);
            if take {
                del.push(*k);
            }
            !take
        });
        for k in del {
            let at = self.keys.partition_point(|x| *x < k);
            if self.keys.get(at) == Some(&k) {
                self.keys.remove(at);
            }
        }
        let lo = self.keys.partition_point(|x| *x < q.low);
        let hi = self.keys.partition_point(|x| *x < q.high);
        let sum = self.keys[lo..hi].iter().fold(0u64, |s, k| s.wrapping_add(*k));
        (hi - lo, sum)
    }
}

fn column(salt: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..N).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

fn config(update: UpdatePolicy) -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(256)
        .with_update(update)
}

/// Replays `ops` on one engine configuration, asserting every query
/// against the oracle and checking integrity after every step; returns
/// the per-query `(count, checksum)` trace for cross-policy comparison.
fn replay(ops: &[Op], kind: EngineKind, update: UpdatePolicy, seed: u64) -> Vec<(usize, u64)> {
    let data = column(seed);
    let mut model = Model::new(&data);
    let mut eng = build_update_engine(kind, data, config(update), seed);
    let mut answers = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Query(a, w) => {
                let q = QueryRange::new(a, a + w);
                let out = eng.select(q);
                let got = (out.len(), out.key_checksum(eng.data()));
                let want = model.query(q);
                assert_eq!(
                    got, want,
                    "{} / {update}: step {i} query {q} wrong",
                    eng.name()
                );
                answers.push(got);
            }
            Op::Insert(k) => {
                eng.insert(k);
                model.insert(k);
            }
            Op::Delete(k) => {
                eng.delete(k);
                model.delete(k);
            }
        }
        eng.check_integrity()
            .unwrap_or_else(|e| panic!("{kind:?} / {update}: step {i}: {e}"));
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full differential matrix on the paper's two headline engines:
    /// random interleaved streams, both update policies, oracle equality
    /// plus bit-identical answers across them.
    #[test]
    fn crack_and_mdd1r_match_oracle_and_policies_agree(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in 0u64..1_000,
    ) {
        for kind in [EngineKind::Crack, EngineKind::Mdd1r] {
            let per_elem = replay(&ops, kind, UpdatePolicy::PerElement, seed);
            let batched = replay(&ops, kind, UpdatePolicy::Batched, seed);
            prop_assert_eq!(
                &per_elem, &batched,
                "{:?}: answers diverged across update policies", kind
            );
        }
    }

    /// A rotating single-engine deep run so every update-capable kind in
    /// the factory sees random streams (the full matrix per case would
    /// square the runtime for no extra coverage).
    #[test]
    fn every_update_capable_engine_matches_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        seed in 0u64..1_000,
        // Wide range folded by `%` below, so every kind is reachable
        // however many kinds the factory grows to.
        kind_idx in 0usize..1_000,
    ) {
        let kinds = update_capable_kinds();
        let kind = kinds[kind_idx % kinds.len()];
        for update in UpdatePolicy::ALL {
            replay(&ops, kind, update, seed);
        }
    }
}

/// The deterministic full matrix: every update-capable engine × both
/// update policies on one fixed mixed stream, with cross-policy
/// bit-identity on the answers.
#[test]
fn full_matrix_policies_are_bit_identical() {
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let ops: Vec<Op> = (0..60)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i % 7 {
                0..=2 => Op::Query(state % N, 1 + state % 250),
                3 | 4 => Op::Insert(state % KEY_SPAN),
                _ => Op::Delete(state % KEY_SPAN),
            }
        })
        .collect();
    for kind in update_capable_kinds() {
        let mut traces = Vec::new();
        for update in UpdatePolicy::ALL {
            traces.push(replay(&ops, kind, update, 42));
        }
        for t in &traces[1..] {
            assert_eq!(
                t, &traces[0],
                "{kind:?}: answers must be identical across all policy combinations"
            );
        }
    }
}
