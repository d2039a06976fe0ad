//! Property tests: both index representations against a BTreeMap model,
//! cracker-index piece consistency under random crack sequences, and the
//! Flat-against-AVL differential that pins the two representations to
//! identical observable behaviour.

use proptest::prelude::*;
use scrack_index::{
    AvlTree, CrackerIndex, FlatIndex, IndexPolicy, NodeId, Piece, PieceMeta, DELTA_CAP,
};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Remove(u64),
    QueryPred(u64),
    QuerySucc(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200).prop_map(Op::Insert),
        (0u64..200).prop_map(Op::Remove),
        (0u64..200).prop_map(Op::QueryPred),
        (0u64..200).prop_map(Op::QuerySucc),
    ]
}

proptest! {
    #[test]
    fn avl_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut tree: AvlTree<u64> = AvlTree::new();
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    let fresh_expected = !model.contains_key(&k);
                    model.entry(k).or_insert(i);
                    let (_, fresh) = tree.insert(k, i, k);
                    prop_assert_eq!(fresh, fresh_expected);
                }
                Op::Remove(k) => {
                    let expect = model.remove(&k);
                    let got = tree.remove(k);
                    prop_assert_eq!(got.map(|(p, _)| p), expect);
                }
                Op::QueryPred(k) => {
                    let got = tree.predecessor_or_equal(k).map(|id| tree.key(id));
                    let expect = model.range(..=k).next_back().map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
                Op::QuerySucc(k) => {
                    let got = tree.successor_strict(k).map(|id| tree.key(id));
                    let expect = model
                        .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        let got: Vec<u64> = tree.iter_asc().map(|(k, _, _)| k).collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(tree.len(), model.len());
    }

    #[test]
    fn cracker_index_pieces_always_tile_the_column(
        cracks in proptest::collection::vec((0u64..1000, 0usize..1000), 0..100),
        column_len in 1000usize..1001,
    ) {
        // Build cracks with positions made monotone-consistent: sort by key
        // and force positions to be non-decreasing, as real cracking does.
        let mut cracks = cracks;
        cracks.sort_by_key(|(k, _)| *k);
        cracks.dedup_by_key(|(k, _)| *k);
        let mut pos_floor = 0usize;
        let mut idx: CrackerIndex<()> = CrackerIndex::new(column_len);
        for (k, p) in cracks.iter() {
            let p = (*p).max(pos_floor).min(column_len);
            pos_floor = p;
            idx.add_crack(*k, p);
        }
        prop_assert!(idx.check_positions_monotone());
        let pieces = idx.pieces();
        prop_assert_eq!(pieces.len(), idx.piece_count());
        prop_assert_eq!(pieces[0].start, 0);
        prop_assert_eq!(pieces.last().unwrap().end, column_len);
        for w in pieces.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Every probe key lands in the piece whose bounds contain it.
        for probe in [0u64, 1, 250, 500, 999, 1000, 5000] {
            let p = idx.piece_containing(probe);
            if let Some(lo) = p.lo_key {
                prop_assert!(lo <= probe);
            }
            if let Some(hi) = p.hi_key {
                prop_assert!(probe < hi);
            }
        }
    }

    /// The flat index against the same BTreeMap model the AVL test uses:
    /// identical neighbor-query semantics, entry for entry.
    #[test]
    fn flat_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut flat: FlatIndex<u64> = FlatIndex::new();
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    let fresh_expected = !model.contains_key(&k);
                    model.entry(k).or_insert(i);
                    let (_, fresh) = flat.insert(k, i, k);
                    prop_assert_eq!(fresh, fresh_expected);
                }
                Op::Remove(k) => {
                    let expect = model.remove(&k);
                    let got = flat.remove(k);
                    prop_assert_eq!(got.map(|(p, _)| p), expect);
                }
                Op::QueryPred(k) => {
                    let got = flat.predecessor_or_equal(k).map(|id| flat.key(id));
                    let expect = model.range(..=k).next_back().map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
                Op::QuerySucc(k) => {
                    let got = flat.successor_strict(k).map(|id| flat.key(id));
                    let expect = model
                        .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(k, _)| *k);
                    prop_assert_eq!(got, expect);
                }
            }
            flat.check_invariants().map_err(TestCaseError::fail)?;
        }
        let got: Vec<u64> = flat.iter_asc().map(|(k, _, _)| k).collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(flat.len(), model.len());
    }

    /// The cross-policy contract at the index layer: identical crack
    /// sequences produce identical pieces, for every probe, under every
    /// representation — including the piece-metadata routing.
    #[test]
    fn index_policies_are_observationally_identical(
        cracks in proptest::collection::vec((0u64..1000, 0usize..1000), 0..100),
        probes in proptest::collection::vec(0u64..1200, 1..50),
    ) {
        let mut cracks = cracks;
        cracks.sort_by_key(|(k, _)| *k);
        cracks.dedup_by_key(|(k, _)| *k);
        let column_len = 1000usize;
        let mut indexes: Vec<CrackerIndex<()>> = IndexPolicy::ALL
            .iter()
            .map(|p| CrackerIndex::with_policy(column_len, *p))
            .collect();
        let mut pos_floor = 0usize;
        for (k, p) in cracks.iter() {
            let p = (*p).max(pos_floor).min(column_len);
            pos_floor = p;
            for idx in &mut indexes {
                idx.add_crack(*k, p);
            }
        }
        let (reference, others) = indexes.split_first().unwrap();
        let cr: Vec<(u64, usize)> = reference.iter_cracks().map(|(k, p, _)| (k, p)).collect();
        let pr: Vec<(usize, usize, Option<u64>, Option<u64>)> = reference
            .iter_pieces()
            .map(|p| (p.start, p.end, p.lo_key, p.hi_key))
            .collect();
        for other in others {
            prop_assert_eq!(reference.crack_count(), other.crack_count());
            let co: Vec<(u64, usize)> = other.iter_cracks().map(|(k, p, _)| (k, p)).collect();
            prop_assert_eq!(&cr, &co, "{}: crack lists differ", other.policy());
            for probe in &probes {
                let pa = reference.piece_containing(*probe);
                let pb = other.piece_containing(*probe);
                prop_assert_eq!(
                    (pa.start, pa.end, pa.lo_key, pa.hi_key),
                    (pb.start, pb.end, pb.lo_key, pb.hi_key),
                    "{}: piece_containing({}) differs", other.policy(), probe
                );
            }
            let po: Vec<(usize, usize, Option<u64>, Option<u64>)> = other
                .iter_pieces()
                .map(|p| (p.start, p.end, p.lo_key, p.hi_key))
                .collect();
            prop_assert_eq!(&pr, &po, "{}: piece enumerations differ", other.policy());
        }
    }
}

/// Per-piece metadata for the differential: a counter that splits
/// inherit and a job that they do not, the shape of the engines'
/// `PieceState`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Meta {
    count: u32,
    job: Option<u32>,
}

impl PieceMeta for Meta {
    fn inherit(&self) -> Self {
        Meta {
            count: self.count,
            job: None,
        }
    }
}

/// One step of the Flat-against-AVL differential stream.
#[derive(Clone, Debug)]
enum DiffOp {
    /// `add_crack` at `key`, its position `frac`/1000 of the way across
    /// the piece holding `key`, so positions stay monotone in key order
    /// (an existing key re-adds at its own position).
    Add { key: u64, frac: u64 },
    /// A Ripple insert of `key`: the column grows by one and every crack
    /// above `key` shifts right, walked right to left.
    ShiftUp(u64),
    /// A Ripple delete from the piece holding `key` (skipped when that
    /// piece is empty): every crack above `key` shifts left, walked left
    /// to right, and the column shrinks by one.
    ShiftDown(u64),
    /// Overwrites the metadata of the piece holding `key`.
    WriteMeta { key: u64, value: u32 },
    /// Drops every crack, once the stream has taken the index past
    /// `DELTA_CAP` (an earlier clear would only shorten the stream).
    Clear,
}

const DIFF_KEYS: u64 = 1 << 20;
const DIFF_COLUMN: usize = 1 << 20;

fn diff_op_strategy() -> impl Strategy<Value = DiffOp> {
    (0u32..400, 0u64..DIFF_KEYS, 0u64..1001).prop_map(|(kind, key, frac)| match kind {
        0..=259 => DiffOp::Add { key, frac },
        260..=309 => DiffOp::ShiftUp(key),
        310..=349 => DiffOp::ShiftDown(key),
        350..=398 => DiffOp::WriteMeta {
            key,
            value: frac as u32,
        },
        _ => DiffOp::Clear,
    })
}

fn apply(idx: &mut CrackerIndex<Meta>, op: &DiffOp) {
    match *op {
        DiffOp::Add { key, frac } => {
            let pos = match idx.find_crack(key) {
                Some(id) => idx.crack_pos(id),
                None => {
                    let p = idx.piece_containing(key);
                    p.start + p.len() * frac as usize / 1000
                }
            };
            idx.add_crack(key, pos);
        }
        DiffOp::ShiftUp(key) => {
            idx.set_column_len(idx.column_len() + 1);
            let mut cur = idx.max_crack();
            while let Some(id) = cur {
                let k = idx.crack_key(id);
                if k <= key {
                    break;
                }
                idx.set_crack_pos(id, idx.crack_pos(id) + 1);
                cur = idx.crack_before(k);
            }
        }
        DiffOp::ShiftDown(key) => {
            if idx.piece_containing(key).is_empty() {
                return;
            }
            let mut cur = idx.crack_after(key);
            while let Some(id) = cur {
                idx.set_crack_pos(id, idx.crack_pos(id) - 1);
                cur = idx.crack_after(idx.crack_key(id));
            }
            idx.set_column_len(idx.column_len() - 1);
        }
        DiffOp::WriteMeta { key, value } => {
            let piece = idx.piece_containing(key);
            *idx.piece_meta_mut(&piece) = Meta {
                count: value,
                job: Some(value),
            };
        }
        DiffOp::Clear => {
            if idx.crack_count() > DELTA_CAP {
                idx.clear();
            }
        }
    }
}

/// A crack as `(key, position, metadata)`, resolved through its handle.
type Crack = (u64, usize, Meta);

fn crack(idx: &CrackerIndex<Meta>, id: Option<NodeId>) -> Option<Crack> {
    id.map(|id| {
        (
            idx.crack_key(id),
            idx.crack_pos(id),
            idx.crack_meta(id).clone(),
        )
    })
}

/// A piece with its delimiting handles resolved and its metadata;
/// handles themselves are representation-private and never compared.
#[derive(Debug, PartialEq)]
struct PieceObs {
    span: (usize, usize, Option<u64>, Option<u64>),
    left: Option<Crack>,
    right: Option<Crack>,
    meta: Meta,
}

fn piece_obs(idx: &CrackerIndex<Meta>, p: &Piece) -> PieceObs {
    PieceObs {
        span: (p.start, p.end, p.lo_key, p.hi_key),
        left: crack(idx, p.left_crack),
        right: crack(idx, p.right_crack),
        meta: idx.piece_meta(p).clone(),
    }
}

/// Everything a caller can observe of an index: sizes, both iterators,
/// the extreme cracks, and every point query at each probe key.
#[derive(Debug, PartialEq)]
struct IndexObs {
    counts: (usize, usize, usize),
    cracks: Vec<Crack>,
    pieces: Vec<PieceObs>,
    extremes: (Option<Crack>, Option<Crack>),
    probes: Vec<(u64, PieceObs, [Option<Crack>; 4])>,
}

fn observe(idx: &CrackerIndex<Meta>, probes: &[u64]) -> IndexObs {
    IndexObs {
        counts: (idx.crack_count(), idx.piece_count(), idx.column_len()),
        cracks: idx
            .iter_cracks()
            .map(|(k, p, m)| (k, p, m.clone()))
            .collect(),
        pieces: idx.iter_pieces().map(|p| piece_obs(idx, &p)).collect(),
        extremes: (crack(idx, idx.min_crack()), crack(idx, idx.max_crack())),
        probes: probes
            .iter()
            .map(|&k| {
                let queries = [
                    crack(idx, idx.find_crack(k)),
                    crack(idx, idx.crack_at_or_before(k)),
                    crack(idx, idx.crack_before(k)),
                    crack(idx, idx.crack_after(k)),
                ];
                (k, piece_obs(idx, &idx.piece_containing(k)), queries)
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Flat index against the AVL reference, step by step: one
    /// random stream of crack inserts, Ripple-order position shifts,
    /// metadata writes and clears drives both, and after every step all
    /// observable state and every query method must agree. Streams run
    /// past `DELTA_CAP` cracks, so Flat's delta-buffer merges happen
    /// between shifts and metadata writes.
    #[test]
    fn flat_matches_avl_step_by_step(
        ops in proptest::collection::vec(diff_op_strategy(), 500..800),
    ) {
        let mut avl: CrackerIndex<Meta> = CrackerIndex::with_policy(DIFF_COLUMN, IndexPolicy::Avl);
        let mut flat: CrackerIndex<Meta> = CrackerIndex::with_policy(DIFF_COLUMN, IndexPolicy::Flat);
        let mut peak = 0;
        for (step, op) in ops.iter().enumerate() {
            apply(&mut avl, op);
            apply(&mut flat, op);
            peak = peak.max(avl.crack_count());
            prop_assert!(avl.check_positions_monotone(), "step {}: stream broke monotonicity", step);
            // Probe the op's own key and a live crack's key, each with
            // both neighbours, plus the domain ends.
            let key = match *op {
                DiffOp::Add { key, .. }
                | DiffOp::ShiftUp(key)
                | DiffOp::ShiftDown(key)
                | DiffOp::WriteMeta { key, .. } => key,
                DiffOp::Clear => 0,
            };
            let live = avl
                .iter_cracks()
                .nth(step % avl.crack_count().max(1))
                .map_or(key, |(k, _, _)| k);
            let probes = [
                0,
                u64::MAX,
                key,
                key.saturating_sub(1),
                key + 1,
                live,
                live.saturating_sub(1),
                live + 1,
            ];
            prop_assert_eq!(
                observe(&avl, &probes),
                observe(&flat, &probes),
                "step {}: {:?}",
                step,
                op
            );
        }
        prop_assert!(peak > DELTA_CAP, "stream peaked at {} cracks", peak);
    }
}
