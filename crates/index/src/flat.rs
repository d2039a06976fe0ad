//! A cache-conscious flat cracker index: sorted parallel arrays with an
//! insert-absorbing delta buffer.
//!
//! The AVL representation ([`crate::AvlTree`]) navigates by pointer
//! chasing: every `predecessor/successor` walk hops `O(log n)` nodes
//! scattered across the arena, each hop a potential cache miss. Once
//! cracking converges, that navigation — not data movement — bounds
//! per-query latency (Halim et al. §3's cost analysis; Alvarez et al.,
//! DaMoN 2014). The standard fix is a **flat piece directory**: crack
//! keys in one contiguous sorted array, positions in a parallel array,
//! and a lower-bound search over the dense keys. A lookup then touches a
//! handful of cache lines in one small array instead of a pointer chain.
//!
//! Two measured design decisions, both pinned by `BENCH_4.json`:
//!
//! * **Search variant.** The lower-bound search runs through
//!   `partition_point` (the classic branchy halving). The predicated
//!   ("branch-free", conditional-move) variant was measured 4–5× slower
//!   here: its loads form a serial dependency chain, while the branchy
//!   search speculates — the CPU issues the probable next load before
//!   the compare resolves, which at binary-search branch entropy still
//!   wins decisively on out-of-order cores. [`count_le`] is therefore the
//!   only variant kept.
//! * **Delta buffer.** A plain sorted array pays an `O(n)` tail
//!   `memmove` per insert — at the ~20k cracks a 10k-query sequence
//!   creates, that is ~200 KB per crack and dominates random-workload
//!   latency. Inserts therefore land in a small sorted **delta** (at
//!   most [`DELTA_CAP`] entries, so the shift stays within a few KB) and
//!   bulk-merge into the main arrays when the delta fills — one linear
//!   backward merge amortized over [`DELTA_CAP`] inserts. Lookups search
//!   main + delta (both contiguous, the delta L1-resident) and combine
//!   neighbors.
//!
//! Layout:
//!
//! ```text
//! main   keys  [ 50 |  80 | 120 | … ]   sorted, contiguous — the big search array
//!        pos   [ 48 |  75 | 110 | … ]   parallel crack positions
//!        slots [  2 |  0  |  1  | … ]   parallel handles into the arena
//! delta  keys  [ 64 | 97 ]              sorted, ≤ DELTA_CAP, absorbs inserts
//!        pos/slots parallel             (merged into main when full)
//! arena  [ {80,M} {120,M} {50,M} {64,M} {97,M} ]   stable per-crack metadata
//! ```
//!
//! Handles ([`NodeId`]) index the **arena**, whose slots never move while
//! the entry lives — the same stability contract the AVL arena gives,
//! which the Ripple update path and the selective engines' piece-meta
//! access rely on. A handle resolves back to its sorted location by
//! re-searching its immutable key (`O(log n)`), which keeps inserts and
//! merges free of back-pointer fixups.

use crate::avl::NodeId;

/// Maximum delta-buffer entries before a bulk merge into the main
/// arrays. Small enough that the per-insert shift stays a few cache
/// lines; large enough to amortize the `O(n)` merge well below the cost
/// of the reorganization work that accompanies a crack.
pub const DELTA_CAP: usize = 256;

/// Count of elements `<= probe` in the sorted slice `a` (the rank the
/// piece lookup needs). Runs through `partition_point` — measured faster
/// than the predicated variant on out-of-order cores (see module docs).
#[inline]
pub fn count_le(a: &[u64], probe: u64) -> usize {
    a.partition_point(|k| *k <= probe)
}

#[derive(Debug, Clone)]
struct Entry<M> {
    key: u64,
    meta: M,
}

/// Where a key lives inside the two-level structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Main(usize),
    Delta(usize),
}

/// A flat cracker index: crack keys, positions and metadata handles in
/// sorted parallel arrays plus a small insert-absorbing delta (see the
/// module docs for layout and costs).
///
/// API-compatible with [`crate::AvlTree`] where the two overlap, so
/// [`crate::CrackerIndex`] can dispatch between the representations and
/// property tests can pin them against each other entry for entry.
#[derive(Debug, Clone)]
pub struct FlatIndex<M> {
    /// Main crack keys, strictly increasing; the big search array.
    keys: Vec<u64>,
    /// `pos[r]` is the crack position of `keys[r]`.
    pos: Vec<usize>,
    /// `slots[r]` is the arena slot of `keys[r]`'s metadata.
    slots: Vec<u32>,
    /// Delta keys, strictly increasing, disjoint from `keys`, length
    /// at most [`DELTA_CAP`].
    dkeys: Vec<u64>,
    /// Delta positions, parallel to `dkeys`.
    dpos: Vec<usize>,
    /// Delta arena slots, parallel to `dkeys`.
    dslots: Vec<u32>,
    /// Stable metadata storage; slots are recycled via `free`.
    arena: Vec<Entry<M>>,
    free: Vec<u32>,
}

impl<M> Default for FlatIndex<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FlatIndex<M> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            pos: Vec::new(),
            slots: Vec::new(),
            dkeys: Vec::new(),
            dpos: Vec::new(),
            dslots: Vec::new(),
            arena: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() + self.dkeys.len()
    }

    /// Whether the index holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.dkeys.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.pos.clear();
        self.slots.clear();
        self.dkeys.clear();
        self.dpos.clear();
        self.dslots.clear();
        self.arena.clear();
        self.free.clear();
    }

    /// Sorted location of the entry behind `id`: re-search by its
    /// (immutable) key.
    #[inline]
    fn loc_of(&self, id: NodeId) -> Loc {
        let key = self.arena[id.0 as usize].key;
        let r = count_le(&self.keys, key);
        if r > 0 && self.keys[r - 1] == key {
            return Loc::Main(r - 1);
        }
        let d = count_le(&self.dkeys, key);
        debug_assert!(d > 0 && self.dkeys[d - 1] == key, "stale handle");
        Loc::Delta(d - 1)
    }

    /// Key of the entry behind `id`.
    #[inline]
    pub fn key(&self, id: NodeId) -> u64 {
        self.arena[id.0 as usize].key
    }

    /// Position of the entry behind `id` (`O(log n)`: key re-search).
    #[inline]
    pub fn pos(&self, id: NodeId) -> usize {
        match self.loc_of(id) {
            Loc::Main(i) => self.pos[i],
            Loc::Delta(i) => self.dpos[i],
        }
    }

    /// Overwrites the position of the entry behind `id`.
    ///
    /// As with the AVL representation, positions carry no ordering
    /// obligation inside the index; the cracker invariant that positions
    /// are monotone in key order is the caller's to maintain.
    #[inline]
    pub fn set_pos(&mut self, id: NodeId, pos: usize) {
        match self.loc_of(id) {
            Loc::Main(i) => self.pos[i] = pos,
            Loc::Delta(i) => self.dpos[i] = pos,
        }
    }

    /// Metadata of the entry behind `id`.
    #[inline]
    pub fn meta(&self, id: NodeId) -> &M {
        &self.arena[id.0 as usize].meta
    }

    /// Mutable metadata of the entry behind `id`.
    #[inline]
    pub fn meta_mut(&mut self, id: NodeId) -> &mut M {
        &mut self.arena[id.0 as usize].meta
    }

    /// The `(key, pos, handle)` triple at main rank `i` / delta rank `i`.
    #[inline]
    fn triple(&self, loc: Loc) -> (u64, usize, NodeId) {
        match loc {
            Loc::Main(i) => (self.keys[i], self.pos[i], NodeId(self.slots[i])),
            Loc::Delta(i) => (self.dkeys[i], self.dpos[i], NodeId(self.dslots[i])),
        }
    }

    /// Both neighbors of `probe` in one pass: the greatest entry with
    /// key `<= probe` and the smallest with key `> probe`, as
    /// `(key, pos, handle)` triples. This is the piece lookup: one
    /// search per level (main + delta), everything else O(1).
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn neighbors(
        &self,
        probe: u64,
    ) -> (Option<(u64, usize, NodeId)>, Option<(u64, usize, NodeId)>) {
        let rm = count_le(&self.keys, probe);
        let rd = count_le(&self.dkeys, probe);
        // Predecessor-or-equal: the larger of the two candidates (keys
        // are disjoint across levels, so strict comparison decides).
        let pred = match (rm > 0, rd > 0) {
            (true, true) => Some(if self.keys[rm - 1] >= self.dkeys[rd - 1] {
                Loc::Main(rm - 1)
            } else {
                Loc::Delta(rd - 1)
            }),
            (true, false) => Some(Loc::Main(rm - 1)),
            (false, true) => Some(Loc::Delta(rd - 1)),
            (false, false) => None,
        };
        // Strict successor: the smaller of the two candidates.
        let succ = match (rm < self.keys.len(), rd < self.dkeys.len()) {
            (true, true) => Some(if self.keys[rm] <= self.dkeys[rd] {
                Loc::Main(rm)
            } else {
                Loc::Delta(rd)
            }),
            (true, false) => Some(Loc::Main(rm)),
            (false, true) => Some(Loc::Delta(rd)),
            (false, false) => None,
        };
        (pred.map(|l| self.triple(l)), succ.map(|l| self.triple(l)))
    }

    /// Looks up the entry with exactly `key`.
    #[inline]
    pub fn find(&self, key: u64) -> Option<NodeId> {
        let r = count_le(&self.keys, key);
        if r > 0 && self.keys[r - 1] == key {
            return Some(NodeId(self.slots[r - 1]));
        }
        let d = count_le(&self.dkeys, key);
        (d > 0 && self.dkeys[d - 1] == key).then(|| NodeId(self.dslots[d - 1]))
    }

    /// Greatest entry with key `<= key`.
    #[inline]
    pub fn predecessor_or_equal(&self, key: u64) -> Option<NodeId> {
        self.neighbors(key).0.map(|(_, _, id)| id)
    }

    /// Greatest entry with key `< key`.
    #[inline]
    pub fn predecessor_strict(&self, key: u64) -> Option<NodeId> {
        if key == 0 {
            return None;
        }
        self.predecessor_or_equal(key - 1)
    }

    /// Smallest entry with key `> key`.
    #[inline]
    pub fn successor_strict(&self, key: u64) -> Option<NodeId> {
        self.neighbors(key).1.map(|(_, _, id)| id)
    }

    /// Smallest entry with key `>= key`.
    #[inline]
    pub fn successor_or_equal(&self, key: u64) -> Option<NodeId> {
        if key == 0 {
            return self.min();
        }
        self.successor_strict(key - 1)
    }

    /// Entry with the smallest key.
    #[inline]
    pub fn min(&self) -> Option<NodeId> {
        match (self.keys.first(), self.dkeys.first()) {
            (Some(m), Some(d)) if d < m => Some(NodeId(self.dslots[0])),
            (Some(_), _) => Some(NodeId(self.slots[0])),
            (None, Some(_)) => Some(NodeId(self.dslots[0])),
            (None, None) => None,
        }
    }

    /// Entry with the greatest key.
    #[inline]
    pub fn max(&self) -> Option<NodeId> {
        match (self.keys.last(), self.dkeys.last()) {
            (Some(m), Some(d)) if d > m => Some(NodeId(*self.dslots.last().expect("parallel"))),
            (Some(_), _) => Some(NodeId(*self.slots.last().expect("parallel"))),
            (None, Some(_)) => Some(NodeId(*self.dslots.last().expect("parallel"))),
            (None, None) => None,
        }
    }

    fn alloc(&mut self, key: u64, meta: M) -> u32 {
        let entry = Entry { key, meta };
        if let Some(slot) = self.free.pop() {
            self.arena[slot as usize] = entry;
            slot
        } else {
            self.arena.push(entry);
            (self.arena.len() - 1) as u32
        }
    }

    /// Inserts `(key, pos, meta)`.
    ///
    /// Returns `(id, true)` for a fresh entry, or `(existing_id, false)`
    /// if the key was already present (the existing entry is left
    /// untouched — a crack at an existing value is the same crack). The
    /// entry lands in the delta buffer; when the delta reaches
    /// [`DELTA_CAP`] it bulk-merges into the main arrays.
    pub fn insert(&mut self, key: u64, pos: usize, meta: M) -> (NodeId, bool) {
        // Inline dedupe instead of find(): the delta search doubles as
        // the insertion rank, so a fresh insert costs two searches.
        let r = count_le(&self.keys, key);
        if r > 0 && self.keys[r - 1] == key {
            return (NodeId(self.slots[r - 1]), false);
        }
        let d = count_le(&self.dkeys, key);
        if d > 0 && self.dkeys[d - 1] == key {
            return (NodeId(self.dslots[d - 1]), false);
        }
        let slot = self.alloc(key, meta);
        self.dkeys.insert(d, key);
        self.dpos.insert(d, pos);
        self.dslots.insert(d, slot);
        if self.dkeys.len() >= DELTA_CAP {
            self.merge_delta();
        }
        (NodeId(slot), true)
    }

    /// Merges the delta into the main arrays: one backward in-place
    /// linear merge, no extra allocation beyond the `Vec` growth.
    fn merge_delta(&mut self) {
        let (m, d) = (self.keys.len(), self.dkeys.len());
        if d == 0 {
            return;
        }
        self.keys.resize(m + d, 0);
        self.pos.resize(m + d, 0);
        self.slots.resize(m + d, 0);
        let (mut i, mut j) = (m, d);
        for w in (0..m + d).rev() {
            let take_delta = i == 0 || (j > 0 && self.dkeys[j - 1] > self.keys[i - 1]);
            if take_delta {
                j -= 1;
                self.keys[w] = self.dkeys[j];
                self.pos[w] = self.dpos[j];
                self.slots[w] = self.dslots[j];
            } else {
                i -= 1;
                self.keys[w] = self.keys[i];
                self.pos[w] = self.pos[i];
                self.slots[w] = self.slots[i];
            }
            if j == 0 {
                break; // the untouched prefix is already in place
            }
        }
        self.dkeys.clear();
        self.dpos.clear();
        self.dslots.clear();
    }

    /// Removes the entry with `key`, returning its `(pos, meta)`.
    pub fn remove(&mut self, key: u64) -> Option<(usize, M)>
    where
        M: Default,
    {
        let r = count_le(&self.keys, key);
        let (pos, slot) = if r > 0 && self.keys[r - 1] == key {
            self.keys.remove(r - 1);
            let pos = self.pos.remove(r - 1);
            (pos, self.slots.remove(r - 1))
        } else {
            let d = count_le(&self.dkeys, key);
            if d == 0 || self.dkeys[d - 1] != key {
                return None;
            }
            self.dkeys.remove(d - 1);
            let pos = self.dpos.remove(d - 1);
            (pos, self.dslots.remove(d - 1))
        };
        let meta = std::mem::take(&mut self.arena[slot as usize].meta);
        self.free.push(slot);
        Some((pos, meta))
    }

    /// Ascending iterator over `(key, pos, &meta)` — allocation-free (a
    /// two-cursor merge over the main and delta arrays).
    pub fn iter_asc(&self) -> FlatAscIter<'_, M> {
        FlatAscIter {
            flat: self,
            main: 0,
            delta: 0,
        }
    }

    /// Ascending `(key, pos, handle)` cursor, allocation-free; the
    /// piece iterator of [`crate::CrackerIndex`] drives this.
    pub fn iter_triples(&self) -> FlatTripleIter<'_, M> {
        FlatTripleIter {
            flat: self,
            main: 0,
            delta: 0,
        }
    }

    /// The next `(key, pos, handle)` in key order across both levels,
    /// advancing whichever cursor supplied it.
    #[inline]
    fn next_merged(&self, main: &mut usize, delta: &mut usize) -> Option<(u64, usize, NodeId)> {
        let take_main = match (self.keys.get(*main), self.dkeys.get(*delta)) {
            (Some(m), Some(d)) => m < d,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let loc = if take_main {
            let l = Loc::Main(*main);
            *main += 1;
            l
        } else {
            let l = Loc::Delta(*delta);
            *delta += 1;
            l
        };
        Some(self.triple(loc))
    }

    /// Checks the structural invariants: both levels strictly
    /// increasing and mutually disjoint, parallel arrays in lockstep,
    /// slot/arena keys consistent, free list disjoint from live slots,
    /// delta within capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.pos.len() != self.keys.len() || self.slots.len() != self.keys.len() {
            return Err("main arrays out of lockstep".into());
        }
        if self.dpos.len() != self.dkeys.len() || self.dslots.len() != self.dkeys.len() {
            return Err("delta arrays out of lockstep".into());
        }
        if self.dkeys.len() >= DELTA_CAP {
            return Err(format!("delta holds {} >= cap {}", self.dkeys.len(), DELTA_CAP));
        }
        for (name, keys) in [("main", &self.keys), ("delta", &self.dkeys)] {
            for w in keys.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("{name} keys not strictly increasing: {} >= {}", w[0], w[1]));
                }
            }
        }
        for k in &self.dkeys {
            let r = count_le(&self.keys, *k);
            if r > 0 && self.keys[r - 1] == *k {
                return Err(format!("key {k} present in both levels"));
            }
        }
        let live = self
            .slots
            .iter()
            .enumerate()
            .map(|(r, s)| (*s, self.keys[r]))
            .chain(
                self.dslots
                    .iter()
                    .enumerate()
                    .map(|(r, s)| (*s, self.dkeys[r])),
            );
        for (slot, key) in live {
            let entry = self
                .arena
                .get(slot as usize)
                .ok_or_else(|| format!("slot {slot} out of arena bounds"))?;
            if entry.key != key {
                return Err(format!("slot {slot}: arena key {} != sorted key {key}", entry.key));
            }
            if self.free.contains(&slot) {
                return Err(format!("slot {slot} is live and on the free list"));
            }
        }
        if self.keys.len() + self.dkeys.len() + self.free.len() != self.arena.len() {
            return Err("arena slots neither live nor free".into());
        }
        Ok(())
    }
}

/// Ascending iterator over a [`FlatIndex`], see [`FlatIndex::iter_asc`].
pub struct FlatAscIter<'a, M> {
    flat: &'a FlatIndex<M>,
    main: usize,
    delta: usize,
}

impl<'a, M> Iterator for FlatAscIter<'a, M> {
    type Item = (u64, usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, p, id) = self
            .flat
            .next_merged(&mut self.main, &mut self.delta)?;
        Some((k, p, &self.flat.arena[id.0 as usize].meta))
    }
}

/// Ascending handle cursor, see [`FlatIndex::iter_triples`].
pub struct FlatTripleIter<'a, M> {
    flat: &'a FlatIndex<M>,
    main: usize,
    delta: usize,
}

impl<M> Iterator for FlatTripleIter<'_, M> {
    type Item = (u64, usize, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        self.flat.next_merged(&mut self.main, &mut self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn count_le_variants_match_partition_point() {
        let a: Vec<u64> = vec![2, 4, 4, 7, 10, 10, 10, 15];
        for probe in 0..20u64 {
            let expect = a.partition_point(|x| *x <= probe);
            assert_eq!(count_le(&a, probe), expect, "probe {probe}");
        }
        for a in [vec![], vec![3u64]] {
            for probe in [0u64, 2, 3, 4, u64::MAX] {
                assert_eq!(count_le(&a, probe), a.partition_point(|x| *x <= probe));
            }
        }
    }

    fn build(keys: &[u64]) -> FlatIndex<u32> {
        let mut f = FlatIndex::new();
        for (i, k) in keys.iter().enumerate() {
            f.insert(*k, i, i as u32);
        }
        f.check_invariants().unwrap();
        f
    }

    #[test]
    fn empty_index_queries() {
        let f: FlatIndex<()> = FlatIndex::new();
        assert!(f.is_empty());
        assert!(f.find(5).is_none());
        assert!(f.predecessor_or_equal(5).is_none());
        assert!(f.successor_strict(5).is_none());
        assert!(f.min().is_none());
        assert!(f.max().is_none());
        assert_eq!(f.neighbors(5), (None, None));
    }

    #[test]
    fn insert_dedupes_keys() {
        let mut f = FlatIndex::new();
        let (a, fresh_a) = f.insert(10, 1, ());
        let (b, fresh_b) = f.insert(10, 99, ());
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(f.pos(a), 1, "existing entry untouched");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn neighbor_queries_match_btreemap_across_merges() {
        // 500 keys > DELTA_CAP: several bulk merges happen, and at the
        // end entries live in both levels.
        let keys: Vec<u64> = (0..500).map(|i| (i * 977) % 1000).collect();
        let f = build(&keys);
        let model: BTreeMap<u64, ()> = keys.iter().map(|k| (*k, ())).collect();
        for probe in 0..1001 {
            let pred = f.predecessor_or_equal(probe).map(|id| f.key(id));
            assert_eq!(
                pred,
                model.range(..=probe).next_back().map(|(k, _)| *k),
                "pred_or_eq({probe})"
            );
            let succ = f.successor_strict(probe).map(|id| f.key(id));
            assert_eq!(
                succ,
                model
                    .range((std::ops::Bound::Excluded(probe), std::ops::Bound::Unbounded))
                    .next()
                    .map(|(k, _)| *k),
                "succ_strict({probe})"
            );
            let spred = f.predecessor_strict(probe).map(|id| f.key(id));
            assert_eq!(
                spred,
                model.range(..probe).next_back().map(|(k, _)| *k),
                "pred_strict({probe})"
            );
            let seq = f.successor_or_equal(probe).map(|id| f.key(id));
            assert_eq!(
                seq,
                model.range(probe..).next().map(|(k, _)| *k),
                "succ_or_eq({probe})"
            );
            // The combined neighbors call agrees with the individual ones.
            let (np, ns) = f.neighbors(probe);
            assert_eq!(np.map(|(k, _, _)| k), pred);
            assert_eq!(ns.map(|(k, _, _)| k), succ);
        }
    }

    #[test]
    fn handles_stay_valid_across_inserts_and_merges() {
        let mut f = FlatIndex::new();
        let (id50, _) = f.insert(50_000, 500, 0u32);
        // Enough inserts on both sides to trigger multiple delta merges.
        for i in 0..1_000u64 {
            f.insert((i * 7_919) % 100_000, i as usize, 0u32);
        }
        assert_eq!(f.key(id50), 50_000);
        assert_eq!(f.pos(id50), 500);
        f.set_pos(id50, 501);
        *f.meta_mut(id50) += 7;
        assert_eq!(f.pos(id50), 501);
        assert_eq!(*f.meta(id50), 7);
        f.check_invariants().unwrap();
    }

    #[test]
    fn iter_asc_is_sorted_and_complete() {
        let keys: Vec<u64> = (0..300).map(|i| (i * 613) % 997).collect();
        let f = build(&keys);
        let got: Vec<u64> = f.iter_asc().map(|(k, _, _)| k).collect();
        let triples: Vec<u64> = f.iter_triples().map(|(k, _, _)| k).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
        assert_eq!(triples, expect);
        // Triples resolve back to consistent key/pos via the handle.
        for (k, p, id) in f.iter_triples() {
            assert_eq!(f.key(id), k);
            assert_eq!(f.pos(id), p);
        }
    }

    #[test]
    fn remove_matches_model_and_recycles_slots() {
        let keys: Vec<u64> = (0..400).map(|i| (i * 31) % 401).collect();
        let mut f = build(&keys);
        let mut model: BTreeMap<u64, ()> = keys.iter().map(|k| (*k, ())).collect();
        for probe in (0..401).step_by(3) {
            assert_eq!(
                f.remove(probe).is_some(),
                model.remove(&probe).is_some(),
                "remove({probe})"
            );
            f.check_invariants().unwrap();
        }
        let got: Vec<u64> = f.iter_asc().map(|(k, _, _)| k).collect();
        let expect: Vec<u64> = model.keys().copied().collect();
        assert_eq!(got, expect);
        // Re-inserts reuse freed arena slots.
        let arena_len = f.arena.len();
        for k in 1000..1010u64 {
            f.insert(k, 0, 0);
        }
        assert!(f.arena.len() <= arena_len + 10);
        f.check_invariants().unwrap();
    }

    #[test]
    fn min_max_across_levels() {
        let mut f: FlatIndex<()> = FlatIndex::new();
        // Fill past a merge so main holds the middle, then plant fresh
        // delta entries at both extremes.
        for i in 0..DELTA_CAP as u64 {
            f.insert(1_000 + i, 0, ());
        }
        assert!(f.dkeys.is_empty(), "merge must have fired");
        f.insert(5, 0, ());
        f.insert(9_999, 0, ());
        assert_eq!(f.key(f.min().unwrap()), 5);
        assert_eq!(f.key(f.max().unwrap()), 9_999);
        f.check_invariants().unwrap();
    }

    #[test]
    fn clear_resets() {
        let mut f = build(&[1, 2, 3]);
        f.clear();
        assert!(f.is_empty());
        assert!(f.min().is_none());
        let (id, fresh) = f.insert(9, 0, 0);
        assert!(fresh);
        assert_eq!(f.key(id), 9);
        f.check_invariants().unwrap();
    }
}
