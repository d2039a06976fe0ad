//! The piece-oriented cracker index, over a selectable representation.

use crate::avl::{AscIter, AvlTree, IdIter, NodeId};
use crate::flat::{FlatAscIter, FlatIndex, FlatTripleIter};

/// Which physical representation a [`CrackerIndex`] runs on.
///
/// Both representations expose the identical piece semantics and produce
/// bit-identical crack boundaries and piece metadata (pinned by the
/// index-layer differential property test in `tests/prop.rs`). The
/// engines always build the default; the policy exists so tests and the
/// piece-lookup microbenchmark can run the AVL reference beside it:
///
/// * [`IndexPolicy::Flat`] (the default) — two parallel sorted arrays
///   (`keys`, `pos`) plus an arena of per-crack metadata, searched with a
///   lower-bound binary search. Lookups touch a handful of contiguous
///   cache lines; inserts land in a small sorted delta buffer.
///   Fastest once cracking converges, which is exactly when index
///   navigation dominates per-query latency.
/// * [`IndexPolicy::Avl`] — the paper's AVL tree ("original cracking
///   uses AVL-trees", §3). `O(log n)` pointer-chasing everywhere; kept
///   as the reference representation for differential testing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexPolicy {
    /// The arena-based AVL tree (the paper's structure).
    Avl,
    /// The cache-conscious flat sorted-array directory.
    #[default]
    Flat,
}

impl IndexPolicy {
    /// The policy's CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            IndexPolicy::Avl => "avl",
            IndexPolicy::Flat => "flat",
        }
    }

    /// Parses a CLI label (case-insensitive); `None` if unrecognized.
    pub fn parse(s: &str) -> Option<IndexPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "avl" => Some(IndexPolicy::Avl),
            "flat" => Some(IndexPolicy::Flat),
            _ => None,
        }
    }

    /// Both policies, for differential tests and the lookup microbenchmark.
    pub const ALL: [IndexPolicy; 2] = [IndexPolicy::Avl, IndexPolicy::Flat];
}

impl std::fmt::Display for IndexPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-piece metadata that survives piece splits.
///
/// When a crack splits a piece, the paper's monitoring variant requires the
/// new piece to "inherit the counter from its parent piece" (§4,
/// ScrackMon). [`PieceMeta::inherit`] defines what is copied: counters are,
/// in-flight progressive partition jobs are **not** (a job belongs to the
/// exact piece it was created for).
pub trait PieceMeta: Default {
    /// Metadata for a child piece created by splitting the piece owning
    /// `self`.
    fn inherit(&self) -> Self;
}

impl PieceMeta for () {
    fn inherit(&self) {}
}

/// A contiguous region of the cracked column and its key bounds.
///
/// The piece spans positions `[start, end)`. Its keys `k` satisfy
/// `lo_key <= k < hi_key`, where `None` bounds mean "unbounded" (the first
/// and last pieces). `left_crack`/`right_crack` are the index entries that
/// delimit the piece, when they exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    /// First position of the piece.
    pub start: usize,
    /// One past the last position of the piece.
    pub end: usize,
    /// Greatest crack value `<=` every key in the piece (`None` for the
    /// leftmost piece).
    pub lo_key: Option<u64>,
    /// Smallest crack value `>` every key in the piece (`None` for the
    /// rightmost piece).
    pub hi_key: Option<u64>,
    /// Handle of the crack at `start`, if any.
    pub left_crack: Option<NodeId>,
    /// Handle of the crack at `end`, if any.
    pub right_crack: Option<NodeId>,
}

impl Piece {
    /// Number of elements in the piece.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the piece holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The physical representation behind a [`CrackerIndex`].
#[derive(Debug, Clone)]
enum Repr<M> {
    Avl(AvlTree<M>),
    Flat(FlatIndex<M>),
}

/// The cracker index: crack values mapped to positions, seen as pieces.
///
/// Generic over per-piece metadata `M`; the plain engines use `()`,
/// stochastic engines use counters/jobs (defined in `scrack-core`). The
/// representation is chosen at construction via [`IndexPolicy`]
/// ([`CrackerIndex::with_policy`]; [`CrackerIndex::new`] takes the
/// default, [`IndexPolicy::Flat`]) and is invisible to callers: every
/// method below behaves identically under both.
///
/// ```
/// use scrack_index::{CrackerIndex, IndexPolicy};
///
/// // A 100-element column cracked at keys 50 (position 48) and 80 (75).
/// let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
/// idx.add_crack(50, 48);
/// idx.add_crack(80, 75);
///
/// let piece = idx.piece_containing(60);
/// assert_eq!((piece.start, piece.end), (48, 75));
/// assert_eq!((piece.lo_key, piece.hi_key), (Some(50), Some(80)));
/// assert_eq!(idx.piece_count(), 3);
/// assert_eq!(idx.policy(), IndexPolicy::Flat);
/// ```
#[derive(Debug, Clone)]
pub struct CrackerIndex<M: PieceMeta> {
    repr: Repr<M>,
    column_len: usize,
    /// Metadata of the leftmost piece, which has no left crack to hang it on.
    head_meta: M,
}

impl<M: PieceMeta> Default for CrackerIndex<M> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<M: PieceMeta> CrackerIndex<M> {
    /// An index over an uncracked column of `column_len` elements (a
    /// single piece spanning everything) on the default representation.
    pub fn new(column_len: usize) -> Self {
        Self::with_policy(column_len, IndexPolicy::default())
    }

    /// An index on an explicitly chosen representation.
    pub fn with_policy(column_len: usize, policy: IndexPolicy) -> Self {
        let repr = match policy {
            IndexPolicy::Avl => Repr::Avl(AvlTree::new()),
            IndexPolicy::Flat => Repr::Flat(FlatIndex::new()),
        };
        Self {
            repr,
            column_len,
            head_meta: M::default(),
        }
    }

    /// The representation this index runs on.
    pub fn policy(&self) -> IndexPolicy {
        match &self.repr {
            Repr::Avl(_) => IndexPolicy::Avl,
            Repr::Flat(_) => IndexPolicy::Flat,
        }
    }

    /// Number of cracks.
    #[inline]
    pub fn crack_count(&self) -> usize {
        match &self.repr {
            Repr::Avl(t) => t.len(),
            Repr::Flat(f) => f.len(),
        }
    }

    /// Number of pieces (always `crack_count() + 1`).
    #[inline]
    pub fn piece_count(&self) -> usize {
        self.crack_count() + 1
    }

    /// Length of the indexed column.
    #[inline]
    pub fn column_len(&self) -> usize {
        self.column_len
    }

    /// Adjusts the column length (used by updates when tuples are inserted
    /// or deleted at the physical end of the array).
    pub fn set_column_len(&mut self, len: usize) {
        self.column_len = len;
    }

    /// Drops all cracks, returning to the single-piece state (the
    /// representation is kept).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Avl(t) => t.clear(),
            Repr::Flat(f) => f.clear(),
        }
        self.head_meta = M::default();
    }

    /// The piece whose key range contains `key`.
    ///
    /// The flat representation resolves both piece edges from one
    /// lower-bound search per array level; the AVL representation
    /// performs the paper's two tree walks (`predecessor_or_equal` +
    /// `successor_strict`). Identical results by construction.
    #[inline]
    pub fn piece_containing(&self, key: u64) -> Piece {
        let piece = match &self.repr {
            Repr::Avl(t) => {
                let pred = t.predecessor_or_equal(key);
                let succ = t.successor_strict(key);
                Piece {
                    start: pred.map_or(0, |id| t.pos(id)),
                    end: succ.map_or(self.column_len, |id| t.pos(id)),
                    lo_key: pred.map(|id| t.key(id)),
                    hi_key: succ.map(|id| t.key(id)),
                    left_crack: pred,
                    right_crack: succ,
                }
            }
            Repr::Flat(f) => {
                let (pred, succ) = f.neighbors(key);
                Piece {
                    start: pred.map_or(0, |(_, p, _)| p),
                    end: succ.map_or(self.column_len, |(_, p, _)| p),
                    lo_key: pred.map(|(k, _, _)| k),
                    hi_key: succ.map(|(k, _, _)| k),
                    left_crack: pred.map(|(_, _, id)| id),
                    right_crack: succ.map(|(_, _, id)| id),
                }
            }
        };
        // O(1) sanity only — the O(n) monotonicity walk must never run
        // here, even in debug builds (this is the hottest index path).
        debug_assert!(piece.start <= piece.end, "piece bounds inverted");
        debug_assert!(piece.end <= self.column_len, "piece beyond column");
        piece
    }

    /// Registers the crack `(key, pos)`: positions `< pos` hold keys
    /// `< key`, positions `>= pos` hold keys `>= key`.
    ///
    /// The new right-hand piece inherits metadata from the piece being
    /// split. Returns the crack's handle; inserting a crack at an existing
    /// value is a no-op returning the existing handle.
    #[inline]
    pub fn add_crack(&mut self, key: u64, pos: usize) -> NodeId {
        debug_assert!(pos <= self.column_len);
        // Inherit from the piece that `key` currently falls in.
        let parent_meta = match self.crack_at_or_before(key) {
            Some(id) => self.crack_meta(id).inherit(),
            None => self.head_meta.inherit(),
        };
        let (id, fresh) = match &mut self.repr {
            Repr::Avl(t) => t.insert(key, pos, parent_meta),
            Repr::Flat(f) => f.insert(key, pos, parent_meta),
        };
        if fresh {
            // O(1) neighbor check (not the O(n) full walk): the fresh
            // crack must sit between its neighbors' positions.
            debug_assert!(
                self.crack_before(key).is_none_or(|p| self.crack_pos(p) <= pos)
                    && self.crack_after(key).is_none_or(|s| pos <= self.crack_pos(s)),
                "crack ({key},{pos}) broke position monotonicity"
            );
        } else {
            debug_assert_eq!(
                self.crack_pos(id),
                pos,
                "crack at existing value {key} must agree on position"
            );
        }
        id
    }

    /// Metadata of `piece` (its left crack's, or the head metadata).
    #[inline]
    pub fn piece_meta(&self, piece: &Piece) -> &M {
        match piece.left_crack {
            Some(id) => self.crack_meta(id),
            None => &self.head_meta,
        }
    }

    /// Mutable metadata of `piece`.
    #[inline]
    pub fn piece_meta_mut(&mut self, piece: &Piece) -> &mut M {
        match piece.left_crack {
            Some(id) => self.crack_meta_mut(id),
            None => &mut self.head_meta,
        }
    }

    // ------------------------------------------------------------------
    // Handle-oriented access (representation-agnostic; used by the
    // Ripple update path, which shifts crack positions through handles)
    // ------------------------------------------------------------------

    /// Key of the crack behind `id`.
    #[inline]
    pub fn crack_key(&self, id: NodeId) -> u64 {
        match &self.repr {
            Repr::Avl(t) => t.key(id),
            Repr::Flat(f) => f.key(id),
        }
    }

    /// Position of the crack behind `id`.
    #[inline]
    pub fn crack_pos(&self, id: NodeId) -> usize {
        match &self.repr {
            Repr::Avl(t) => t.pos(id),
            Repr::Flat(f) => f.pos(id),
        }
    }

    /// Overwrites the position of the crack behind `id`.
    ///
    /// Positions carry no ordering obligation inside the index (only keys
    /// do); the cracker invariant that positions are monotone in key
    /// order is the caller's to maintain (Ripple shifts them in lockstep
    /// with element moves).
    #[inline]
    pub fn set_crack_pos(&mut self, id: NodeId, pos: usize) {
        match &mut self.repr {
            Repr::Avl(t) => t.set_pos(id, pos),
            Repr::Flat(f) => f.set_pos(id, pos),
        }
    }

    /// Metadata of the crack behind `id` (i.e. of its right-hand piece).
    #[inline]
    pub fn crack_meta(&self, id: NodeId) -> &M {
        match &self.repr {
            Repr::Avl(t) => t.meta(id),
            Repr::Flat(f) => f.meta(id),
        }
    }

    /// Mutable metadata of the crack behind `id`.
    #[inline]
    pub fn crack_meta_mut(&mut self, id: NodeId) -> &mut M {
        match &mut self.repr {
            Repr::Avl(t) => t.meta_mut(id),
            Repr::Flat(f) => f.meta_mut(id),
        }
    }

    /// The crack at exactly `key`, if one exists.
    #[inline]
    pub fn find_crack(&self, key: u64) -> Option<NodeId> {
        match &self.repr {
            Repr::Avl(t) => t.find(key),
            Repr::Flat(f) => f.find(key),
        }
    }

    /// Greatest crack with value `<= key`.
    #[inline]
    pub fn crack_at_or_before(&self, key: u64) -> Option<NodeId> {
        match &self.repr {
            Repr::Avl(t) => t.predecessor_or_equal(key),
            Repr::Flat(f) => f.predecessor_or_equal(key),
        }
    }

    /// Greatest crack with value `< key`.
    #[inline]
    pub fn crack_before(&self, key: u64) -> Option<NodeId> {
        match &self.repr {
            Repr::Avl(t) => t.predecessor_strict(key),
            Repr::Flat(f) => f.predecessor_strict(key),
        }
    }

    /// Smallest crack with value `> key`.
    #[inline]
    pub fn crack_after(&self, key: u64) -> Option<NodeId> {
        match &self.repr {
            Repr::Avl(t) => t.successor_strict(key),
            Repr::Flat(f) => f.successor_strict(key),
        }
    }

    /// The crack with the smallest value.
    #[inline]
    pub fn min_crack(&self) -> Option<NodeId> {
        match &self.repr {
            Repr::Avl(t) => t.min(),
            Repr::Flat(f) => f.min(),
        }
    }

    /// The crack with the greatest value.
    #[inline]
    pub fn max_crack(&self) -> Option<NodeId> {
        match &self.repr {
            Repr::Avl(t) => t.max(),
            Repr::Flat(f) => f.max(),
        }
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Ascending iterator over `(crack_value, position, &meta)` triples.
    pub fn iter_cracks(&self) -> CrackIter<'_, M> {
        CrackIter {
            inner: match &self.repr {
                Repr::Avl(t) => CrackIterRepr::Avl(t.iter_asc()),
                Repr::Flat(f) => CrackIterRepr::Flat(f.iter_asc()),
            },
        }
    }

    /// All pieces in position order, without allocating the piece list.
    ///
    /// This is the hot-path replacement for [`CrackerIndex::pieces`]: the
    /// flat representation iterates with a two-cursor merge over its
    /// arrays (zero allocation), the AVL representation with its
    /// in-order traversal (one `O(log n)` stack allocation for the whole
    /// iteration).
    pub fn iter_pieces(&self) -> PieceIter<'_, M> {
        PieceIter {
            cracks: match &self.repr {
                Repr::Avl(t) => TripleIter::Avl(t, t.iter_ids()),
                Repr::Flat(f) => TripleIter::Flat(f.iter_triples()),
            },
            column_len: self.column_len,
            prev: None,
            done: false,
        }
    }

    /// All pieces in position order, as an owned `Vec`. Allocates;
    /// convenience for inspection and tests — hot paths use
    /// [`CrackerIndex::iter_pieces`].
    pub fn pieces(&self) -> Vec<Piece> {
        self.iter_pieces().collect()
    }

    /// The crack directory as two parallel sorted arrays
    /// `(crack_keys, crack_positions)`, ascending in key.
    ///
    /// A representation-independent copy of the crack set, detached from
    /// the live index. The benchmark's insert replay uses it to rebuild a
    /// fresh index from a converged one and to check that the rebuild
    /// holds the same cracks.
    pub fn crack_arrays(&self) -> (Vec<u64>, Vec<usize>) {
        let n = self.crack_count();
        let (mut keys, mut positions) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (key, pos, _) in self.iter_cracks() {
            keys.push(key);
            positions.push(pos);
        }
        (keys, positions)
    }

    /// Whether crack positions are non-decreasing in key order and within
    /// the column bounds.
    pub fn check_positions_monotone(&self) -> bool {
        let mut prev = 0usize;
        for (_, pos, _) in self.iter_cracks() {
            if pos < prev || pos > self.column_len {
                return false;
            }
            prev = pos;
        }
        true
    }
}

enum CrackIterRepr<'a, M> {
    Avl(AscIter<'a, M>),
    Flat(FlatAscIter<'a, M>),
}

/// Ascending crack iterator, see [`CrackerIndex::iter_cracks`].
pub struct CrackIter<'a, M> {
    inner: CrackIterRepr<'a, M>,
}

impl<'a, M> Iterator for CrackIter<'a, M> {
    type Item = (u64, usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            CrackIterRepr::Avl(it) => it.next(),
            CrackIterRepr::Flat(it) => it.next(),
        }
    }
}

/// Handle/key/pos stream over either representation, in key order.
enum TripleIter<'a, M> {
    Avl(&'a AvlTree<M>, IdIter<'a, M>),
    Flat(FlatTripleIter<'a, M>),
}

impl<M> TripleIter<'_, M> {
    fn next_triple(&mut self) -> Option<(u64, usize, NodeId)> {
        match self {
            TripleIter::Avl(tree, ids) => {
                let id = ids.next()?;
                Some((tree.key(id), tree.pos(id), id))
            }
            TripleIter::Flat(triples) => triples.next(),
        }
    }
}

/// Borrowing piece iterator, see [`CrackerIndex::iter_pieces`].
pub struct PieceIter<'a, M> {
    cracks: TripleIter<'a, M>,
    column_len: usize,
    prev: Option<(u64, usize, NodeId)>,
    done: bool,
}

impl<M> Iterator for PieceIter<'_, M> {
    type Item = Piece;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let (start, lo_key, left) = match self.prev {
            Some((k, p, id)) => (p, Some(k), Some(id)),
            None => (0, None, None),
        };
        match self.cracks.next_triple() {
            Some((k, p, id)) => {
                self.prev = Some((k, p, id));
                Some(Piece {
                    start,
                    end: p,
                    lo_key,
                    hi_key: Some(k),
                    left_crack: left,
                    right_crack: Some(id),
                })
            }
            None => {
                self.done = true;
                Some(Piece {
                    start,
                    end: self.column_len,
                    lo_key,
                    hi_key: None,
                    left_crack: left,
                    right_crack: None,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncracked_column_is_one_piece() {
        let idx: CrackerIndex<()> = CrackerIndex::new(100);
        assert_eq!(idx.piece_count(), 1);
        let p = idx.piece_containing(42);
        assert_eq!((p.start, p.end), (0, 100));
        assert_eq!(p.lo_key, None);
        assert_eq!(p.hi_key, None);
        assert!(p.left_crack.is_none() && p.right_crack.is_none());
    }

    #[test]
    fn piece_lookup_after_cracks_both_policies() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, policy);
            assert_eq!(idx.policy(), policy);
            idx.add_crack(50, 48);
            idx.add_crack(80, 75);
            assert_eq!(idx.piece_count(), 3);

            let p = idx.piece_containing(10);
            assert_eq!((p.start, p.end), (0, 48), "{policy}");
            assert_eq!((p.lo_key, p.hi_key), (None, Some(50)));

            // Key equal to a crack value belongs to the right-hand piece.
            let p = idx.piece_containing(50);
            assert_eq!((p.start, p.end), (48, 75), "{policy}");
            assert_eq!((p.lo_key, p.hi_key), (Some(50), Some(80)));

            let p = idx.piece_containing(79);
            assert_eq!((p.start, p.end), (48, 75), "{policy}");

            let p = idx.piece_containing(99);
            assert_eq!((p.start, p.end), (75, 100), "{policy}");
            assert_eq!((p.lo_key, p.hi_key), (Some(80), None));
        }
    }

    #[test]
    fn add_crack_at_existing_value_is_noop() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, policy);
            let a = idx.add_crack(50, 48);
            let b = idx.add_crack(50, 48);
            assert_eq!(a, b, "{policy}");
            assert_eq!(idx.crack_count(), 1);
        }
    }

    #[test]
    fn policy_labels_parse_and_default() {
        assert_eq!(IndexPolicy::default(), IndexPolicy::Flat);
        for p in IndexPolicy::ALL {
            assert_eq!(IndexPolicy::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(IndexPolicy::parse("AVL"), Some(IndexPolicy::Avl));
        assert_eq!(IndexPolicy::parse("btree"), None);
        let d: CrackerIndex<()> = CrackerIndex::default();
        assert_eq!(d.policy(), IndexPolicy::Flat);
        assert_eq!(d.column_len(), 0);
    }

    #[derive(Default, Debug, Clone, PartialEq)]
    struct Counter {
        count: u32,
        job: Option<&'static str>,
    }

    impl PieceMeta for Counter {
        fn inherit(&self) -> Self {
            Counter {
                count: self.count,
                job: None, // jobs never survive a split
            }
        }
    }

    #[test]
    fn meta_is_inherited_on_split_without_jobs() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<Counter> = CrackerIndex::with_policy(100, policy);
            // Put state on the head piece.
            let head = idx.piece_containing(0);
            *idx.piece_meta_mut(&head) = Counter {
                count: 7,
                job: Some("active"),
            };
            // Splitting it inherits the counter but not the job.
            idx.add_crack(50, 50);
            let left = idx.piece_containing(0);
            let right = idx.piece_containing(60);
            assert_eq!(idx.piece_meta(&left).count, 7, "{policy}");
            assert_eq!(
                idx.piece_meta(&left).job,
                Some("active"),
                "{policy}: parent keeps its job"
            );
            assert_eq!(
                idx.piece_meta(&right).count,
                7,
                "{policy}: child inherits counter"
            );
            assert_eq!(
                idx.piece_meta(&right).job,
                None,
                "{policy}: child must not inherit job"
            );
        }
    }

    #[test]
    fn handles_survive_later_inserts() {
        // The stability contract piece metadata access relies on: a piece
        // handle taken before cracks land elsewhere must stay valid.
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<Counter> = CrackerIndex::with_policy(1000, policy);
            let id = idx.add_crack(500, 480);
            idx.crack_meta_mut(id).count = 3;
            for (k, p) in [(100u64, 90usize), (900, 910), (300, 280), (700, 690)] {
                idx.add_crack(k, p);
            }
            assert_eq!(idx.crack_key(id), 500, "{policy}");
            assert_eq!(idx.crack_pos(id), 480, "{policy}");
            assert_eq!(idx.crack_meta(id).count, 3, "{policy}");
        }
    }

    #[test]
    fn pieces_enumeration_covers_column() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(1000, policy);
            for (k, p) in [(100u64, 90usize), (500, 520), (900, 905), (300, 280)] {
                idx.add_crack(k, p);
            }
            let pieces = idx.pieces();
            assert_eq!(pieces.len(), 5, "{policy}");
            assert_eq!(pieces[0].start, 0);
            assert_eq!(pieces.last().unwrap().end, 1000);
            for w in pieces.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{policy}: pieces must tile");
                assert_eq!(w[0].hi_key, w[1].lo_key, "{policy}");
            }
            // iter_pieces agrees with the collected form item for item.
            let iterated: Vec<Piece> = idx.iter_pieces().collect();
            assert_eq!(iterated, pieces, "{policy}");
            assert_eq!(idx.iter_pieces().count(), idx.piece_count(), "{policy}");
        }
    }

    #[test]
    fn positions_monotonicity_check() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, policy);
            idx.add_crack(10, 20);
            idx.add_crack(20, 40);
            assert!(idx.check_positions_monotone(), "{policy}");
            // Force a violation through the raw handle.
            let id = idx.find_crack(20).unwrap();
            idx.set_crack_pos(id, 5);
            assert!(!idx.check_positions_monotone(), "{policy}");
        }
    }

    #[test]
    fn handle_navigation_walks_cracks_in_both_directions() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, policy);
            for (k, p) in [(10u64, 10usize), (30, 30), (60, 60)] {
                idx.add_crack(k, p);
            }
            // Right-to-left, as ripple_insert walks.
            let mut keys = Vec::new();
            let mut cur = idx.max_crack();
            while let Some(id) = cur {
                keys.push(idx.crack_key(id));
                cur = idx.crack_before(idx.crack_key(id));
            }
            assert_eq!(keys, vec![60, 30, 10], "{policy}");
            // Left-to-right, as ripple_delete walks.
            let mut keys = Vec::new();
            let mut cur = idx.crack_after(0);
            while let Some(id) = cur {
                keys.push(idx.crack_key(id));
                cur = idx.crack_after(idx.crack_key(id));
            }
            assert_eq!(keys, vec![10, 30, 60], "{policy}");
            assert_eq!(idx.min_crack().map(|id| idx.crack_key(id)), Some(10));
            assert_eq!(idx.crack_at_or_before(30).map(|id| idx.crack_key(id)), Some(30));
        }
    }

    #[test]
    fn empty_pieces_are_representable() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, policy);
            idx.add_crack(10, 30);
            idx.add_crack(20, 30); // nothing between keys 10 and 20
            let p = idx.piece_containing(15);
            assert!(p.is_empty(), "{policy}");
            assert_eq!(p.len(), 0);
            assert_eq!((p.start, p.end), (30, 30));
        }
    }

    #[test]
    fn clear_returns_to_single_piece_keeping_policy() {
        for policy in IndexPolicy::ALL {
            let mut idx: CrackerIndex<()> = CrackerIndex::with_policy(100, policy);
            idx.add_crack(10, 30);
            idx.clear();
            assert_eq!(idx.piece_count(), 1, "{policy}");
            assert_eq!(idx.policy(), policy);
            let p = idx.piece_containing(10);
            assert_eq!((p.start, p.end), (0, 100));
        }
    }

    #[test]
    fn column_len_resize() {
        let mut idx: CrackerIndex<()> = CrackerIndex::new(100);
        idx.add_crack(10, 30);
        idx.set_column_len(101);
        let p = idx.piece_containing(50);
        assert_eq!(p.end, 101);
    }

    #[test]
    fn cross_policy_piece_equivalence_on_random_cracks() {
        // The structural core of the cross-policy contract: identical
        // cracks in, identical pieces out — for every probe key, under
        // both representations.
        let mut indexes: Vec<CrackerIndex<()>> = IndexPolicy::ALL
            .iter()
            .map(|p| CrackerIndex::with_policy(10_000, *p))
            .collect();
        // A valid crack set: positions monotone in *key* order, then
        // inserted in shuffled order (as real cracking interleaves).
        let mut state = 0x9E37_79B9u64;
        let mut keys: Vec<u64> = (0..200)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 10_000
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut cracks: Vec<(u64, usize)> = keys
            .iter()
            .map(|k| (*k, ((*k as usize * 9) / 10).min(10_000)))
            .collect();
        for i in (1..cracks.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cracks.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (k, p) in &cracks {
            for idx in &mut indexes {
                idx.add_crack(*k, *p);
            }
        }
        let reference = &indexes[0];
        let ref_cracks: Vec<(u64, usize)> =
            reference.iter_cracks().map(|(k, p, _)| (k, p)).collect();
        for other in &indexes[1..] {
            assert_eq!(reference.crack_count(), other.crack_count());
            let cracks: Vec<(u64, usize)> =
                other.iter_cracks().map(|(k, p, _)| (k, p)).collect();
            assert_eq!(
                ref_cracks,
                cracks,
                "{}: crack lists must be identical",
                other.policy()
            );
            for probe in (0..11_000).step_by(7) {
                let pr = reference.piece_containing(probe);
                let po = other.piece_containing(probe);
                assert_eq!(
                    (pr.start, pr.end, pr.lo_key, pr.hi_key),
                    (po.start, po.end, po.lo_key, po.hi_key),
                    "{}: probe {probe}",
                    other.policy()
                );
            }
            let pieces_r: Vec<(usize, usize)> =
                reference.iter_pieces().map(|p| (p.start, p.end)).collect();
            let pieces_o: Vec<(usize, usize)> =
                other.iter_pieces().map(|p| (p.start, p.end)).collect();
            assert_eq!(pieces_r, pieces_o, "{}", other.policy());
        }
    }
}
