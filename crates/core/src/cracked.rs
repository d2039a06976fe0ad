//! The cracker column: data array + cracker index + reorganization ops.
//!
//! This module implements the physical reorganization algorithms of the
//! paper on top of the kernel in `scrack-partition`:
//!
//! * [`CrackedColumn::crack_on`] / [`CrackedColumn::select_original`] —
//!   original database cracking (Idreos et al., CIDR 2007; §2–3);
//! * [`CrackedColumn::ddc_crack`] — Data Driven Center (Fig. 4);
//! * [`CrackedColumn::ddr_crack`] — Data Driven Random;
//! * [`CrackedColumn::dd1c_crack`] / [`CrackedColumn::dd1r_crack`] — the
//!   single-auxiliary-crack variants;
//! * [`CrackedColumn::mdd1r_select`] — materializing DD1R (Fig. 5/6);
//! * [`CrackedColumn::pmdd1r_select`] — progressive stochastic cracking;
//! * [`CrackedColumn::ddm_crack`] / [`CrackedColumn::dd1m_crack`] /
//!   [`CrackedColumn::mdd1m_select`] — the *data-driven midpoint* family
//!   (PR 10, after the ART-cracking study of Wu et al.): auxiliary splits
//!   land on key-space midpoints instead of query predicates or random
//!   pivots, so the split schedule is workload-independent — sequential
//!   and skewed query streams cannot degenerate it — and fully
//!   deterministic (no RNG anywhere in the family).

use crate::config::CrackConfig;
use crate::fault::{self, FaultInjector, FaultKind};
use crate::meta::PieceState;
use rand::Rng;
use scrack_columnstore::QueryOutput;
use scrack_index::{CrackerIndex, Piece};
use scrack_partition::{
    advance_job, crack_in_three_policy, crack_in_two_policy, median_partition_policy,
    scan_filter_policy, split_and_materialize, Fringe, JobStatus, PartitionJob,
};
use scrack_types::{Element, QueryRange, Stats};

/// A column physically reorganized by cracking, plus its cracker index.
///
/// All `*_crack` methods share the contract of the paper's
/// `crack(C, v)`: they return the position `p` such that, afterwards,
/// positions `< p` hold keys `< v` and positions `>= p` hold keys `>= v`,
/// registering every crack they introduce in the index.
#[derive(Debug, Clone)]
pub struct CrackedColumn<E: Element> {
    data: Vec<E>,
    index: CrackerIndex<PieceState>,
    stats: Stats,
    config: CrackConfig,
    /// Evaluates `config.fault` at the reorganization site; one branch
    /// per new crack when disabled (the default).
    fault: FaultInjector,
    /// Cached `(min_key, max_key)` span, computed lazily on the first
    /// midpoint-family operation (the only consumer). May go stale when
    /// updates append keys outside it; staleness only skews the *balance*
    /// of midpoint splits, never their validity, and
    /// [`CrackedColumn::quarantine_rebuild`] recomputes it.
    domain: Option<(u64, u64)>,
}

impl<E: Element> CrackedColumn<E> {
    /// Takes ownership of `data` as a single uncracked piece, indexed by
    /// the flat cracker index.
    pub fn new(data: Vec<E>, config: CrackConfig) -> Self {
        let index = CrackerIndex::new(data.len());
        Self {
            data,
            index,
            stats: Stats::new(),
            config,
            fault: FaultInjector::new(config.fault),
            domain: None,
        }
    }

    /// The column's current physical order.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// The cracker index.
    pub fn index(&self) -> &CrackerIndex<PieceState> {
        &self.index
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Mutable access to the cost counters.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The configuration in effect.
    pub fn config(&self) -> CrackConfig {
        self.config
    }

    /// Splits the column into its raw parts for the update machinery
    /// (Ripple needs to grow/shrink the array and shift crack positions in
    /// lockstep). The caller must uphold the cracker invariant.
    pub fn parts_mut(&mut self) -> (&mut Vec<E>, &mut CrackerIndex<PieceState>, &mut Stats) {
        (&mut self.data, &mut self.index, &mut self.stats)
    }

    /// The `(min_key, max_key)` span of the column's keys, or `None` for
    /// an empty column.
    ///
    /// One O(n) scan, not charged to [`Stats`] (it is metadata for
    /// snapshot publication, not query work): a reader holding the span
    /// can answer bounds that fall **outside** it without any crack
    /// existing — `q.low <= min_key` pins the view start to `0`,
    /// `q.high > max_key` pins the view end to `len` — which is what lets
    /// edge queries (tails past the max key, lows under the min) take the
    /// concurrent read fast path forever instead of re-cracking.
    pub fn key_span(&self) -> Option<(u64, u64)> {
        let mut it = self.data.iter();
        let first = it.next()?.key();
        Some(it.fold((first, first), |(lo, hi), e| {
            let k = e.key();
            (lo.min(k), hi.max(k))
        }))
    }

    /// `CRACK_SIZE` in elements (piece-size threshold of DDC/DDR).
    #[inline]
    fn crack_size(&self) -> usize {
        self.config.crack_size(std::mem::size_of::<E>())
    }

    /// Whether any piece has an in-flight progressive partition job.
    ///
    /// The Ripple update path shifts elements between pieces, which would
    /// invalidate job cursors; updates therefore require this to be false
    /// (it always is for `Crack` and `MDD1R`, the engines the paper's
    /// update experiment uses).
    pub fn has_active_jobs(&self) -> bool {
        self.index
            .iter_pieces()
            .any(|p| self.index.piece_meta(&p).job.is_some())
    }

    /// Full-column invariant check: every piece's keys lie within its
    /// index bounds, and crack positions are monotone. O(n); for tests
    /// and debug assertions only.
    pub fn check_integrity(&self) -> Result<(), String> {
        if !self.index.check_positions_monotone() {
            return Err("crack positions not monotone".into());
        }
        if self.index.column_len() != self.data.len() {
            return Err(format!(
                "index column_len {} != data len {}",
                self.index.column_len(),
                self.data.len()
            ));
        }
        for piece in self.index.iter_pieces() {
            for (i, e) in self.data[piece.start..piece.end].iter().enumerate() {
                let k = e.key();
                if let Some(lo) = piece.lo_key {
                    if k < lo {
                        return Err(format!(
                            "key {k} at {} below piece bound {lo}",
                            piece.start + i
                        ));
                    }
                }
                if let Some(hi) = piece.hi_key {
                    if k >= hi {
                        return Err(format!(
                            "key {k} at {} not below piece bound {hi}",
                            piece.start + i
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Discards the cracker index (and its cost counters) and restarts
    /// from the column's current physical data — the quarantine ladder's
    /// rebuild step. The data multiset is exactly preserved (cracking
    /// only ever swaps within the array), so answers over the rebuilt
    /// column are bit-identical to answers over the old one; what is
    /// lost is the earned crack structure, which subsequent queries
    /// re-earn adaptively. Any planned fault is disarmed: the faulted
    /// unit has been replaced.
    ///
    /// The rebuilt column is bit-identical (state, answers and future
    /// [`Stats`]) to a fresh `CrackedColumn::new` over the same data —
    /// the determinism property `tests` pin across every factory engine.
    pub fn quarantine_rebuild(&mut self) {
        let data = std::mem::take(&mut self.data);
        let config = CrackConfig {
            fault: crate::fault::FaultPlan::disabled(),
            ..self.config
        };
        *self = CrackedColumn::new(data, config);
    }

    /// Registers a crack, counting it only if it is new.
    fn register_crack(&mut self, key: u64, pos: usize) {
        // The fault site: physical reorganization has run, the index has
        // not yet heard about it — the worst place to die or stall.
        if self.fault.poll(FaultKind::PanicInKernel) {
            fault::fire_panic("kernel: crack partition complete, index not updated");
        }
        if self.fault.poll(FaultKind::DelayInCrack) {
            fault::spin_delay(self.fault.plan().delay_units());
        }
        let before = self.index.crack_count();
        self.index.add_crack(key, pos);
        if self.index.crack_count() > before {
            self.stats.cracks += 1;
        }
    }

    /// Completes any in-flight progressive partition of the piece
    /// containing `key`.
    ///
    /// Progressive jobs describe a half-finished physical layout; every
    /// *other* reorganization of that piece must first bring it to a
    /// consistent state, otherwise the job's cursors go stale. Settling
    /// simply runs the job to completion with an unlimited budget (its
    /// remaining work was already paid for proportionally by the queries
    /// that created it), which also registers its crack. No-op for pieces
    /// without a job — the common case for every non-progressive engine.
    fn settle_job_at(&mut self, key: u64) {
        let piece = self.index.piece_containing(key);
        let Some(mut job) = self.index.piece_meta_mut(&piece).job.take() else {
            return;
        };
        let mut sink = Vec::new();
        match advance_job(
            &mut self.data,
            &mut job,
            u64::MAX,
            Fringe::None,
            &mut sink,
            &mut self.stats,
        ) {
            JobStatus::Done { crack_pos } => {
                if crack_pos > piece.start && crack_pos < piece.end {
                    self.register_crack(job.pivot, crack_pos);
                }
            }
            JobStatus::InProgress => unreachable!("unlimited budget always completes"),
        }
    }

    /// Completes every in-flight progressive partition job.
    ///
    /// The Ripple update paths shift elements across piece boundaries,
    /// which would invalidate job cursors; merging pending updates into a
    /// progressive engine therefore settles all jobs first. Cheap when no
    /// jobs exist (one pass over the piece directory, the common case for
    /// every non-progressive engine).
    pub fn settle_all_jobs(&mut self) {
        // Collect one in-range key per job-holding piece first: settling
        // registers cracks, which would invalidate a live piece iterator.
        let keys: Vec<u64> = self
            .index
            .iter_pieces()
            .filter(|p| self.index.piece_meta(p).job.is_some())
            .map(|p| p.lo_key.unwrap_or(0))
            .collect();
        for key in keys {
            self.settle_job_at(key);
        }
        debug_assert!(!self.has_active_jobs());
    }

    // ------------------------------------------------------------------
    // Original cracking
    // ------------------------------------------------------------------

    /// Standard crack on one bound: ensures a crack at `key` exists,
    /// partitioning only the piece that currently contains `key`.
    pub fn crack_on(&mut self, key: u64) -> usize {
        self.settle_job_at(key);
        let piece = self.index.piece_containing(key);
        if piece.lo_key == Some(key) {
            // The boundary already exists; nothing to touch.
            return piece.start;
        }
        let kernel = self.config.kernel;
        let rel = crack_in_two_policy(
            &mut self.data[piece.start..piece.end],
            key,
            kernel,
            &mut self.stats,
        );
        let pos = piece.start + rel;
        self.register_crack(key, pos);
        pos
    }

    /// Original cracking select: crack on both bounds, answer with a view.
    ///
    /// When both bounds fall strictly inside the same piece the column is
    /// split in one three-way pass (Fig. 1, Q1); otherwise each bound
    /// cracks its own piece (Fig. 1, Q2: "at most two end pieces per
    /// query", §3).
    pub fn select_original(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.stats.queries += 1;
        if q.is_empty() {
            return QueryOutput::empty();
        }
        self.original_select_inner(q)
    }

    /// `select_original` without the query-counter bump, shared with the
    /// selective engines' original-cracking path.
    fn original_select_inner(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let pa = self.index.piece_containing(q.low);
        let pb = self.index.piece_containing(q.high);
        if pa == pb && pa.lo_key != Some(q.low) && q.high < pa.hi_key.unwrap_or(u64::MAX) {
            let kernel = self.config.kernel;
            let (r1, r2) = crack_in_three_policy(
                &mut self.data[pa.start..pa.end],
                q.low,
                q.high,
                kernel,
                &mut self.stats,
            );
            let (lo, hi) = (pa.start + r1, pa.start + r2);
            self.register_crack(q.low, lo);
            self.register_crack(q.high, hi);
            QueryOutput::view(lo, hi)
        } else {
            let lo = self.crack_on(q.low);
            let hi = self.crack_on(q.high);
            QueryOutput::view(lo, hi)
        }
    }

    // ------------------------------------------------------------------
    // DDC / DDR / DD1C / DD1R (auxiliary cracks + final bound crack)
    // ------------------------------------------------------------------

    /// DDC crack (Fig. 4): recursively halve the piece containing `key` at
    /// its positional median (introselect) while it exceeds `CRACK_SIZE`,
    /// then crack on `key`.
    pub fn ddc_crack(&mut self, key: u64) -> usize {
        self.data_driven_crack::<rand::rngs::SmallRng>(key, true, None)
    }

    /// DDR crack: like DDC but each auxiliary split pivots on the key of a
    /// uniformly random element of the piece ("a single-branch quicksort").
    pub fn ddr_crack<R: Rng>(&mut self, key: u64, rng: &mut R) -> usize {
        self.data_driven_crack(key, true, Some(rng))
    }

    /// DD1C crack: at most one median split, then crack on `key`.
    pub fn dd1c_crack(&mut self, key: u64) -> usize {
        self.data_driven_crack::<rand::rngs::SmallRng>(key, false, None)
    }

    /// DD1R crack: at most one random split, then crack on `key`.
    pub fn dd1r_crack<R: Rng>(&mut self, key: u64, rng: &mut R) -> usize {
        self.data_driven_crack(key, false, Some(rng))
    }

    /// Shared driver for the DD* family.
    ///
    /// `recursive` distinguishes DDC/DDR (Fig. 4's `while`) from
    /// DD1C/DD1R (`if`). A supplied `rng` selects random pivots (the `R`
    /// variants); `None` selects positional medians via introselect (the
    /// `C` — center — variants).
    fn data_driven_crack<R: Rng>(
        &mut self,
        key: u64,
        recursive: bool,
        mut rng: Option<&mut R>,
    ) -> usize {
        self.settle_job_at(key);
        let piece = self.index.piece_containing(key);
        if piece.lo_key == Some(key) {
            return piece.start;
        }
        let crack_size = self.crack_size();
        let kernel = self.config.kernel;
        let (mut lo, mut hi) = (piece.start, piece.end);
        while hi - lo > crack_size {
            let (pos, pivot) = match rng.as_deref_mut() {
                Some(rng) => {
                    let pivot = self.data[rng.gen_range(lo..hi)].key();
                    let rel =
                        crack_in_two_policy(&mut self.data[lo..hi], pivot, kernel, &mut self.stats);
                    (lo + rel, pivot)
                }
                None => {
                    let (rel, pivot) =
                        median_partition_policy(&mut self.data[lo..hi], kernel, &mut self.stats);
                    (lo + rel, pivot)
                }
            };
            if pos == lo || pos == hi {
                // Degenerate split (e.g. duplicate-heavy piece or an
                // unlucky extreme pivot): no progress on this side; stop
                // recursing and fall through to the bound crack.
                break;
            }
            self.register_crack(pivot, pos);
            if key < pivot {
                hi = pos;
            } else {
                lo = pos;
            }
            if !recursive {
                break;
            }
        }
        let rel = crack_in_two_policy(&mut self.data[lo..hi], key, kernel, &mut self.stats);
        let pos = lo + rel;
        self.register_crack(key, pos);
        pos
    }

    /// Generic two-bound select through one of the DD* crack functions.
    pub fn select_with(
        &mut self,
        q: QueryRange,
        mut crack: impl FnMut(&mut Self, u64) -> usize,
    ) -> QueryOutput<E> {
        self.stats.queries += 1;
        if q.is_empty() {
            return QueryOutput::empty();
        }
        let lo = crack(self, q.low);
        let hi = crack(self, q.high);
        QueryOutput::view(lo, hi)
    }

    // ------------------------------------------------------------------
    // MDD1R (Fig. 5/6)
    // ------------------------------------------------------------------

    /// MDD1R select: never cracks on the query bounds; instead performs
    /// one random-pivot crack per end piece, materializing the qualifying
    /// fringe tuples during the same pass, and returns the fully covered
    /// middle as a view.
    pub fn mdd1r_select(&mut self, q: QueryRange, rng: &mut impl Rng) -> QueryOutput<E> {
        self.stats.queries += 1;
        let mut out = QueryOutput::empty();
        if q.is_empty() {
            return out;
        }
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let p1 = self.index.piece_containing(q.low);
        let p2 = self.index.piece_containing(q.high);
        if p1 == p2 {
            if let Some(fringe) = Self::single_piece_fringe(&p1, q) {
                self.stochastic_fringe(&p1, fringe, rng, &mut out);
            } else {
                // The query exactly covers the piece: pure view, no
                // materialization, no crack ("we avoid materialization
                // altogether when a query exactly matches a piece").
                out.push_view(p1.start, p1.end);
            }
            return out;
        }
        // Left fringe.
        let view_start = if p1.lo_key == Some(q.low) {
            p1.start // the whole piece qualifies; absorb it into the view
        } else {
            self.stochastic_fringe(&p1, Fringe::Low(q.low), rng, &mut out);
            p1.end
        };
        // Right fringe. If `q.high` is an existing boundary, p2 starts at
        // it and holds no qualifying tuples.
        let view_end = if p2.lo_key == Some(q.high) {
            p2.start
        } else {
            self.stochastic_fringe(&p2, Fringe::High(q.high), rng, &mut out);
            p2.start
        };
        out.push_view(view_start, view_end);
        out
    }

    /// The filter needed when both bounds fall in the same piece, or
    /// `None` if the query exactly matches the piece (no work needed).
    fn single_piece_fringe(piece: &Piece, q: QueryRange) -> Option<Fringe> {
        let low_is_boundary = piece.lo_key == Some(q.low);
        let high_is_boundary = piece.hi_key == Some(q.high);
        match (low_is_boundary, high_is_boundary) {
            (true, true) => None,
            (true, false) => Some(Fringe::High(q.high)),
            (false, true) => Some(Fringe::Low(q.low)),
            (false, false) => Some(Fringe::Both(q)),
        }
    }

    /// One random crack + integrated materialization over `piece`.
    fn stochastic_fringe(
        &mut self,
        piece: &Piece,
        fringe: Fringe,
        rng: &mut impl Rng,
        out: &mut QueryOutput<E>,
    ) {
        if piece.len() < 2 {
            // Nothing to split; just filter the (≤1) element.
            scan_filter_policy(
                &self.data[piece.start..piece.end],
                fringe,
                self.config.kernel,
                out.mat_mut(),
                &mut self.stats,
            );
            return;
        }
        let pivot = self.data[piece.start + rng.gen_range(0..piece.len())].key();
        let rel = split_and_materialize(
            &mut self.data[piece.start..piece.end],
            pivot,
            fringe,
            out.mat_mut(),
            &mut self.stats,
        );
        if rel > 0 && rel < piece.len() {
            self.register_crack(pivot, piece.start + rel);
        }
    }

    // ------------------------------------------------------------------
    // Data-driven midpoint family (DDM / DD1M / MDD1M)
    // ------------------------------------------------------------------

    /// The cached key-domain span, computed on first use (see the
    /// `domain` field for the staleness contract).
    fn domain_span(&mut self) -> Option<(u64, u64)> {
        if self.domain.is_none() {
            self.domain = self.key_span();
        }
        self.domain
    }

    /// Key-space bounds `[klo, khi)` of `piece`: its crack bounds where
    /// they exist, the cached column domain where they don't (head/tail
    /// pieces). `khi` is exclusive, so an unbounded tail uses
    /// `max_key + 1`. `None` when the range is empty — possible for a
    /// head/tail piece whose domain-derived bound has gone stale after
    /// updates, in which case callers skip the midpoint split and fall
    /// back to predicate cracking (still correct, just unsplit).
    fn piece_key_bounds(&mut self, piece: &Piece) -> Option<(u64, u64)> {
        let (dlo, dhi) = self.domain_span()?;
        let klo = piece.lo_key.unwrap_or(dlo);
        let khi = piece.hi_key.unwrap_or_else(|| dhi.saturating_add(1));
        (khi > klo).then_some((klo, khi))
    }

    /// The key-space midpoint of `[klo, khi)`, or `None` when the range
    /// holds fewer than two keys (nothing strictly inside to split on).
    fn midpoint(klo: u64, khi: u64) -> Option<u64> {
        (khi - klo >= 2).then(|| klo + (khi - klo) / 2)
    }

    /// DDM crack: recursive key-space midpoint splits down to
    /// `CRACK_SIZE`, then crack on `key`.
    ///
    /// The data-driven analogue of the DDC/DDR drivers with the pivot
    /// *rule* swapped: instead of a random element or positional median
    /// (both functions of the data), the piece's **key range** is halved.
    /// Two consequences: the split schedule converges toward the same
    /// balanced partition tree regardless of query order — sequential and
    /// skewed workloads cannot degenerate it — and the family needs no
    /// RNG, so replay is bit-identical by construction. A midpoint split
    /// that lands on a piece edge (empty half) still halves the key
    /// range, so the loop keeps narrowing — at most 64 halvings — where
    /// the value-pivot variants must break.
    pub fn ddm_crack(&mut self, key: u64) -> usize {
        self.midpoint_crack(key, true)
    }

    /// DD1M crack: at most one midpoint split, then crack on `key`.
    pub fn dd1m_crack(&mut self, key: u64) -> usize {
        self.midpoint_crack(key, false)
    }

    /// Shared driver for DDM/DD1M, mirroring [`Self::data_driven_crack`].
    fn midpoint_crack(&mut self, key: u64, recursive: bool) -> usize {
        self.settle_job_at(key);
        let piece = self.index.piece_containing(key);
        if piece.lo_key == Some(key) {
            return piece.start;
        }
        let crack_size = self.crack_size();
        let kernel = self.config.kernel;
        let (mut lo, mut hi) = (piece.start, piece.end);
        let mut bounds = self.piece_key_bounds(&piece);
        while hi - lo > crack_size {
            let Some((klo, khi)) = bounds else { break };
            let Some(pivot) = Self::midpoint(klo, khi) else {
                break; // key range exhausted (duplicate-heavy piece)
            };
            let rel = crack_in_two_policy(&mut self.data[lo..hi], pivot, kernel, &mut self.stats);
            let pos = lo + rel;
            // Registered even when degenerate (pos == lo or pos == hi):
            // an empty-sided crack is still globally valid — the partition
            // just ran, and everything outside [lo, hi) is bounded by the
            // enclosing cracks — and recording it is what lets the next
            // query skip straight to the narrowed half.
            self.register_crack(pivot, pos);
            if key < pivot {
                hi = pos;
                bounds = Some((klo, pivot));
            } else {
                lo = pos;
                bounds = Some((pivot, khi));
            }
            if !recursive {
                break;
            }
        }
        let rel = crack_in_two_policy(&mut self.data[lo..hi], key, kernel, &mut self.stats);
        let pos = lo + rel;
        self.register_crack(key, pos);
        pos
    }

    /// MDD1M select: the MDD1R query shape — never cracks on the query
    /// bounds; one auxiliary crack per end piece with integrated fringe
    /// materialization; exact-match pieces answered as pure views — with
    /// the random pivot replaced by the piece's key-space midpoint.
    ///
    /// Fully deterministic: physical state depends on *which* pieces
    /// queries touch, never on the query values themselves, and there is
    /// no RNG anywhere. Midpoints halve a touched piece's key range no
    /// matter where the query landed inside it, which is the property the
    /// paper buys with randomness.
    pub fn mdd1m_select(&mut self, q: QueryRange) -> QueryOutput<E> {
        self.stats.queries += 1;
        let mut out = QueryOutput::empty();
        if q.is_empty() {
            return out;
        }
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let p1 = self.index.piece_containing(q.low);
        let p2 = self.index.piece_containing(q.high);
        if p1 == p2 {
            if let Some(fringe) = Self::single_piece_fringe(&p1, q) {
                self.midpoint_fringe(&p1, fringe, &mut out);
            } else {
                out.push_view(p1.start, p1.end);
            }
            return out;
        }
        let view_start = if p1.lo_key == Some(q.low) {
            p1.start
        } else {
            self.midpoint_fringe(&p1, Fringe::Low(q.low), &mut out);
            p1.end
        };
        let view_end = if p2.lo_key == Some(q.high) {
            p2.start
        } else {
            self.midpoint_fringe(&p2, Fringe::High(q.high), &mut out);
            p2.start
        };
        out.push_view(view_start, view_end);
        out
    }

    /// One midpoint crack + integrated materialization over `piece` —
    /// [`Self::stochastic_fringe`] with the pivot rule swapped.
    fn midpoint_fringe(&mut self, piece: &Piece, fringe: Fringe, out: &mut QueryOutput<E>) {
        let pivot = self
            .piece_key_bounds(piece)
            .and_then(|(klo, khi)| Self::midpoint(klo, khi));
        let pivot = match pivot {
            Some(p) if piece.len() >= 2 => p,
            // Nothing to split (singleton piece, or a key range with no
            // interior): just filter the piece.
            _ => {
                scan_filter_policy(
                    &self.data[piece.start..piece.end],
                    fringe,
                    self.config.kernel,
                    out.mat_mut(),
                    &mut self.stats,
                );
                return;
            }
        };
        let rel = split_and_materialize(
            &mut self.data[piece.start..piece.end],
            pivot,
            fringe,
            out.mat_mut(),
            &mut self.stats,
        );
        // Unlike the random-pivot fringe, degenerate splits ARE
        // registered: an empty-sided crack halves the piece's key range,
        // which is exactly what guarantees convergence here.
        self.register_crack(pivot, piece.start + rel);
    }

    // ------------------------------------------------------------------
    // Selective stochastic cracking (per-piece decisions)
    // ------------------------------------------------------------------

    /// A select that decides *per touched piece* whether to apply a
    /// stochastic crack (MDD1R-style) or original cracking.
    ///
    /// `use_stochastic` receives each end piece and its mutable state; it
    /// both makes the decision and maintains any policy state (e.g. the
    /// ScrackMon crack counters). This is the engine room of the paper's
    /// Selective Stochastic Cracking variants (§4, Figs. 17–19); the
    /// per-query policies (FiftyFifty, FlipCoin) are the special case of a
    /// constant decision.
    pub fn selective_select(
        &mut self,
        q: QueryRange,
        rng: &mut impl Rng,
        mut use_stochastic: impl FnMut(&Piece, &mut PieceState) -> bool,
    ) -> QueryOutput<E> {
        self.stats.queries += 1;
        let mut out = QueryOutput::empty();
        if q.is_empty() {
            return out;
        }
        self.settle_job_at(q.low);
        self.settle_job_at(q.high);
        let p1 = self.index.piece_containing(q.low);
        let p2 = self.index.piece_containing(q.high);
        if p1 == p2 {
            return match Self::single_piece_fringe(&p1, q) {
                None => QueryOutput::view(p1.start, p1.end),
                Some(fringe) => {
                    if use_stochastic(&p1, self.index.piece_meta_mut(&p1)) {
                        self.stochastic_fringe(&p1, fringe, rng, &mut out);
                        out
                    } else {
                        self.original_select_inner(q)
                    }
                }
            };
        }
        let view_start = if p1.lo_key == Some(q.low) {
            p1.start
        } else if use_stochastic(&p1, self.index.piece_meta_mut(&p1)) {
            self.stochastic_fringe(&p1, Fringe::Low(q.low), rng, &mut out);
            p1.end
        } else {
            // Original cracking on the low bound: the qualifying suffix of
            // p1 becomes contiguous with the middle.
            self.crack_on(q.low)
        };
        let view_end = if p2.lo_key == Some(q.high) {
            p2.start
        } else if use_stochastic(&p2, self.index.piece_meta_mut(&p2)) {
            self.stochastic_fringe(&p2, Fringe::High(q.high), rng, &mut out);
            p2.start
        } else {
            self.crack_on(q.high)
        };
        out.push_view(view_start, view_end);
        out
    }

    // ------------------------------------------------------------------
    // Progressive stochastic cracking (PMDD1R)
    // ------------------------------------------------------------------

    /// PMDD1R select: MDD1R whose random cracks complete across multiple
    /// queries, each performing at most `swap_pct`% of the piece size in
    /// swaps. Pieces at or below the L2 threshold take the full MDD1R
    /// path. `P100%` behaves identically to MDD1R.
    pub fn pmdd1r_select(
        &mut self,
        q: QueryRange,
        swap_pct: f64,
        rng: &mut impl Rng,
    ) -> QueryOutput<E> {
        self.stats.queries += 1;
        let mut out = QueryOutput::empty();
        if q.is_empty() {
            return out;
        }
        let p1 = self.index.piece_containing(q.low);
        let p2 = self.index.piece_containing(q.high);
        if p1 == p2 {
            if let Some(fringe) = Self::single_piece_fringe(&p1, q) {
                self.progressive_fringe(&p1, fringe, swap_pct, rng, &mut out);
            } else {
                out.push_view(p1.start, p1.end);
            }
            return out;
        }
        let view_start = if p1.lo_key == Some(q.low) {
            p1.start
        } else {
            self.progressive_fringe(&p1, Fringe::Low(q.low), swap_pct, rng, &mut out);
            p1.end
        };
        let view_end = if p2.lo_key == Some(q.high) {
            p2.start
        } else {
            self.progressive_fringe(&p2, Fringe::High(q.high), swap_pct, rng, &mut out);
            p2.start
        };
        out.push_view(view_start, view_end);
        out
    }

    /// Fringe handling with a swap budget: resume (or start) the piece's
    /// partition job; answer the query exactly regardless of how far the
    /// job got.
    fn progressive_fringe(
        &mut self,
        piece: &Piece,
        fringe: Fringe,
        swap_pct: f64,
        rng: &mut impl Rng,
        out: &mut QueryOutput<E>,
    ) {
        let threshold = self.config.progressive_threshold(std::mem::size_of::<E>());
        let has_job = self.index.piece_meta(piece).job.is_some();
        if piece.len() <= threshold && !has_job {
            // Small piece: full MDD1R takes over ("otherwise, we prefer to
            // perform cracking as usual so as to reap the benefits of fast
            // convergence", §4).
            self.stochastic_fringe(piece, fringe, rng, out);
            return;
        }
        let budget = ((piece.len() as f64 * swap_pct / 100.0).ceil() as u64).max(1);
        let mut job = match self.index.piece_meta_mut(piece).job.take() {
            Some(job) => job,
            None => {
                let pivot = self.data[piece.start + rng.gen_range(0..piece.len())].key();
                PartitionJob::new(pivot, piece.start, piece.end)
            }
        };
        let kernel = self.config.kernel;
        // 1. The regions settled by previous queries still need filtering
        //    for *this* query's result.
        scan_filter_policy(
            &self.data[piece.start..job.l],
            fringe,
            kernel,
            out.mat_mut(),
            &mut self.stats,
        );
        scan_filter_policy(
            &self.data[job.r..piece.end],
            fringe,
            kernel,
            out.mat_mut(),
            &mut self.stats,
        );
        // 2. Advance the partition within budget, filtering what it visits.
        match advance_job(
            &mut self.data,
            &mut job,
            budget,
            fringe,
            out.mat_mut(),
            &mut self.stats,
        ) {
            JobStatus::Done { crack_pos } => {
                if crack_pos > piece.start && crack_pos < piece.end {
                    self.register_crack(job.pivot, crack_pos);
                }
                // A degenerate pivot (crack at the piece edge) simply
                // leaves the piece unsplit; the next query draws a new one.
            }
            JobStatus::InProgress => {
                // 3. The untouched middle still holds unfiltered tuples.
                scan_filter_policy(
                    &self.data[job.l..job.r],
                    fringe,
                    kernel,
                    out.mat_mut(),
                    &mut self.stats,
                );
                self.index.piece_meta_mut(piece).job = Some(job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn permuted(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 7919) % n).collect()
    }

    fn column(n: u64) -> CrackedColumn<u64> {
        CrackedColumn::new(permuted(n), CrackConfig::default())
    }

    fn column_with(n: u64, crack_size: usize) -> CrackedColumn<u64> {
        CrackedColumn::new(
            permuted(n),
            CrackConfig::default()
                .with_crack_size(crack_size)
                .with_progressive_threshold(crack_size * 4),
        )
    }

    #[test]
    fn crack_on_establishes_partition_and_index_entry() {
        let mut col = column(1000);
        let p = col.crack_on(400);
        assert_eq!(p, 400, "unique dense keys: boundary position == key");
        assert!(col.data()[..p].iter().all(|k| *k < 400));
        assert!(col.data()[p..].iter().all(|k| *k >= 400));
        assert_eq!(col.index().crack_count(), 1);
        col.check_integrity().unwrap();
    }

    #[test]
    fn crack_on_existing_boundary_is_free() {
        let mut col = column(1000);
        col.crack_on(400);
        let before = col.stats();
        let p = col.crack_on(400);
        assert_eq!(p, 400);
        let delta = col.stats().since(&before);
        assert_eq!(delta.touched, 0, "repeat crack must touch nothing");
        assert_eq!(col.index().crack_count(), 1);
    }

    #[test]
    fn select_original_same_piece_uses_single_pass() {
        let mut col = column(1000);
        let out = col.select_original(QueryRange::new(300, 500));
        assert_eq!(out.len(), 200);
        assert_eq!(out.views().len(), 1);
        // One three-way pass: the whole column touched exactly once, plus
        // the relocation re-examinations; well below two full passes.
        assert!(col.stats().touched < 2 * 1000);
        assert_eq!(col.index().crack_count(), 2);
        col.check_integrity().unwrap();
    }

    #[test]
    fn select_original_across_pieces_cracks_two_end_pieces() {
        let mut col = column(1000);
        col.select_original(QueryRange::new(300, 500)); // pieces at 300, 500
        let before = col.stats();
        // Query spanning the middle piece: only the two end pieces are
        // analyzed (paper §3: "at most two end pieces per query").
        let out = col.select_original(QueryRange::new(200, 600));
        assert_eq!(out.len(), 400);
        let delta = col.stats().since(&before);
        assert!(
            delta.touched <= 300 + 500,
            "only the end pieces may be touched, got {}",
            delta.touched
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn mdd1r_never_cracks_on_query_bounds() {
        let mut col = column_with(10_000, 64);
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..50u64 {
            let a = (i * 190) % 9_500;
            let _ = col.mdd1r_select(QueryRange::new(a, a + 200), &mut rng);
        }
        // No crack value may equal any query bound (probability ~0 for a
        // random pivot to hit a bound exactly is nonzero but the dense
        // permutation and seeds here avoid it; the structural check is
        // that cracks came from data-driven pivots, not from bounds).
        let bound_cracks = col
            .index()
            .iter_cracks()
            .filter(|(k, _, _)| k % 190 == 0 || (k + 200) % 190 == 0)
            .count();
        let total = col.index().crack_count();
        assert!(
            bound_cracks < total / 2,
            "suspiciously many cracks on bounds: {bound_cracks}/{total}"
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn mdd1r_exact_piece_match_is_pure_view() {
        let mut col = column(1000);
        // Create boundaries at 300 and 500 with original cracking.
        col.crack_on(300);
        col.crack_on(500);
        let before = col.stats();
        let mut rng = SmallRng::seed_from_u64(5);
        let out = col.mdd1r_select(QueryRange::new(300, 500), &mut rng);
        assert_eq!(out.len(), 200);
        assert!(out.mat().is_empty(), "exact match must not materialize");
        let delta = col.stats().since(&before);
        assert_eq!(delta.touched, 0, "exact match must not touch data");
    }

    #[test]
    fn mdd1r_fringe_materialization_plus_view() {
        let mut col = column(1000);
        col.crack_on(300);
        col.crack_on(500);
        let mut rng = SmallRng::seed_from_u64(5);
        // Bounds fall inside the first and last pieces; middle is a view.
        let out = col.mdd1r_select(QueryRange::new(100, 800), &mut rng);
        assert_eq!(out.len(), 700);
        assert!(!out.mat().is_empty(), "fringes must be materialized");
        assert_eq!(out.views().len(), 1, "middle must be a single view");
        let view_len: usize = out.views().iter().map(|(s, e)| e - s).sum();
        assert!(view_len >= 200, "view must cover at least [300,500)");
        col.check_integrity().unwrap();
    }

    #[test]
    fn ddc_halves_large_pieces_before_bound_crack() {
        let mut col = column_with(4096, 256);
        col.ddc_crack(10);
        // Median cracks at 2048, 1024, 512, 256(ish) + the bound crack.
        let cracks: Vec<u64> = col.index().iter_cracks().map(|(k, _, _)| k).collect();
        assert!(
            cracks.contains(&2048),
            "first median split missing: {cracks:?}"
        );
        assert!(cracks.contains(&1024), "second median split missing");
        assert!(cracks.contains(&10), "bound crack missing");
        assert!(col.index().crack_count() >= 4);
        col.check_integrity().unwrap();
    }

    #[test]
    fn dd1c_adds_exactly_one_auxiliary_crack() {
        let mut col = column_with(4096, 256);
        col.dd1c_crack(10);
        // One median crack + one bound crack.
        assert_eq!(col.index().crack_count(), 2);
        let cracks: Vec<u64> = col.index().iter_cracks().map(|(k, _, _)| k).collect();
        assert_eq!(cracks, vec![10, 2048]);
    }

    #[test]
    fn dd_family_skips_auxiliary_cracks_below_threshold() {
        let mut col = column_with(100, 256); // whole column below CRACK_SIZE
        let mut rng = SmallRng::seed_from_u64(5);
        col.ddc_crack(10);
        col.ddr_crack(20, &mut rng);
        col.dd1c_crack(30);
        col.dd1r_crack(40, &mut rng);
        // Only the four bound cracks; no auxiliary work.
        assert_eq!(col.index().crack_count(), 4);
        col.check_integrity().unwrap();
    }

    #[test]
    fn pmdd1r_budget_spreads_one_crack_over_queries() {
        let n = 100_000u64;
        let mut col = CrackedColumn::new(
            permuted(n),
            CrackConfig::default()
                .with_crack_size(64)
                .with_progressive_threshold(1_000),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let q = QueryRange::new(1_000, 1_100);
        let out = col.pmdd1r_select(q, 1.0, &mut rng);
        assert_eq!(out.len(), 100);
        assert!(col.has_active_jobs(), "1% budget cannot finish 100k swaps");
        assert_eq!(col.index().crack_count(), 0, "crack lands only when done");
        // Swaps capped at ~1% of the piece (one fringe piece = whole col).
        assert!(
            col.stats().swaps <= n / 100 + 2,
            "swaps {}",
            col.stats().swaps
        );
        // Repeating the query finishes the job eventually.
        let mut rounds = 0;
        while col.has_active_jobs() {
            let out = col.pmdd1r_select(q, 1.0, &mut rng);
            assert_eq!(out.len(), 100, "every round answers exactly");
            rounds += 1;
            assert!(rounds < 200, "job must complete");
        }
        assert!(
            col.index().crack_count() >= 1,
            "completed job registered its crack"
        );
        assert!(
            rounds > 5,
            "a 1% budget must need many rounds, took {rounds}"
        );
        col.check_integrity().unwrap();
    }

    #[test]
    fn pmdd1r_small_pieces_take_full_mdd1r_path() {
        let mut col = column_with(500, 64); // threshold = 256 > piece? n=500 > 256
        let mut rng = SmallRng::seed_from_u64(5);
        // First query on a big piece starts progressive; but a piece below
        // the threshold must be cracked in one go.
        let _ = col.pmdd1r_select(QueryRange::new(100, 120), 10.0, &mut rng);
        // Run until no jobs remain, then all further work is immediate.
        let mut rounds = 0;
        while col.has_active_jobs() && rounds < 100 {
            let _ = col.pmdd1r_select(QueryRange::new(100, 120), 10.0, &mut rng);
            rounds += 1;
        }
        assert!(!col.has_active_jobs());
        col.check_integrity().unwrap();
    }

    #[test]
    fn p100_equals_mdd1r_in_cracks_per_query() {
        let n = 10_000u64;
        let mut a = column_with(n, 64);
        let mut b = column_with(n, 64);
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        for i in 0..30u64 {
            let lo = (i * 310) % 9_000;
            let q = QueryRange::new(lo, lo + 100);
            let out_a = a.mdd1r_select(q, &mut rng_a);
            let out_b = b.pmdd1r_select(q, 100.0, &mut rng_b);
            assert_eq!(out_a.len(), out_b.len(), "query {i}");
        }
        assert!(!b.has_active_jobs(), "P100% always completes in one query");
        a.check_integrity().unwrap();
        b.check_integrity().unwrap();
    }

    #[test]
    fn settle_makes_mixing_progressive_and_original_safe() {
        // Regression test for the proptest-found bug: a progressive job
        // followed by original cracking of the same piece.
        let mut col = column_with(1_000, 16);
        let mut rng = SmallRng::seed_from_u64(63);
        let _ = col.pmdd1r_select(QueryRange::new(0, 1), 10.0, &mut rng);
        assert!(col.has_active_jobs());
        col.crack_on(90);
        assert!(!col.has_active_jobs(), "crack_on must settle the job");
        col.check_integrity().unwrap();
        let _ = col.pmdd1r_select(QueryRange::new(0, 1), 10.0, &mut rng);
        col.check_integrity().unwrap();
        // And mixing with every other op keeps integrity too.
        col.ddc_crack(500);
        col.ddr_crack(700, &mut rng);
        let _ = col.mdd1r_select(QueryRange::new(40, 60), &mut rng);
        let _ = col.select_original(QueryRange::new(800, 900));
        col.check_integrity().unwrap();
    }

    #[test]
    fn selective_monitor_counts_and_resets() {
        let mut col = column_with(10_000, 64);
        let mut rng = SmallRng::seed_from_u64(5);
        // Threshold 2: first two cracks of a piece are original, third is
        // stochastic (which resets).
        let decide = |_: &Piece, meta: &mut PieceState| {
            if meta.crack_count >= 2 {
                meta.crack_count = 0;
                true
            } else {
                meta.crack_count += 1;
                false
            }
        };
        for i in 0..20u64 {
            let a = (i * 450) % 9_000;
            let out = col.selective_select(QueryRange::new(a, a + 100), &mut rng, decide);
            assert_eq!(out.len(), 100, "query {i}");
        }
        col.check_integrity().unwrap();
    }

    #[test]
    fn empty_query_costs_nothing() {
        let mut col = column(1000);
        let mut rng = SmallRng::seed_from_u64(5);
        let before = col.stats();
        assert!(col.select_original(QueryRange::new(5, 5)).is_empty());
        assert!(col.mdd1r_select(QueryRange::new(7, 3), &mut rng).is_empty());
        assert!(col
            .pmdd1r_select(QueryRange::new(0, 0), 10.0, &mut rng)
            .is_empty());
        let delta = col.stats().since(&before);
        assert_eq!(delta.touched, 0);
        assert_eq!(delta.cracks, 0);
    }

    #[test]
    fn bounds_beyond_domain_are_fine() {
        let mut col = column(1000);
        let out = col.select_original(QueryRange::new(990, 5_000));
        assert_eq!(out.len(), 10);
        let mut rng = SmallRng::seed_from_u64(5);
        let out = col.mdd1r_select(QueryRange::new(2_000, 3_000), &mut rng);
        assert!(out.is_empty());
        col.check_integrity().unwrap();
    }

    #[test]
    fn stats_track_query_count_per_select_flavor() {
        let mut col = column(1000);
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = col.select_original(QueryRange::new(1, 2));
        let _ = col.mdd1r_select(QueryRange::new(3, 4), &mut rng);
        let _ = col.pmdd1r_select(QueryRange::new(5, 6), 10.0, &mut rng);
        let _ = col.selective_select(QueryRange::new(7, 8), &mut rng, |_, _| true);
        let _ = col.select_with(QueryRange::new(9, 10), |c, k| c.crack_on(k));
        assert_eq!(col.stats().queries, 5);
    }
}
