//! The self-driving engine: online config switching at epoch granularity.
//!
//! [`ChooserEngine`](crate::ChooserEngine) picks a crack *path* per query,
//! but all paths share one column under one fixed [`CrackConfig`] — it can
//! never move between engine families that need different construction
//! (selective wrappers, RNcrack) or different config axes (update policy).
//! [`SelfDrivingEngine`] closes that gap: its action space is a
//! [`ConfigSpace`] over the full live cross-product, and switching arms
//! *rebuilds* the engine over the current physical data — exactly the
//! PR-7 `quarantine_rebuild` semantics (index discarded, tuple multiset
//! preserved), so every answer stays oracle-exact across a switch.
//!
//! Because a switch costs a rebuild, decisions run at **epoch**
//! granularity: every [`epoch_len`](SelfDrivingEngine::with_epoch_len)
//! queries the engine feeds the finished epoch's per-query §3 cost
//! (touched + materialized tuples) to its [`ChoicePolicy`] and asks for
//! the next arm. A **stop-loss** guard bounds exploration damage: an
//! epoch whose projected cost exceeds
//! [`stop_factor`](SelfDrivingEngine::with_stop_factor) × the cheapest
//! per-query cost seen so far is cut short and charged to its arm
//! immediately — without it, one pull of a pathological arm (plain
//! cracking under a sequential scan, say) could cost more than a whole
//! converged stream.
//!
//! Switch economics shape the whole decision loop. Cracking cost is
//! logarithmically front-loaded — the first few dozen queries after a
//! rebuild cost the majority of a converged stream's total — so a bandit
//! that force-probes every arm from scratch pays several multiples of
//! the best static config before it has learned anything. Three
//! mechanisms keep regret bounded instead:
//!
//! * **Prior seeding.** At construction every arm's estimate is seeded
//!   with a finite prior cost ([`DEFAULT_PRIOR_RATE`](Self::DEFAULT_PRIOR_RATE)
//!   of a column scan per query), so no policy ever *has* to pull an
//!   untried arm. Estimate ties break toward earlier arms, and menu
//!   order encodes the paper's robustness ranking
//!   ([`ConfigSpace::default_space`] opens on MDD1R) — the engine stays
//!   on the robust default until observed cost beats it, and switches
//!   away the moment the live arm's estimate decays past the prior.
//! * **Grace epochs.** The first epoch after any rebuild is judged
//!   against an absolute budget
//!   ([`DEFAULT_GRACE_FACTOR`](Self::DEFAULT_GRACE_FACTOR) × column
//!   length) instead of the stop-loss floor: a healthy arm's cold-start
//!   spike fits under it, while a pathological arm is cut within a few
//!   column scans.
//! * **Observation sharing.** Kernel policies are wall-clock knobs
//!   with bit-identical `Stats`, and update policies differ by a
//!   couple of percent at realistic rates — below epoch-granular
//!   resolution. Each epoch's cost observation is therefore replayed
//!   onto every arm in the live arm's §3 cost class (same engine). A
//!   distressed arm drags its cost-twins down with it, so the escape
//!   jumps straight to a genuinely different engine instead of burning
//!   rebuilds on indistinguishable variants.
//!
//! Everything is deterministic for a fixed seed: the policy RNG is the
//! only randomness in the decision loop, per-segment engine seeds derive
//! from [`switch_seed`], and costs are counter-based, so a replay
//! reproduces the identical action sequence (the gauntlet asserts this
//! bit-for-bit).

use crate::config_space::ConfigSpace;
use crate::context::QueryContext;
use crate::policy::ChoicePolicy;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scrack_columnstore::QueryOutput;
use scrack_core::{CrackConfig, Engine};
use scrack_types::{Element, QueryRange, Stats};
use scrack_updates::{build_update_engine, CrackAccess, Updatable, UpdateEngine};

/// One online config switch, recorded for replay and audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Query number (0-based) the new config took effect at.
    pub at_query: u64,
    /// Arm index the engine switched away from.
    pub from: usize,
    /// Arm index the engine switched to.
    pub to: usize,
    /// Seed the new engine segment was built with.
    pub seed: u64,
}

/// The seed for the `nth` engine segment (0 = the initial build) under a
/// base seed. Public so differential tests can hand-replay a switch
/// schedule on factory engines with bit-identical randomness.
pub fn switch_seed(base: u64, nth: u64) -> u64 {
    base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(nth.wrapping_add(1))
}

/// An engine that re-decides its own configuration online (see module
/// docs). Implements [`Engine`] plus the update entry points of
/// [`Updatable`], so it slots anywhere a factory engine does, on mixed
/// read/write streams too.
pub struct SelfDrivingEngine<E: Element> {
    engine: Updatable<Box<dyn UpdateEngine<E>>, E>,
    space: ConfigSpace,
    base: CrackConfig,
    base_seed: u64,
    policy: Box<dyn ChoicePolicy>,
    policy_rng: SmallRng,
    epoch_len: u64,
    stop_factor: Option<f64>,
    min_probe: u64,
    current_arm: usize,
    /// Queries answered in the running epoch.
    epoch_queries: u64,
    /// Engine-local stats snapshot at the running epoch's start.
    epoch_start: Stats,
    /// Context captured at the running epoch's start.
    epoch_ctx: QueryContext,
    /// Cheapest completed per-query cost seen so far (stop-loss floor).
    best_per_query: Option<f64>,
    /// Epochs completed by the current engine segment (0 ⇒ the running
    /// epoch is the segment's cold-start grace epoch).
    segment_epochs: u64,
    /// Stats retired by completed engine segments.
    retired: Stats,
    pulls: Vec<u64>,
    actions: Vec<usize>,
    switches: Vec<SwitchEvent>,
    query_no: u64,
    segments: u64,
}

impl<E: Element> std::fmt::Debug for SelfDrivingEngine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfDrivingEngine")
            .field("policy", &self.policy)
            .field("current_arm", &self.current_arm)
            .field("arms", &self.space.len())
            .field("query_no", &self.query_no)
            .field("switches", &self.switches.len())
            .finish_non_exhaustive()
    }
}

impl<E: Element> SelfDrivingEngine<E> {
    /// Default queries per decision epoch.
    pub const DEFAULT_EPOCH_LEN: u64 = 64;
    /// Default stop-loss factor (see module docs).
    pub const DEFAULT_STOP_FACTOR: f64 = 4.0;
    /// Queries an epoch must serve before stop-loss may cut it short
    /// (lets a freshly rebuilt engine absorb its cold-start cost).
    pub const DEFAULT_MIN_PROBE: u64 = 8;
    /// Prior per-query cost every arm is seeded with, as a fraction of a
    /// full column scan. High enough that a healthy arm's sustained rate
    /// stays below it even under heavy update-merge traffic (so the
    /// engine sticks), low enough that a pathological arm's stop-lossed
    /// epochs (whose clamped rate is ~1.0) push its estimate past it
    /// within a couple of decisions (so the engine escapes).
    pub const DEFAULT_PRIOR_RATE: f64 = 0.30;
    /// Absolute budget for a segment's first (grace) epoch, in column
    /// scans: the cold-start re-crack of a healthy arm costs a handful of
    /// scans, a pathological arm is cut the moment it exceeds this.
    pub const DEFAULT_GRACE_FACTOR: f64 = 6.0;

    /// Builds the engine over `space`, starting on the policy's first
    /// choice.
    pub fn new(
        data: Vec<E>,
        base: CrackConfig,
        seed: u64,
        mut policy: Box<dyn ChoicePolicy>,
        space: ConfigSpace,
    ) -> Self {
        let mut policy_rng = SmallRng::seed_from_u64(seed ^ 0xC0F1_65E1);
        let ctx0 = Self::cold_context(data.len(), base);
        // Seed every arm with the finite prior so no policy is forced to
        // round-robin through from-scratch rebuilds of the whole menu.
        let prior = Self::DEFAULT_PRIOR_RATE * data.len() as f64;
        for arm in 0..space.len() {
            policy.observe(arm, &ctx0, &ctx0, prior);
        }
        let arm = policy.choose(&ctx0, space.len(), &mut policy_rng);
        let first = space.arm(arm);
        let engine = build_update_engine(
            first.engine,
            data,
            first.crack_config(base),
            switch_seed(seed, 0),
        );
        let mut pulls = vec![0u64; space.len()];
        pulls[arm] += 1;
        Self {
            engine,
            space,
            base,
            base_seed: seed,
            policy,
            policy_rng,
            epoch_len: Self::DEFAULT_EPOCH_LEN,
            stop_factor: Some(Self::DEFAULT_STOP_FACTOR),
            min_probe: Self::DEFAULT_MIN_PROBE,
            current_arm: arm,
            epoch_queries: 0,
            epoch_start: Stats::new(),
            epoch_ctx: ctx0,
            best_per_query: None,
            segment_epochs: 0,
            retired: Stats::new(),
            pulls,
            actions: vec![arm],
            switches: Vec::new(),
            query_no: 0,
            segments: 1,
        }
    }

    /// The default self-driving setup: ε-greedy tuned for epoch
    /// granularity over [`ConfigSpace::default_space`]. A stream sees a
    /// few dozen decisions and every switch costs an O(n) rebuild, so ε
    /// decays fast (proactive exploration is a rarity, not a schedule)
    /// and the forget factor is strong (two distressed epochs move an
    /// estimate past the prior).
    pub fn new_default(data: Vec<E>, base: CrackConfig, seed: u64) -> Self {
        let policy = crate::bandit::EpsilonGreedy::with_schedule(0.1, 2.0, 0.3);
        Self::new(data, base, seed, Box::new(policy), ConfigSpace::default_space())
    }

    /// Overrides the decision epoch length (queries per decision).
    ///
    /// # Panics
    /// If `epoch_len` is zero.
    pub fn with_epoch_len(mut self, epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        self.epoch_len = epoch_len;
        self
    }

    /// Overrides the stop-loss factor; `None` disables the guard, making
    /// every epoch exactly [`epoch_len`](Self::with_epoch_len) queries —
    /// what the differential tests use to hand-replay schedules.
    pub fn with_stop_factor(mut self, factor: Option<f64>) -> Self {
        assert!(
            factor.is_none_or(|f| f > 1.0),
            "stop factor must exceed 1.0"
        );
        self.stop_factor = factor;
        self
    }

    /// Overrides how many queries an epoch must serve before stop-loss
    /// may cut it short. Lower values bound a pathological epoch's damage
    /// tighter (a distress probe costs `min_probe` bad queries) at the
    /// price of noisier truncated-epoch cost estimates.
    ///
    /// # Panics
    /// If `min_probe` is zero.
    pub fn with_min_probe(mut self, min_probe: u64) -> Self {
        assert!(min_probe > 0, "min probe must be positive");
        self.min_probe = min_probe;
        self
    }

    /// The action space.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The arm currently serving queries.
    pub fn current_arm(&self) -> usize {
        self.current_arm
    }

    /// Decisions per arm (one pull = one epoch), aligned with
    /// [`space`](Self::space).
    pub fn arm_pulls(&self) -> &[u64] {
        &self.pulls
    }

    /// The arm chosen at each decision epoch, in order — the action
    /// sequence the determinism checks compare bit-for-bit.
    pub fn action_log(&self) -> &[usize] {
        &self.actions
    }

    /// Every config switch performed so far.
    pub fn switch_log(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// Queues an insertion (merged on a qualifying query, like
    /// [`Updatable::insert`]).
    pub fn insert(&mut self, elem: E) {
        self.engine.insert(elem);
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: u64) {
        self.engine.delete(key);
    }

    /// Pending updates not yet merged.
    pub fn pending_len(&self) -> usize {
        self.engine.pending_len()
    }

    /// Merges every pending update now.
    pub fn flush(&mut self) -> usize {
        self.engine.flush()
    }

    /// Full integrity check of the live cracker column (tests; O(n)).
    pub fn check_integrity(&mut self) -> Result<(), String> {
        self.engine.check_integrity()
    }

    /// Epoch context before any query has run.
    fn cold_context(len: usize, config: CrackConfig) -> QueryContext {
        let elem = std::mem::size_of::<E>();
        QueryContext {
            column_len: len,
            piece_low_len: len,
            piece_high_len: len,
            crack_count: 0,
            query_no: 0,
            l1_elems: config.crack_size(elem),
            l2_elems: config.progressive_threshold(elem),
        }
    }

    /// Epoch-granular context: the column's mean piece length stands in
    /// for the per-query end pieces (decisions cover whole epochs, not
    /// single queries).
    fn context(&mut self) -> QueryContext {
        let elem = std::mem::size_of::<E>();
        let query_no = self.query_no;
        let col = self.engine.cracked_mut();
        let len = col.data().len();
        let mean_piece = len / (col.index().crack_count() + 1).max(1);
        QueryContext {
            column_len: len,
            piece_low_len: mean_piece,
            piece_high_len: mean_piece,
            crack_count: col.index().crack_count(),
            query_no,
            l1_elems: col.config().crack_size(elem),
            l2_elems: col.config().progressive_threshold(elem),
        }
    }

    /// Whether the running epoch is over (full, or cut by stop-loss).
    fn epoch_over(&self) -> bool {
        if self.epoch_queries >= self.epoch_len {
            return true;
        }
        if self.stop_factor.is_none() || self.epoch_queries < self.min_probe {
            return false;
        }
        let delta = self.engine.stats().since(&self.epoch_start);
        let cost = (delta.touched + delta.materialized) as f64;
        if self.segment_epochs == 0 {
            // Grace epoch: a fresh rebuild has no meaningful floor to be
            // judged against (its cold-start re-crack legitimately costs
            // a few column scans), so it gets an absolute budget instead.
            return cost > Self::DEFAULT_GRACE_FACTOR * self.engine.data().len() as f64;
        }
        let Some(best) = self.best_per_query else {
            return false;
        };
        let factor = self.stop_factor.expect("checked above");
        cost > factor * best * self.epoch_len as f64
    }

    /// Arms in the same §3 cost class as `arm`: everything with the same
    /// engine. Kernel policies are wall-clock knobs with bit-identical
    /// `Stats` by construction, so those twins are exact.
    /// Update-policy twins are exact until the first update is queued and
    /// approximate after — their cost delta at realistic update rates is
    /// a couple of percent, below what epoch-granular estimates can
    /// resolve and far below the O(n) rebuild it would cost to exploit;
    /// letting their estimates drift apart instead just invites rebuild
    /// flapping on stale values.
    fn cost_twins(&self, arm: usize) -> Vec<usize> {
        let a = self.space.arm(arm);
        (0..self.space.len())
            .filter(|&b| b != arm && self.space.arm(b).engine == a.engine)
            .collect()
    }

    /// Closes the epoch: feed its cost back, pick the next arm, switch if
    /// it differs.
    fn decide(&mut self) {
        let delta = self.engine.stats().since(&self.epoch_start);
        let cost = (delta.touched + delta.materialized) as f64;
        let per_query = cost / self.epoch_queries.max(1) as f64;
        // The policy sees per-query cost so truncated epochs compare
        // fairly with full ones. The observation also replays onto every
        // arm currently cost-indistinguishable from the live one, so a
        // distressed arm's escape never lands on one of its own twins.
        let post = self.context();
        self.policy
            .observe(self.current_arm, &self.epoch_ctx, &post, per_query);
        for twin in self.cost_twins(self.current_arm) {
            self.policy.observe(twin, &self.epoch_ctx, &post, per_query);
        }
        if self.epoch_queries >= self.epoch_len {
            // Only full epochs update the stop-loss floor: a truncated
            // epoch's average is dominated by the very spike that cut it.
            self.best_per_query = Some(match self.best_per_query {
                Some(b) => b.min(per_query),
                None => per_query,
            });
        }
        self.segment_epochs += 1;
        let next = self
            .policy
            .choose(&post, self.space.len(), &mut self.policy_rng);
        self.pulls[next] += 1;
        self.actions.push(next);
        if next != self.current_arm {
            self.switch_to(next);
        }
        self.epoch_queries = 0;
        self.epoch_start = self.engine.stats();
        self.epoch_ctx = self.context();
    }

    /// Rebuilds the engine for `arm` over the current physical data —
    /// the quarantine-rebuild contract: pending updates are flushed so
    /// the tuple multiset transfers exactly, earned cracks are discarded,
    /// the segment's stats retire into the cumulative total.
    fn switch_to(&mut self, arm: usize) {
        self.engine.flush();
        self.retired += self.engine.stats();
        let data = self.engine.data().to_vec();
        let seed = switch_seed(self.base_seed, self.segments);
        self.segments += 1;
        let next = self.space.arm(arm);
        self.engine = build_update_engine(next.engine, data, next.crack_config(self.base), seed);
        self.switches.push(SwitchEvent {
            at_query: self.query_no,
            from: self.current_arm,
            to: arm,
            seed,
        });
        self.current_arm = arm;
        self.segment_epochs = 0;
    }
}

impl<E: Element> Engine<E> for SelfDrivingEngine<E> {
    fn name(&self) -> String {
        format!("SelfDriving[{}]", self.policy.label())
    }

    fn select(&mut self, q: QueryRange) -> QueryOutput<E> {
        if self.query_no > 0 && self.epoch_over() {
            self.decide();
        }
        let out = self.engine.select(q);
        self.query_no += 1;
        self.epoch_queries += 1;
        out
    }

    fn data(&self) -> &[E] {
        self.engine.data()
    }

    fn stats(&self) -> Stats {
        self.retired + self.engine.stats()
    }

    fn reset_stats(&mut self) {
        self.retired = Stats::new();
        self.engine.reset_stats();
        self.epoch_start = Stats::new();
    }

    fn quarantine_rebuild(&mut self) {
        self.engine.quarantine_rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PolicyKind;

    fn data(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 2654435761) % n).collect()
    }

    fn drive(seed: u64) -> SelfDrivingEngine<u64> {
        let mut e = SelfDrivingEngine::new(
            data(20_000),
            CrackConfig::default().with_crack_size(64),
            seed,
            PolicyKind::EpsilonGreedy.build(),
            ConfigSpace::default_space(),
        )
        .with_epoch_len(16);
        for i in 0..400u64 {
            let low = (i * 97) % 19_900;
            let out = e.select(QueryRange::new(low, low + 50));
            let expect = data(20_000).iter().filter(|k| low <= **k && **k < low + 50).count();
            assert_eq!(out.len(), expect, "query {i}");
        }
        e
    }

    #[test]
    fn answers_stay_exact_across_switches() {
        let mut e = drive(5);
        assert!(
            !e.switch_log().is_empty(),
            "an exploring bandit over 25 epochs must switch at least once"
        );
        assert_eq!(e.stats().queries, 400);
        e.check_integrity().unwrap();
    }

    #[test]
    fn fixed_seed_replays_identically() {
        let a = drive(9);
        let b = drive(9);
        assert_eq!(a.action_log(), b.action_log());
        assert_eq!(a.switch_log(), b.switch_log());
        assert_eq!(a.stats(), b.stats());
        let c = drive(10);
        assert_ne!(
            (a.action_log(), a.switch_log()),
            (c.action_log(), c.switch_log()),
            "seed must matter"
        );
    }

    #[test]
    fn stats_accumulate_across_segments() {
        let e = drive(5);
        // Retired + live must cover all 400 queries regardless of how
        // many rebuilds happened.
        assert_eq!(e.stats().queries, 400);
        assert!(e.stats().touched > 0);
    }

    #[test]
    fn pulls_align_with_action_log() {
        let e = drive(7);
        let mut counted = vec![0u64; e.space().len()];
        for arm in e.action_log() {
            counted[*arm] += 1;
        }
        assert_eq!(counted, e.arm_pulls());
    }

    #[test]
    fn updates_survive_switches() {
        let mut e = SelfDrivingEngine::new_default(
            data(10_000),
            CrackConfig::default().with_crack_size(64),
            3,
        )
        .with_epoch_len(8);
        e.insert(100_000u64);
        e.insert(100_001u64);
        e.delete(0);
        for i in 0..200u64 {
            let low = (i * 61) % 9_900;
            let _ = e.select(QueryRange::new(low, low + 30));
        }
        let out = e.select(QueryRange::new(99_990, 100_010));
        assert_eq!(out.len(), 2, "appended keys visible after switches");
        let zero = e.select(QueryRange::new(0, 1));
        assert!(zero.is_empty(), "deleted key stays deleted");
        e.check_integrity().unwrap();
    }

    #[test]
    fn switch_seed_is_segment_unique() {
        let seeds: Vec<u64> = (0..32).map(|i| switch_seed(42, i)).collect();
        for (i, s) in seeds.iter().enumerate() {
            assert!(!seeds[..i].contains(s), "segment seeds must differ");
        }
    }

    #[test]
    #[should_panic(expected = "must exceed 1.0")]
    fn bad_stop_factor_rejected() {
        let _ = SelfDrivingEngine::new_default(data(100), CrackConfig::default(), 1)
            .with_stop_factor(Some(0.5));
    }
}
