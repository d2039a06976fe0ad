//! Self-driving batch serving: online reconfiguration of a
//! [`BatchScheduler`].
//!
//! The batch scheduler serves whole query batches over key-disjoint
//! shards; its live configuration is the pair (serving strategy,
//! [`CrackConfig`]). [`SelfDrivingScheduler`] closes the same loop as
//! [`SelfDrivingEngine`](crate::SelfDrivingEngine) one level up: after
//! every decision epoch (a fixed number of batches) it feeds the epoch's
//! §3 cost to its [`ChoicePolicy`] and, when the policy picks a different
//! arm, calls [`BatchScheduler::reconfigure`] — every shard rebuilds from
//! its live data under the new config, so batch answers stay exact across
//! a switch.
//!
//! Scheduler arms map [`ConfigArm::engine`] onto the serving strategy:
//! `Crack` serves with original cracking, `Mdd1r` stochastically
//! ([`ParallelStrategy`]); the other config axes pass through unchanged.
//! [`scheduler_space`] is the ready-made menu.

use crate::config_space::{ConfigArm, ConfigSpace};
use crate::policy::ChoicePolicy;
use crate::self_driving::{switch_seed, SwitchEvent};
use crate::QueryContext;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scrack_core::{CrackConfig, EngineKind, KernelPolicy, UpdatePolicy};
use scrack_parallel::{BatchOp, BatchScheduler, ParallelStrategy};
use scrack_types::{Element, QueryRange, Stats};

/// The scheduler's action space: both serving strategies × both update
/// policies (the cost-visible axes at batch granularity).
pub fn scheduler_space() -> ConfigSpace {
    let mut arms = Vec::new();
    for engine in [EngineKind::Crack, EngineKind::Mdd1r] {
        for update in UpdatePolicy::ALL {
            arms.push(ConfigArm {
                engine,
                kernel: KernelPolicy::default(),
                update,
            });
        }
    }
    ConfigSpace::new(arms)
}

/// The serving strategy a scheduler arm maps to; `None` for engine kinds
/// the batch scheduler has no serving path for.
fn strategy_of(arm: &ConfigArm) -> Option<ParallelStrategy> {
    match arm.engine {
        EngineKind::Crack => Some(ParallelStrategy::Crack),
        EngineKind::Mdd1r => Some(ParallelStrategy::Stochastic),
        _ => None,
    }
}

/// A [`BatchScheduler`] that re-decides its own configuration online
/// (see module docs).
pub struct SelfDrivingScheduler<E: Element> {
    sched: BatchScheduler<E>,
    space: ConfigSpace,
    base: CrackConfig,
    base_seed: u64,
    policy: Box<dyn ChoicePolicy>,
    policy_rng: SmallRng,
    epoch_batches: u64,
    column_len: usize,
    current_arm: usize,
    batches_in_epoch: u64,
    epoch_start: Stats,
    retired: Stats,
    pulls: Vec<u64>,
    actions: Vec<usize>,
    switches: Vec<SwitchEvent>,
    batch_no: u64,
    segments: u64,
}

impl<E: Element> std::fmt::Debug for SelfDrivingScheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelfDrivingScheduler")
            .field("policy", &self.policy)
            .field("current_arm", &self.current_arm)
            .field("batch_no", &self.batch_no)
            .field("switches", &self.switches.len())
            .finish_non_exhaustive()
    }
}

impl<E: Element> SelfDrivingScheduler<E> {
    /// Default batches per decision epoch.
    pub const DEFAULT_EPOCH_BATCHES: u64 = 8;

    /// Builds the scheduler over `space` (every arm must map to a serving
    /// strategy — see [`scheduler_space`]), starting on the policy's
    /// first choice.
    ///
    /// # Panics
    /// If any arm's engine kind has no scheduler serving path.
    pub fn new(
        data: Vec<E>,
        shard_count: usize,
        base: CrackConfig,
        seed: u64,
        mut policy: Box<dyn ChoicePolicy>,
        space: ConfigSpace,
    ) -> Self {
        for arm in space.arms() {
            assert!(
                strategy_of(arm).is_some(),
                "{} has no batch-scheduler serving path",
                arm.label()
            );
        }
        let column_len = data.len();
        let mut policy_rng = SmallRng::seed_from_u64(seed ^ 0x5E1F_D81F);
        let ctx0 = Self::context_of(column_len, 0, 0, base);
        let arm = policy.choose(&ctx0, space.len(), &mut policy_rng);
        let first = space.arm(arm);
        let sched = BatchScheduler::new(
            data,
            shard_count,
            strategy_of(&first).expect("validated above"),
            first.crack_config(base),
            switch_seed(seed, 0),
        );
        let mut pulls = vec![0u64; space.len()];
        pulls[arm] += 1;
        Self {
            sched,
            space,
            base,
            base_seed: seed,
            policy,
            policy_rng,
            epoch_batches: Self::DEFAULT_EPOCH_BATCHES,
            column_len,
            current_arm: arm,
            batches_in_epoch: 0,
            epoch_start: Stats::new(),
            retired: Stats::new(),
            pulls,
            actions: vec![arm],
            switches: Vec::new(),
            batch_no: 0,
            segments: 1,
        }
    }

    /// The default setup: epoch-tuned ε-greedy over [`scheduler_space`].
    pub fn new_default(data: Vec<E>, shard_count: usize, base: CrackConfig, seed: u64) -> Self {
        let policy = crate::bandit::EpsilonGreedy::with_schedule(0.3, 8.0, 0.3);
        Self::new(data, shard_count, base, seed, Box::new(policy), scheduler_space())
    }

    /// Overrides the decision epoch length (batches per decision).
    ///
    /// # Panics
    /// If `epoch_batches` is zero.
    pub fn with_epoch_batches(mut self, epoch_batches: u64) -> Self {
        assert!(epoch_batches > 0, "epoch length must be positive");
        self.epoch_batches = epoch_batches;
        self
    }

    fn context_of(len: usize, cracks: u64, batch_no: u64, config: CrackConfig) -> QueryContext {
        let elem = std::mem::size_of::<E>();
        let mean_piece = len / (cracks as usize + 1).max(1);
        QueryContext {
            column_len: len,
            piece_low_len: mean_piece,
            piece_high_len: mean_piece,
            crack_count: cracks as usize,
            query_no: batch_no,
            l1_elems: config.crack_size(elem),
            l2_elems: config.progressive_threshold(elem),
        }
    }

    fn context(&self) -> QueryContext {
        Self::context_of(
            self.column_len,
            self.sched.stats().cracks,
            self.batch_no,
            self.base,
        )
    }

    /// Closes the epoch: observe the per-batch cost, pick the next arm,
    /// reconfigure the scheduler if it differs.
    fn decide(&mut self, epoch_ctx: &QueryContext) {
        let delta = self.sched.stats().since(&self.epoch_start);
        let per_batch =
            (delta.touched + delta.materialized) as f64 / self.batches_in_epoch.max(1) as f64;
        let post = self.context();
        self.policy
            .observe(self.current_arm, epoch_ctx, &post, per_batch);
        let next = self
            .policy
            .choose(&post, self.space.len(), &mut self.policy_rng);
        self.pulls[next] += 1;
        self.actions.push(next);
        if next != self.current_arm {
            let arm = self.space.arm(next);
            let seed = switch_seed(self.base_seed, self.segments);
            self.segments += 1;
            self.retired += self.sched.reconfigure(
                strategy_of(&arm).expect("validated at construction"),
                arm.crack_config(self.base),
                seed,
            );
            self.switches.push(SwitchEvent {
                at_query: self.batch_no,
                from: self.current_arm,
                to: next,
                seed,
            });
            self.current_arm = next;
        }
        self.batches_in_epoch = 0;
        self.epoch_start = self.sched.stats();
    }

    fn maybe_decide(&mut self) {
        if self.batch_no > 0 && self.batches_in_epoch >= self.epoch_batches {
            let ctx = self.context();
            self.decide(&ctx);
        }
    }

    /// Executes one read batch (see [`BatchScheduler::execute`]),
    /// re-deciding the configuration at epoch boundaries.
    pub fn execute(&mut self, batch: &[QueryRange]) -> Vec<(usize, u64)> {
        self.maybe_decide();
        let out = self.sched.execute(batch);
        self.batch_no += 1;
        self.batches_in_epoch += 1;
        out
    }

    /// Executes one mixed read/write batch (see
    /// [`BatchScheduler::execute_ops`]).
    pub fn execute_ops(&mut self, ops: &[BatchOp<E>]) -> Vec<(usize, u64)> {
        self.maybe_decide();
        let out = self.sched.execute_ops(ops);
        self.batch_no += 1;
        self.batches_in_epoch += 1;
        out
    }

    /// Cumulative physical costs across every configuration served.
    pub fn stats(&self) -> Stats {
        self.retired + self.sched.stats()
    }

    /// The action space.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The arm currently serving batches.
    pub fn current_arm(&self) -> usize {
        self.current_arm
    }

    /// Decisions per arm (one pull = one epoch).
    pub fn arm_pulls(&self) -> &[u64] {
        &self.pulls
    }

    /// The arm chosen at each decision epoch, in order.
    pub fn action_log(&self) -> &[usize] {
        &self.actions
    }

    /// Every reconfiguration performed so far (`at_query` is the batch
    /// number it took effect at).
    pub fn switch_log(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// The wrapped scheduler (shard inspection, integrity checks).
    pub fn scheduler(&self) -> &BatchScheduler<E> {
        &self.sched
    }

    /// Full integrity check of every shard (tests only; O(n)).
    pub fn check_integrity(&self) -> Result<(), String> {
        self.sched.check_integrity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PolicyKind;

    fn data(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 2654435761) % n).collect()
    }

    fn batches(n: u64, count: usize, width: u64) -> Vec<Vec<QueryRange>> {
        (0..count as u64)
            .map(|b| {
                (0..16u64)
                    .map(|i| {
                        let low = (b * 977 + i * 131) % (n - width);
                        QueryRange::new(low, low + width)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn answers_match_a_static_scheduler_oracle() {
        let n = 40_000u64;
        let raw = data(n);
        let mut driving = SelfDrivingScheduler::new_default(
            raw.clone(),
            4,
            CrackConfig::default().with_crack_size(64),
            11,
        )
        .with_epoch_batches(3);
        // Scan-derived expected aggregates are config-independent.
        for batch in batches(n, 30, 200) {
            let results = driving.execute(&batch);
            for (q, (count, sum)) in batch.iter().zip(&results) {
                let expect = raw
                    .iter()
                    .filter(|k| q.contains(**k))
                    .fold((0usize, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)));
                assert_eq!((*count, *sum), expect);
            }
        }
        assert!(
            !driving.switch_log().is_empty(),
            "the bandit must reconfigure at least once over 10 epochs"
        );
        driving.check_integrity().unwrap();
    }

    #[test]
    fn fixed_seed_replays_identically() {
        let run = |seed: u64| {
            let mut s = SelfDrivingScheduler::new_default(
                data(20_000),
                4,
                CrackConfig::default().with_crack_size(64),
                seed,
            )
            .with_epoch_batches(2);
            for batch in batches(20_000, 20, 100) {
                s.execute(&batch);
            }
            (
                s.action_log().to_vec(),
                s.switch_log().to_vec(),
                s.stats(),
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn mixed_batches_survive_reconfiguration() {
        let n = 10_000u64;
        let mut s = SelfDrivingScheduler::new_default(
            data(n),
            2,
            CrackConfig::default().with_crack_size(64),
            3,
        )
        .with_epoch_batches(2);
        for b in 0..12u64 {
            let mut ops: Vec<BatchOp<u64>> = vec![BatchOp::Insert(n + b)];
            for i in 0..8u64 {
                let low = (b * 700 + i * 97) % (n - 50);
                ops.push(BatchOp::Select(QueryRange::new(low, low + 50)));
            }
            let out = s.execute_ops(&ops);
            assert_eq!(out.len(), ops.len());
        }
        // All 12 appended keys must be visible regardless of switches.
        let out = s.execute(&[QueryRange::new(n, n + 100)]);
        assert_eq!(out[0].0, 12);
        assert_eq!(s.stats().queries, s.stats().queries, "stats well-formed");
        s.check_integrity().unwrap();
    }

    #[test]
    fn scheduler_space_arms_all_map_to_strategies() {
        for arm in scheduler_space().arms() {
            assert!(strategy_of(arm).is_some());
        }
        assert_eq!(scheduler_space().len(), 4);
    }

    #[test]
    #[should_panic(expected = "no batch-scheduler serving path")]
    fn unsupported_engine_rejected() {
        let space = ConfigSpace::new(vec![ConfigArm::engine_only(EngineKind::Ddc)]);
        let _ = SelfDrivingScheduler::new(
            data(100),
            2,
            CrackConfig::default(),
            1,
            PolicyKind::EpsilonGreedy.build(),
            space,
        );
    }
}
