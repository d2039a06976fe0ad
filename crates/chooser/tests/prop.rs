//! Differential property tests for the self-driving engine.
//!
//! The self-driving engine's contract is that a config switch is pure
//! mechanism: whatever arm sequence the policy produces, the answers and
//! the §3 cost accounting must be *exactly* what you would get by
//! hand-building the corresponding factory engines and replaying the
//! same switch schedule over the same data — flush pending, carry the
//! physical tuple order, retire the segment's stats, derive the next
//! segment's seed with [`switch_seed`]. These tests drive random action
//! sequences over the **full** config cross-product (every
//! update-capable engine × kernel × index × update policy) through
//! random interleaved query/insert/delete streams and assert:
//!
//! * **oracle equality** — every answer matches a sorted-vec multiset
//!   model, across arbitrarily many switches;
//! * **replay equality** — answers, cumulative `Stats`, and the switch
//!   log are bit-identical to the hand-replay on factory engines;
//! * **determinism** — a fixed seed reproduces the identical arm pulls,
//!   action log, and stats under a learning (ε-greedy) policy.

use proptest::prelude::*;
use scrack_chooser::bandit::EpsilonGreedy;
use scrack_chooser::policy::Script;
use scrack_chooser::{switch_seed, ConfigSpace, SelfDrivingEngine, SwitchEvent};
use scrack_core::{CrackConfig, Engine};
use scrack_types::{QueryRange, Stats};
use scrack_updates::build_update_engine;

const N: u64 = 2_000;
/// Update keys may land beyond the original domain (appends).
const KEY_SPAN: u64 = 3 * N / 2;
const EPOCH: u64 = 12;

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

/// The sorted-vec oracle: inserts add one instance, deletes remove one
/// instance (an absent key evaporates), pending updates become visible
/// to the first qualifying query — the `PendingUpdates` contract.
struct Model {
    keys: Vec<u64>,
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

fn config() -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(256)
}

/// Drives the self-driving engine through `ops` under a scripted switch
/// schedule, asserting oracle equality along the way.
fn run_self_driving(
    ops: &[Op],
    script: &[usize],
    seed: u64,
) -> (Vec<(usize, u64)>, Stats, Vec<SwitchEvent>) {
    let data = column(seed);
    let mut model = Model::new(&data);
    let mut engine = SelfDrivingEngine::new(
        data,
        config(),
        seed,
        Box::new(Script::new(script.to_vec())),
        ConfigSpace::full(),
    )
    .with_epoch_len(EPOCH)
    .with_stop_factor(None);
    let mut answers = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Query(a, w) => {
                let q = QueryRange::new(a, a + w);
                let out = engine.select(q);
                let got = (out.len(), out.key_checksum(engine.data()));
                let want = model.query(q);
                assert_eq!(got, want, "self-driving: step {i} query {q} wrong");
                answers.push(got);
            }
            Op::Insert(k) => {
                engine.insert(k);
                model.pending_inserts.push(k);
            }
            Op::Delete(k) => {
                engine.delete(k);
                model.pending_deletes.push(k);
            }
        }
    }
    engine.check_integrity().unwrap();
    (answers, engine.stats(), engine.switch_log().to_vec())
}

/// The reference: hand-replays the same switch schedule on factory
/// engines — the quarantine-rebuild contract spelled out move by move.
fn hand_replay(ops: &[Op], script: &[usize], seed: u64) -> (Vec<(usize, u64)>, Stats, Vec<SwitchEvent>) {
    let space = ConfigSpace::full();
    let arm_at = |decision: usize| script[decision.min(script.len() - 1)];
    let mut current = arm_at(0);
    let first = space.arm(current);
    let mut engine =
        build_update_engine(first.engine, column(seed), first.crack_config(config()), switch_seed(seed, 0));
    let mut retired = Stats::new();
    let mut segments = 1u64;
    let mut decision = 1usize;
    let mut switches = Vec::new();
    let mut answers = Vec::new();
    let (mut query_no, mut epoch_queries) = (0u64, 0u64);
    for op in ops {
        match *op {
            Op::Query(a, w) => {
                if query_no > 0 && epoch_queries >= EPOCH {
                    let next = arm_at(decision);
                    decision += 1;
                    if next != current {
                        engine.flush();
                        retired += engine.stats();
                        let data = engine.data().to_vec();
                        let s = switch_seed(seed, segments);
                        let arm = space.arm(next);
                        engine = build_update_engine(arm.engine, data, arm.crack_config(config()), s);
                        switches.push(SwitchEvent {
                            at_query: query_no,
                            from: current,
                            to: next,
                            seed: s,
                        });
                        segments += 1;
                        current = next;
                    }
                    epoch_queries = 0;
                }
                let out = engine.select(QueryRange::new(a, a + w));
                answers.push((out.len(), out.key_checksum(engine.data())));
                query_no += 1;
                epoch_queries += 1;
            }
            Op::Insert(k) => engine.insert(k),
            Op::Delete(k) => engine.delete(k),
        }
    }
    (answers, retired + engine.stats(), switches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random action sequences over the full cross-product: the
    /// self-driving engine is oracle-exact and bit-identical — answers,
    /// cumulative stats, switch log — to the factory-engine hand-replay.
    #[test]
    fn scripted_switching_matches_factory_hand_replay(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        // Wide range folded by `%` below, so every arm is reachable
        // however large the full space is.
        script in proptest::collection::vec(0usize..1_000, 1..12),
        seed in 0u64..1_000,
    ) {
        let arms = ConfigSpace::full().len();
        let script: Vec<usize> = script.iter().map(|a| a % arms).collect();
        let (answers, stats, switches) = run_self_driving(&ops, &script, seed);
        let (ref_answers, ref_stats, ref_switches) = hand_replay(&ops, &script, seed);
        prop_assert_eq!(answers, ref_answers, "answers diverged from hand-replay");
        prop_assert_eq!(stats, ref_stats, "stats diverged from hand-replay");
        prop_assert_eq!(switches, ref_switches, "switch log diverged from hand-replay");
    }

    /// A fixed seed reproduces the identical decision trajectory under a
    /// learning policy: same arm pulls, same action log, same switches,
    /// same stats — the property the gauntlet's replay gate is built on.
    #[test]
    fn fixed_seed_reproduces_learning_trajectory(
        ops in proptest::collection::vec(op_strategy(), 20..100),
        seed in 0u64..1_000,
    ) {
        let run = |_: ()| {
            let data = column(seed);
            let mut engine = SelfDrivingEngine::new(
                data,
                config(),
                seed,
                Box::new(EpsilonGreedy::with_schedule(0.3, 8.0, 0.3)),
                ConfigSpace::default_space(),
            )
            .with_epoch_len(EPOCH);
            for op in &ops {
                match *op {
                    Op::Query(a, w) => {
                        let _ = engine.select(QueryRange::new(a, a + w));
                    }
                    Op::Insert(k) => engine.insert(k),
                    Op::Delete(k) => engine.delete(k),
                }
            }
            (
                engine.arm_pulls().to_vec(),
                engine.action_log().to_vec(),
                engine.switch_log().to_vec(),
                engine.stats(),
            )
        };
        prop_assert_eq!(run(()), run(()), "fixed seed must replay bit-identically");
    }
}
