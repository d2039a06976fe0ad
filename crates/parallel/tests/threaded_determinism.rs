//! Multi-threaded determinism: the concurrent wrappers must not let
//! thread scheduling leak into their physical cost accounting.
//!
//! This extends the single-threaded determinism suite
//! (`crates/core/tests/determinism.rs`) to the `scrack_parallel` layer:
//! every run here executes real threads, then replays the identical work
//! single-threaded and asserts **bit-identical final [`Stats`]** (and
//! oracle-equal answers) under both the `Branchy` and `Branchless`
//! kernel policies. The pillars:
//!
//! 1. [`BatchScheduler`]: `execute` (work-stealing workers over shard
//!    queues) vs `execute_serial` — per-shard queues are drained in a
//!    fixed order with per-shard RNG streams, so scheduling cannot
//!    matter.
//! 2. [`PieceLockedCracker`]: threads confined to key-disjoint regions
//!    (after a deterministic boundary warmup) vs a serial replay of the
//!    same regions — piece locks partition the work, so per-region cost
//!    is interleaving-invariant.

use scrack_core::{CrackConfig, IndexPolicy, KernelPolicy, UpdatePolicy};
use scrack_parallel::{BatchOp, BatchScheduler, ParallelStrategy, PieceLockedCracker};
use scrack_types::{QueryRange, Stats};
use std::sync::Arc;

const SEED: u64 = 0x2012_DE7E;

/// A fixed random-order column (keys `0..n`, xorshift Fisher–Yates).
fn column(n: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..n).collect();
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

fn oracle(data: &[u64], q: QueryRange) -> (usize, u64) {
    data.iter()
        .filter(|k| q.contains(**k))
        .fold((0, 0u64), |(c, s), k| (c + 1, s.wrapping_add(*k)))
}

/// A deterministic mixed batch confined to keys `[lo, hi)`: narrow
/// selects, wide scans, and the occasional empty range.
fn mixed_batch(lo: u64, hi: u64, count: usize, salt: u64) -> Vec<QueryRange> {
    let span = hi - lo;
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt.wrapping_mul(0x100_0000_01B3);
    (0..count)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let a = lo + state % span;
            let w = match i % 3 {
                0 => 1 + state % 32,        // narrow
                1 => span / 4,              // wide
                _ => 0,                     // empty
            };
            QueryRange::new(a, (a + w).min(hi))
        })
        .collect()
}

const POLICIES: [KernelPolicy; 2] = [KernelPolicy::Branchy, KernelPolicy::Branchless];
const INDEXES: [IndexPolicy; 3] = IndexPolicy::ALL;

#[test]
fn batch_scheduler_threads_match_serial_replay_bitwise() {
    let n = 40_000u64;
    let data = column(n);
    for kernel in POLICIES {
        for index in INDEXES {
            for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
                let config = CrackConfig::default().with_kernel(kernel).with_index(index);
                let mut threaded = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
                let mut serial = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
                for round in 0..5u64 {
                    let batch = mixed_batch(0, n, 80, round);
                    let got = threaded.execute(&batch);
                    assert_eq!(
                        got,
                        serial.execute_serial(&batch),
                        "{kernel:?}/{index}/{strategy:?} round {round}: answers diverged"
                    );
                    for (qi, q) in batch.iter().enumerate() {
                        assert_eq!(got[qi], oracle(&data, *q), "round {round} query {qi}");
                    }
                }
                assert_eq!(
                    threaded.stats(),
                    serial.stats(),
                    "{kernel:?}/{index}/{strategy:?}: Stats must be bit-identical"
                );
                threaded.check_integrity().unwrap();
            }
        }
    }
}

/// A deterministic mixed read/write stream confined to keys `[0, hi)`
/// plus an append fringe above it.
fn mixed_op_batch(hi: u64, count: usize, salt: u64) -> Vec<BatchOp<u64>> {
    let mut state = 0x27BB_2EE6_87B0_B0FDu64 ^ salt.wrapping_mul(0x100_0000_01B3);
    (0..count)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = state % (hi + hi / 8);
            match i % 5 {
                0 | 1 => BatchOp::Select(QueryRange::new(state % hi, state % hi + 1 + state % 512)),
                2 => BatchOp::Select(QueryRange::new(0, hi * 2)),
                3 => BatchOp::Insert(k),
                _ => BatchOp::Delete(k),
            }
        })
        .collect()
}

#[test]
fn batch_scheduler_mixed_ops_match_serial_replay_bitwise() {
    // The mixed read/write extension of the pillar above: interleaved
    // inserts/deletes/selects, threaded vs serial, must be bit-identical
    // in answers, Stats, and leftover pending updates — under both
    // kernel policies, both index policies, and both update policies.
    let n = 30_000u64;
    let data = column(n);
    for kernel in POLICIES {
        for index in INDEXES {
            for update in UpdatePolicy::ALL {
                let config = CrackConfig::default()
                    .with_kernel(kernel)
                    .with_index(index)
                    .with_update(update);
                let strategy = ParallelStrategy::Stochastic;
                let mut threaded = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
                let mut serial = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
                for round in 0..4u64 {
                    let ops = mixed_op_batch(n, 64, round);
                    assert_eq!(
                        threaded.execute_ops(&ops),
                        serial.execute_ops_serial(&ops),
                        "{kernel:?}/{index}/{update} round {round}: answers diverged"
                    );
                }
                assert_eq!(
                    threaded.stats(),
                    serial.stats(),
                    "{kernel:?}/{index}/{update}: Stats must be bit-identical"
                );
                assert_eq!(threaded.pending_updates(), serial.pending_updates());
                threaded.flush_updates();
                threaded.check_integrity().unwrap();
            }
        }
    }
}

#[test]
fn batch_scheduler_mixed_ops_answers_are_update_policy_invariant() {
    // The tentpole contract at the concurrent layer: per-element ripple
    // and batched merge-ripple must answer identically through the
    // scheduler (Stats legitimately differ — fewer moves is the point).
    let n = 24_000u64;
    let data = column(n);
    let mut runs = Vec::new();
    for update in UpdatePolicy::ALL {
        let config = CrackConfig::default().with_update(update);
        let mut sched =
            BatchScheduler::new(data.clone(), 4, ParallelStrategy::Stochastic, config, SEED);
        let mut answers = Vec::new();
        for round in 0..4u64 {
            answers.push(sched.execute_ops(&mixed_op_batch(n, 96, round)));
        }
        sched.check_integrity().unwrap();
        runs.push(answers);
    }
    assert_eq!(runs[0], runs[1], "answers diverged across update policies");
}

#[test]
fn batch_scheduler_stats_are_index_policy_invariant() {
    // The PR-4 contract lifted to the concurrent layer: the same batched
    // run under `Avl`, `Flat` and `Radix` must produce bit-identical
    // answers AND bit-identical Stats — the index representation is a
    // pure wall-clock knob even across threads.
    let n = 30_000u64;
    let data = column(n);
    for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
        let mut runs = Vec::new();
        for index in INDEXES {
            let config = CrackConfig::default().with_index(index);
            let mut sched = BatchScheduler::new(data.clone(), 4, strategy, config, SEED);
            let mut answers = Vec::new();
            for round in 0..4u64 {
                let batch = mixed_batch(0, n, 64, round);
                answers.push(sched.execute(&batch));
            }
            sched.check_integrity().unwrap();
            runs.push((answers, sched.stats()));
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                runs[0].0, run.0,
                "{strategy:?}/{}: answers diverged across index policies",
                INDEXES[i]
            );
            assert_eq!(
                runs[0].1, run.1,
                "{strategy:?}/{}: Stats diverged across index policies",
                INDEXES[i]
            );
        }
    }
}

#[test]
fn piece_locked_regions_match_serial_replay_bitwise() {
    // Thread r owns key region [r*W, (r+1)*W). A deterministic warmup
    // cracks every region boundary first, so piece locks partition the
    // work: thread r only ever touches pieces inside its region, and the
    // total Stats is the (interleaving-invariant) sum of per-region
    // costs. The Crack strategy is used because it is RNG-free; the
    // stochastic path draws from one shared RNG stream, whose handout
    // order legitimately depends on scheduling.
    let n = 32_000u64;
    let regions = 4u64;
    let width = n / regions;
    let data = column(n);
    let batches: Vec<Vec<QueryRange>> = (0..regions)
        .map(|r| mixed_batch(r * width, (r + 1) * width, 100, r))
        .collect();

    for kernel in POLICIES {
        let config = CrackConfig::default().with_kernel(kernel);
        let run = |threaded: bool| -> (Vec<Vec<(usize, u64)>>, Stats) {
            let plc = Arc::new(PieceLockedCracker::new(
                data.clone(),
                ParallelStrategy::Crack,
                config,
                SEED,
            ));
            for r in 1..regions {
                plc.select_aggregate(QueryRange::new(0, r * width));
            }
            let answers: Vec<Vec<(usize, u64)>> = if threaded {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = batches
                        .iter()
                        .map(|batch| {
                            let plc = Arc::clone(&plc);
                            scope.spawn(move || {
                                batch.iter().map(|q| plc.select_aggregate(*q)).collect()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("region worker panicked"))
                        .collect()
                })
            } else {
                batches
                    .iter()
                    .map(|batch| batch.iter().map(|q| plc.select_aggregate(*q)).collect())
                    .collect()
            };
            plc.check_integrity().unwrap();
            (answers, plc.stats())
        };

        let (threaded_answers, threaded_stats) = run(true);
        let (serial_answers, serial_stats) = run(false);
        assert_eq!(threaded_answers, serial_answers, "{kernel:?}: answers diverged");
        assert_eq!(
            threaded_stats, serial_stats,
            "{kernel:?}: Stats must be bit-identical"
        );
        for (r, batch) in batches.iter().enumerate() {
            for (qi, q) in batch.iter().enumerate() {
                assert_eq!(
                    threaded_answers[r][qi],
                    oracle(&data, *q),
                    "region {r} query {qi}"
                );
            }
        }
    }
}
