//! `serve_mixed`: random reads mixed with uniform inserts and deletes,
//! submitted by one thread through `BatchScheduler::execute_ops` in
//! fixed-size batches, with a checkpoint (`flush_updates`) after every
//! [`CHECKPOINT_EVERY`] batches.
//!
//! A random S = 10 read almost never covers a uniformly drawn pending
//! key, so without checkpoints nearly every write would stay pending to
//! the end of the round and the merge-ripple would hardly run. The
//! checkpoints merge each interval's writes into the cracked column in
//! one batched merge-ripple, so the pending set stays small and the
//! writes' cost is the merge's.
//!
//! The timed rounds run a one-shard scheduler, so every batch executes
//! on the submitting thread: on the 2-vCPU reference host the hypervisor
//! steals 2–18% of CPU time in bursts, and a batch that waits for two
//! workers stalls whenever either vCPU is descheduled (the `nproc`-shard
//! shape's round throughput ranged 12.6k–34k ops/s between runs, an
//! interquartile spread of 41% over five seeds; one shard stayed within
//! 3% over three runs). The `nproc`-shard threaded shape still runs in
//! every run, outside the timed region: its answers and `Stats` must
//! equal an `execute_ops_serial` replay on an identically built
//! scheduler, and traced runs report its batch latency and speed-up as
//! the `parallel` layer's numbers.
//!
//! Each round draws its own op stream from the round's seed (round 0
//! uses the run's seed), so the latency tail, which the rare selects
//! that merge pending writes set, averages over several streams instead
//! of one. Answers depend on neither the scheduler's seed nor the shard
//! count, so both `nproc`-shard replays of round 0's stream must repeat
//! round 0's answers exactly.

use crate::report::{median, quantile, time_setups, EndToEnd, Report};
use crate::round_seed;
use crate::trace::{Tracer, ROOT};
use scrack_core::CrackConfig;
use scrack_parallel::{BatchOp, BatchScheduler, ParallelStrategy};
use scrack_types::Stats;
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{MixedOp, MixedWorkloadSpec, WorkloadKind};
use std::hint::black_box;
use std::time::Instant;

/// Shape of the mixed serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Column size; keys are a seeded permutation of `0..n`.
    pub n: u64,
    /// Random S = 10 reads per round.
    pub reads: usize,
    /// Writes per read (half inserts, half deletes, uniform keys).
    pub update_rate: f64,
    /// Operations per `execute_ops` call.
    pub batch: usize,
    /// Batches each round runs before its timed part, so the timed
    /// batches start past the column's first large cracks (`seq_cold`
    /// measures those).
    pub warmup_batches: usize,
    /// Fewest rounds per run.
    pub min_rounds: usize,
    /// Back-to-back set-ups whose median becomes `setup_s`.
    pub setups: usize,
}

/// Mixed and read-only replays a traced run alternates to price writes.
const WRITE_COST_PAIRS: usize = 3;

/// Batches between two checkpoints: 512 operations, about 46 writes.
pub const CHECKPOINT_EVERY: usize = 32;

/// Shards of the timed scheduler (see the module docs). The untimed
/// threaded shape has `nproc`.
const TIMED_SHARDS: usize = 1;

/// 10M keys; one write per ten reads, in batches of 16 operations, on
/// one shard (see the module docs).
pub const SERVE_MIXED: ServeSpec = ServeSpec {
    n: 10_000_000,
    reads: 30_000,
    update_rate: 0.1,
    batch: 16,
    warmup_batches: 128,
    min_rounds: 3,
    setups: 5,
};

/// Generated inputs: the column and round 0's op stream.
struct Inputs {
    data: Vec<u64>,
    stream: Stream,
}

/// One round's op stream cut into batches, and its number of writes.
struct Stream {
    batches: Vec<Vec<BatchOp<u64>>>,
    writes: usize,
}

/// Builds the column and round 0's op stream from `seed`.
fn inputs(spec: &ServeSpec, seed: u64) -> Inputs {
    Inputs {
        data: unique_permutation(spec.n, seed),
        stream: stream(spec, seed),
    }
}

/// The batched op stream drawn from `seed`.
fn stream(spec: &ServeSpec, seed: u64) -> Stream {
    let ops: Vec<BatchOp<u64>> =
        MixedWorkloadSpec::fig15(WorkloadKind::Random, spec.n, spec.reads, seed)
            .with_update_rate(spec.update_rate)
            .with_insert_fraction(0.5)
            .generate()
            .into_iter()
            .map(|op| match op {
                MixedOp::Query(q) => BatchOp::Select(q),
                MixedOp::Insert(k) => BatchOp::Insert(k),
                MixedOp::Delete(k) => BatchOp::Delete(k),
            })
            .collect();
    let writes = ops
        .iter()
        .filter(|op| !matches!(op, BatchOp::Select(_)))
        .count();
    Stream {
        batches: ops.chunks(spec.batch).map(<[_]>::to_vec).collect(),
        writes,
    }
}

fn build(inp: &Inputs, shards: usize, seed: u64) -> BatchScheduler<u64> {
    BatchScheduler::new(
        inp.data.clone(),
        shards,
        ParallelStrategy::Stochastic,
        CrackConfig::default(),
        seed,
    )
}

/// Whether a checkpoint follows batch `bi`.
fn checkpoint_after(bi: usize) -> bool {
    (bi + 1).is_multiple_of(CHECKPOINT_EVERY)
}

/// One untimed pass of a stream through a fresh scheduler.
struct Pass {
    answers: Vec<(usize, u64)>,
    /// Summed `execute_ops` (or `execute_ops_serial`) time, ns.
    ops_ns: u64,
    /// Summed `flush_updates` time, ns.
    flush_ns: u64,
    stats: Stats,
}

/// One untimed pass of `batches` through a fresh scheduler, with the
/// timed rounds' checkpoints. `serial` selects `execute_ops_serial`.
/// Each call gets a span when traced.
fn replay(
    inp: &Inputs,
    batches: &[Vec<BatchOp<u64>>],
    shards: usize,
    seed: u64,
    serial: bool,
    span: &'static str,
    mut t: Option<&mut Tracer>,
) -> Pass {
    let mut sched = build(inp, shards, seed);
    let mut pass = Pass {
        answers: Vec::new(),
        ops_ns: 0,
        flush_ns: 0,
        stats: Stats::new(),
    };
    for (bi, batch) in batches.iter().enumerate() {
        let s = t.as_deref_mut().map(|t| t.open(span, ROOT, bi as u64));
        let start = Instant::now();
        let out = if serial {
            sched.execute_ops_serial(batch)
        } else {
            sched.execute_ops(batch)
        };
        pass.ops_ns += start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(s)) = (t.as_deref_mut(), s) {
            t.close(s);
        }
        if checkpoint_after(bi) {
            let start = Instant::now();
            black_box(sched.flush_updates());
            pass.flush_ns += start.elapsed().as_nanos() as u64;
        }
        pass.answers.extend(out);
    }
    pass.stats = sched.stats();
    pass
}

/// Runs the workload for about `seconds` (whole rounds, at least
/// `min_rounds`). With a tracer, per-layer numbers are added.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Report {
    let inp = inputs(spec, seed);
    let mut report = Report::new();
    let mut e2e = EndToEnd::default();
    let mut first: Option<(Vec<(usize, u64)>, Stats)> = None;
    let mut pending_peak = 0usize;
    e2e.setup_s = time_setups(spec.setups, || build(&inp, TIMED_SHARDS, seed));
    let start = Instant::now();
    let mut round = 0usize;
    while round < spec.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let rs = round_seed(seed, round);
        let round_stream;
        let batches = if round == 0 {
            &inp.stream.batches
        } else {
            round_stream = stream(spec, rs);
            &round_stream.batches
        };
        let timed_ops: usize = batches.iter().skip(spec.warmup_batches).map(Vec::len).sum();
        let mut sched = build(&inp, TIMED_SHARDS, rs);
        let mut answers = Vec::new();
        let mut t_round = Instant::now();
        for (bi, batch) in batches.iter().enumerate() {
            if bi == spec.warmup_batches {
                t_round = Instant::now();
            }
            let op = (round * batches.len() + bi) as u64;
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("serve.batch", ROOT, op));
            let t = Instant::now();
            let out = sched.execute_ops(batch);
            if checkpoint_after(bi) {
                // Pending writes peak just before a checkpoint.
                let flush = tracer.as_deref_mut().map(|t| {
                    pending_peak = pending_peak.max(sched.pending_updates());
                    t.open("updates.flush", span.unwrap_or(ROOT), op)
                });
                black_box(sched.flush_updates());
                if let (Some(t), Some(s)) = (tracer.as_deref_mut(), flush) {
                    t.close(s);
                }
            }
            let ns = t.elapsed().as_nanos() as u64;
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.close(s);
            }
            if bi >= spec.warmup_batches {
                e2e.latency_ns.push(ns);
            }
            answers.extend(out);
        }
        let wall = t_round.elapsed().as_secs_f64();
        e2e.round_ops_per_s.push(timed_ops as f64 / wall);
        e2e.end_round();
        e2e.attempted += timed_ops as u64;

        if let Err(e) = sched.check_integrity() {
            report.fail(format!("round {round}: integrity: {e}"));
        }
        let stats = sched.stats();
        drop(black_box(sched));
        if round == 0 {
            first = Some((answers, stats));
        }
        round += 1;
    }
    e2e.finish(&mut report);
    let (answers0, stats0) = first.expect("at least one round ran");
    report.counts_of(&stats0);

    // The determinism oracle, outside the timed region: the threaded
    // `nproc`-shard shape against a serial replay of the same queues.
    let nproc = crate::host::nproc();
    let threaded = replay(
        &inp,
        &inp.stream.batches,
        nproc,
        seed,
        false,
        "parallel.execute_ops",
        tracer.as_deref_mut(),
    );
    let serial = replay(
        &inp,
        &inp.stream.batches,
        nproc,
        seed,
        true,
        "parallel.execute_ops_serial",
        tracer.as_deref_mut(),
    );
    if threaded.answers != serial.answers {
        report.fail("threaded execute_ops answers differ from the serial replay".to_string());
    }
    if threaded.stats != serial.stats {
        report.fail(format!(
            "threaded execute_ops Stats {:?} differ from the serial replay {:?}",
            threaded.stats, serial.stats
        ));
    }
    if threaded.answers != answers0 {
        report.fail("nproc-shard answers differ from the timed rounds".to_string());
    }

    if let Some(t) = tracer {
        // Writes' cost: the same selects in the same batches, no writes.
        let reads_only: Vec<Vec<BatchOp<u64>>> = inp
            .stream
            .batches
            .iter()
            .map(|b| {
                b.iter()
                    .copied()
                    .filter(|op| matches!(op, BatchOp::Select(_)))
                    .collect::<Vec<_>>()
            })
            .filter(|b| !b.is_empty())
            .collect();
        // Host speed drifts by more than the writes cost, so the mixed
        // and the read-only stream alternate, and the medians are compared.
        let (mut mixed_busy, mut reads_busy) = (Vec::new(), Vec::new());
        let mut reads_stats = Stats::new();
        for _ in 0..WRITE_COST_PAIRS {
            let mixed = replay(
                &inp,
                &inp.stream.batches,
                TIMED_SHARDS,
                seed,
                false,
                "updates.mixed",
                Some(&mut *t),
            );
            mixed_busy.push((mixed.ops_ns + mixed.flush_ns) as f64);
            let reads = replay(
                &inp,
                &reads_only,
                TIMED_SHARDS,
                seed,
                false,
                "updates.reads_only",
                Some(&mut *t),
            );
            reads_busy.push((reads.ops_ns + reads.flush_ns) as f64);
            reads_stats = reads.stats;
        }
        let writes = inp.stream.writes.max(1) as f64;
        let q = inp.stream.batches.iter().map(Vec::len).sum::<usize>() as f64;
        report.metric(
            "partition.touched_per_op",
            stats0.touched as f64 / q,
            "tuples",
        );
        report.metric("partition.swaps_per_op", stats0.swaps as f64 / q, "swaps");
        report.metric("index.cracks", stats0.cracks as f64, "count");
        report.metric(
            "core.materialized_per_op",
            stats0.materialized as f64 / q,
            "tuples",
        );
        report.metric(
            "updates.write_cost_us",
            (median(&mixed_busy) - median(&reads_busy)) / writes / 1e3,
            "us",
        );
        report.metric(
            "updates.write_touched",
            (stats0.touched as f64 - reads_stats.touched as f64) / writes,
            "tuples",
        );
        report.metric("updates.pending_peak", pending_peak as f64, "count");
        let batches = t.durations("parallel.execute_ops");
        report.metric(
            "parallel.batch_us_p50",
            quantile(&batches, 0.5) as f64 / 1e3,
            "us",
        );
        report.metric(
            "parallel.batch_us_p99",
            quantile(&batches, 0.99) as f64 / 1e3,
            "us",
        );
        report.metric(
            "parallel.speedup_vs_serial",
            serial.ops_ns as f64 / threaded.ops_ns.max(1) as f64,
            "ratio",
        );
        report.metric("parallel.shards", nproc as f64, "count");
    }
    report
}
