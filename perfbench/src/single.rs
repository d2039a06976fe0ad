//! `seq_cold` and `random_hot`: one client calling one MDD1R engine
//! directly, in a closed loop.
//!
//! A round builds a fresh engine from the generated column and answers
//! a whole query sequence (timed per query). Every round replays the
//! same column; the engine's seed and, for the Random pattern, the query
//! sequence change from round to round (round 0 uses the run's seed), so
//! the tail averages over several pivot and query draws instead of one.
//! Round 0's `Stats` are the run's exact counters.

use crate::report::{quantile, time_setups, EndToEnd, Report};
use crate::round_seed;
use crate::trace::{Tracer, ROOT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrack_core::{CrackConfig, Engine, Mdd1rEngine, Oracle, PieceState};
use scrack_index::CrackerIndex;
use scrack_partition::crack_in_two_policy;
use scrack_types::{QueryRange, Stats};
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{WorkloadKind, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

/// Shape of a single-client workload.
#[derive(Clone, Copy, Debug)]
pub struct SingleSpec {
    /// Column size; keys are a seeded permutation of `0..n`.
    pub n: u64,
    /// The paper's access pattern.
    pub kind: WorkloadKind,
    /// Queries per round (S = 10 tuples each).
    pub queries: usize,
    /// Traced runs time index lookups on every `lookup_every`-th query.
    pub lookup_every: usize,
    /// Traced runs crack a copy of the landing piece on every
    /// `sample_every`-th query.
    pub sample_every: usize,
    /// Fewest rounds per run, whatever the time budget.
    pub min_rounds: usize,
    /// Back-to-back set-ups whose median becomes `setup_s`.
    pub setups: usize,
}

/// 64M unique keys (512 MB, above the reference host's 300 MiB LLC),
/// the paper's Sequential pattern.
pub const SEQ_COLD: SingleSpec = SingleSpec {
    n: 1 << 26,
    kind: WorkloadKind::Sequential,
    queries: 100_000,
    lookup_every: 4,
    sample_every: 16,
    min_rounds: 2,
    setups: 3,
};

/// 1M unique keys (8 MB, cache-resident), the paper's Random pattern,
/// run long enough for the index to hold hundreds of thousands of
/// cracks.
pub const RANDOM_HOT: SingleSpec = SingleSpec {
    n: 1 << 20,
    kind: WorkloadKind::Random,
    queries: 200_000,
    lookup_every: 16,
    sample_every: 64,
    min_rounds: 3,
    setups: 31,
};

/// Tuples per query (the paper's S).
const SELECTIVITY: u64 = 10;

/// Largest piece a traced run copies to time the partition kernel.
const SCRATCH_CAP: usize = 1 << 23;

/// Generated inputs, built before any timing starts.
struct Inputs {
    data: Vec<u64>,
    oracle: Oracle,
}

/// Builds the column and its oracle from `seed`.
///
/// The column is checked to be a permutation of `0..n`, so the oracle is
/// built from the sorted identity (same multiset) without sorting 64M
/// keys.
fn inputs(spec: &SingleSpec, seed: u64) -> Inputs {
    let data: Vec<u64> = unique_permutation(spec.n, seed);
    let mut seen = vec![0u64; (spec.n as usize).div_ceil(64)];
    for &k in &data {
        let (w, b) = ((k / 64) as usize, k % 64);
        assert!(seen[w] & (1 << b) == 0, "generated column repeats key {k}");
        seen[w] |= 1 << b;
    }
    drop(seen);
    let oracle = Oracle::new(&(0..spec.n).collect::<Vec<u64>>());
    Inputs { data, oracle }
}

/// The query sequence drawn from `seed` (the Sequential pattern does not
/// depend on it).
fn queries(spec: &SingleSpec, seed: u64) -> Vec<QueryRange> {
    WorkloadSpec::new(spec.kind, spec.n, spec.queries, seed)
        .with_selectivity(SELECTIVITY)
        .generate()
}

/// Builds the engine under test from the generated column.
fn build(inp: &Inputs, seed: u64) -> Mdd1rEngine<u64> {
    Mdd1rEngine::new(inp.data.clone(), CrackConfig::default(), seed)
}

/// What the traced rounds measure beyond the spans.
#[derive(Default)]
struct Probes {
    crack_ns: u64,
    crack_touched: u64,
    crack_samples: u64,
    crack_skipped: u64,
    touched: u64,
    select_busy_ns: Vec<u64>,
    insert_ns: Vec<u64>,
}

/// Runs one workload for about `seconds` (whole rounds, at least
/// `min_rounds`). With a tracer, per-layer numbers are added.
pub fn run(spec: &SingleSpec, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Report {
    let inp = inputs(spec, seed);
    let mut report = Report::new();
    let mut e2e = EndToEnd::default();
    let mut probes = Probes::default();
    let mut scratch: Vec<u64> = Vec::new();
    let mut answers: Vec<(usize, u64)> = Vec::with_capacity(spec.queries);
    let mut first: Option<(Stats, usize)> = None;
    e2e.setup_s = time_setups(spec.setups, || build(&inp, seed));
    let start = Instant::now();
    let mut round = 0usize;
    while round < spec.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let rs = round_seed(seed, round);
        let queries = queries(spec, rs);
        let mut engine = build(&inp, rs);

        answers.clear();
        let mut busy = 0u64;
        let t_round = Instant::now();
        match tracer.as_deref_mut() {
            None => {
                for q in &queries {
                    let t = Instant::now();
                    answers.push(engine.select_aggregate(*q));
                    e2e.latency_ns.push(t.elapsed().as_nanos() as u64);
                }
            }
            Some(t) => {
                for (i, q) in queries.iter().enumerate() {
                    let op = (round * spec.queries + i) as u64;
                    // Only sampled queries get a root span over their
                    // probes; the rest record `core.select` alone.
                    let sampled = i % spec.lookup_every == 0 || i % spec.sample_every == 0;
                    let root = if sampled {
                        t.open("op", ROOT, op)
                    } else {
                        ROOT
                    };
                    if i % spec.lookup_every == 0 {
                        let idx = engine.cracked_mut().index();
                        let s = t.open("index.lookup", root, op);
                        black_box((idx.piece_containing(q.low), idx.piece_containing(q.high)));
                        t.close(s);
                    }
                    if i % spec.sample_every == 0 {
                        let piece = engine.cracked_mut().index().piece_containing(q.low);
                        let len = piece.end - piece.start;
                        if len > 0 && len <= SCRATCH_CAP {
                            scratch.clear();
                            scratch.extend_from_slice(&engine.data()[piece.start..piece.end]);
                            let mut st = Stats::new();
                            let s = t.open("partition.crack_copy", root, op);
                            black_box(crack_in_two_policy(
                                &mut scratch,
                                q.low,
                                CrackConfig::default().kernel,
                                &mut st,
                            ));
                            probes.crack_ns += t.close(s);
                            probes.crack_touched += st.touched;
                            probes.crack_samples += 1;
                        } else {
                            probes.crack_skipped += 1;
                        }
                    }
                    let s = t.open("core.select", root, op);
                    answers.push(engine.select_aggregate(*q));
                    let ns = t.close(s);
                    if sampled {
                        t.close(root);
                    }
                    busy += ns;
                    e2e.latency_ns.push(ns);
                }
            }
        }
        let wall = t_round.elapsed().as_secs_f64();
        e2e.round_ops_per_s.push(spec.queries as f64 / wall);
        e2e.end_round();
        e2e.attempted += spec.queries as u64;

        for (q, &(count, sum)) in queries.iter().zip(&answers) {
            if count != inp.oracle.count(*q) || sum != inp.oracle.checksum(*q) {
                report.fail(format!(
                    "round {round}: query {q} answered ({count}, {sum}), oracle ({}, {})",
                    inp.oracle.count(*q),
                    inp.oracle.checksum(*q)
                ));
                break;
            }
        }
        let stats = engine.stats();
        let cracks = engine.cracked_mut().index().crack_count();
        if round == 0 {
            first = Some((stats, cracks));
        }
        if let Some(t) = tracer.as_deref_mut() {
            probes.touched += stats.touched;
            probes.select_busy_ns.push(busy);
            if round == 0 {
                replay_inserts(&mut engine, spec.n, seed, t, &mut probes, &mut report);
            }
        }
        round += 1;
    }
    e2e.finish(&mut report);

    let (stats, cracks) = first.expect("at least one round ran");
    report.counts_of(&stats);
    report.count("index_cracks", cracks as u64);
    if let Some(t) = tracer {
        per_layer(spec, &stats, cracks as u64, &probes, t, &mut report);
    }
    report
}

/// Replays the round's final crack set, shuffled by the seed, through
/// `add_crack` into a fresh index, timing each insert.
fn replay_inserts(
    engine: &mut Mdd1rEngine<u64>,
    n: u64,
    seed: u64,
    t: &mut Tracer,
    probes: &mut Probes,
    report: &mut Report,
) {
    let live = engine.cracked_mut().index();
    let (keys, pos) = live.crack_arrays();
    let policy = live.policy();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1D5E_47ED);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut fresh: CrackerIndex<PieceState> = CrackerIndex::with_policy(n as usize, policy);
    for &i in &order {
        let s = t.open("index.insert", ROOT, i as u64);
        fresh.add_crack(keys[i], pos[i]);
        probes.insert_ns.push(t.close(s));
    }
    if fresh.crack_arrays() != (keys, pos) {
        report.fail("replayed crack set differs from the live index".to_string());
    }
}

/// The per-layer metrics of a traced single-client run.
fn per_layer(
    spec: &SingleSpec,
    stats: &Stats,
    cracks: u64,
    probes: &Probes,
    t: &Tracer,
    report: &mut Report,
) {
    let q = spec.queries as f64;
    let ns_per_tuple = probes.crack_ns as f64 / probes.crack_touched.max(1) as f64;
    let busy_total: u64 = probes.select_busy_ns.iter().sum();
    report.metric(
        "partition.touched_per_op",
        stats.touched as f64 / q,
        "tuples",
    );
    report.metric("partition.swaps_per_op", stats.swaps as f64 / q, "swaps");
    report.metric("partition.ns_per_tuple", ns_per_tuple, "ns");
    report.metric(
        "partition.busy_share",
        probes.touched as f64 * ns_per_tuple / busy_total.max(1) as f64,
        "ratio",
    );
    report.metric("partition.samples", probes.crack_samples as f64, "count");
    report.metric(
        "partition.samples_skipped",
        probes.crack_skipped as f64,
        "count",
    );

    let lookups: Vec<u64> = t.durations("index.lookup").iter().map(|d| d / 2).collect();
    let mut inserts = probes.insert_ns.clone();
    inserts.sort_unstable();
    let insert_mean = inserts.iter().sum::<u64>() as f64 / inserts.len().max(1) as f64;
    report.metric("index.cracks", cracks as f64, "count");
    report.metric("index.lookup_ns_p50", quantile(&lookups, 0.5) as f64, "ns");
    report.metric("index.lookup_ns_p99", quantile(&lookups, 0.99) as f64, "ns");
    report.metric("index.insert_ns_mean", insert_mean, "ns");
    report.metric(
        "index.insert_ns_p999",
        quantile(&inserts, 0.999) as f64,
        "ns",
    );

    let selects = t.durations("core.select");
    let busy: Vec<f64> = probes
        .select_busy_ns
        .iter()
        .map(|&b| b as f64 / 1e9)
        .collect();
    report.metric(
        "core.select_us_p50",
        quantile(&selects, 0.5) as f64 / 1e3,
        "us",
    );
    report.metric(
        "core.select_us_p99",
        quantile(&selects, 0.99) as f64 / 1e3,
        "us",
    );
    report.metric("core.select_busy_s", crate::report::median(&busy), "s");
    report.metric(
        "core.materialized_per_op",
        stats.materialized as f64 / q,
        "tuples",
    );
}
