//! The fault-injection gauntlet: open-loop latency vs offered load,
//! crossed with injected faults, as data.
//!
//! The throughput harness ([`crate::throughput_report`]) measures the
//! serving stack on its best day; this module measures its worst —
//! PR 7's resilient [`BatchScheduler`] path
//! (`execute_resilient`) under an **open-loop arrival process** with
//! deterministic faults injected mid-stream. Per `(offered load, fault)`
//! cell it reports:
//!
//! * `p50/p99/p999_ms` — per-query sojourn latency (completion −
//!   arrival) of answered queries, in milliseconds. Arrivals are
//!   open-loop: query `i` arrives at `i / offered_qps` seconds whether or
//!   not the server has caught up, so an overloaded server shows
//!   unbounded queueing delay exactly as a real open system would.
//!   Service times are measured on the wall clock; queueing is replayed
//!   through a virtual clock (`start = max(server_free, arrival)`), so
//!   the harness never sleeps to simulate idle arrival gaps.
//! * `shed_rate` plus the full `answered/shed/timed_out` accounting —
//!   the no-silent-drops contract, asserted per cell.
//! * fault counters (`panics_isolated`, `quarantined`, `rebuilt`) proving
//!   the planned fault actually fired and was recovered.
//! * `recovery_qps` and `recovery_ratio` — median per-batch service
//!   throughput over the **final third** of the stream, and its ratio to
//!   the unfaulted stream at the same offered load. Each sample runs the
//!   faulted and unfaulted streams back-to-back and the ratio keeps the
//!   best paired sample, so one-sided host noise and slow drift cancel.
//!   The gauntlet requires post-fault throughput to recover to within
//!   10% of the unfaulted baseline ([`verify_gauntlet`], the CI
//!   `--check` gate).
//!
//! Offered loads are expressed as multiples of the measured unfaulted
//! closed-loop capacity (`base_qps`), so the sweep lands under, near, and
//! over saturation on any host. Every answered query is checked against a
//! sorted-prefix-sum oracle; a single wrong aggregate fails the cell.
//! The baseline is committed as `BENCH_7.json`, a
//! [`scrack-trajectory/v1`](crate::trajectory) document (regenerated via
//! `cargo run --release -p scrack_bench --bin scrack_robustness --
//! --json BENCH_7.json`).

use crate::trajectory::{median, obj, percentile, Json, TrajectoryDoc};
use scrack_core::{CrackConfig, FaultPlan};
use scrack_parallel::{
    AdmissionPolicy, BatchScheduler, ParallelStrategy, QueryOutcome, ServingConfig,
};
use scrack_types::QueryRange;
use scrack_workloads::data::unique_permutation;
use scrack_workloads::{WorkloadKind, WorkloadSpec};
use std::time::Instant;

/// The fault-injection cells the sweep covers.
pub const FAULTS: [&str; 4] = ["none", "panic", "poison", "overload"];

/// Default offered loads, as multiples of the measured unfaulted
/// closed-loop capacity: under, near, and past saturation.
pub const DEFAULT_LOAD_FACTORS: [f64; 3] = [0.5, 0.9, 1.3];

/// Scale and sweep settings for one gauntlet run.
#[derive(Clone, Debug)]
pub struct RobustnessConfig {
    /// Column size / key domain `N`.
    pub n: u64,
    /// Queries per cell run.
    pub queries: usize,
    /// Queries per scheduler batch.
    pub batch: usize,
    /// Scheduler shard count.
    pub shards: usize,
    /// Per-shard admission-queue capacity (queries per wave).
    pub queue_capacity: usize,
    /// Shed-retry budget per query.
    pub max_retries: u32,
    /// Offered loads as multiples of the measured base capacity.
    pub load_factors: Vec<f64>,
    /// Fault trigger count (cracks for `panic`, shard-0 selects for
    /// `poison`).
    pub fault_trigger: u32,
    /// Queue capacity the `overload` fault clamps shards to while it
    /// lasts (the first third of the stream's batches).
    pub overload_capacity: usize,
    /// Runs per cell; the recovery throughput is the **best** tail over
    /// the samples. Interference on a shared box is one-sided (it only
    /// slows a run down), so best-of-k estimates true capacity and keeps
    /// the recovery ratio stable enough to gate on.
    pub samples: usize,
    /// RNG seed for data and workloads.
    pub seed: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            n: 200_000,
            queries: 4_096,
            batch: 128,
            shards: 4,
            queue_capacity: 64,
            max_retries: 2,
            load_factors: DEFAULT_LOAD_FACTORS.to_vec(),
            fault_trigger: 16,
            overload_capacity: 8,
            samples: 3,
            seed: 0x0B_0B,
        }
    }
}

/// One `(offered load, fault)` measurement.
#[derive(Clone, Debug)]
pub struct RobustnessCell {
    /// Fault injected (one of [`FAULTS`]).
    pub fault: &'static str,
    /// Offered load as a multiple of `base_qps`.
    pub load_factor: f64,
    /// Absolute offered arrival rate, queries/sec.
    pub offered_qps: f64,
    /// Median sojourn latency of answered queries, ms.
    pub p50_ms: f64,
    /// 99th-percentile sojourn latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile sojourn latency, ms.
    pub p999_ms: f64,
    /// Queries answered (oracle-verified).
    pub answered: usize,
    /// Queries shed by admission control (accounted, never dropped).
    pub shed: usize,
    /// Queries that missed their deadline (0 here: the open-loop harness
    /// runs without deadline budgets).
    pub timed_out: usize,
    /// Shed queries as a fraction of the stream.
    pub shed_rate: f64,
    /// Worker panics caught and isolated during the run.
    pub panics_isolated: u64,
    /// Shard quarantines entered during the run.
    pub quarantined: u64,
    /// Shard index rebuilds completed during the run.
    pub rebuilt: u64,
    /// Answered queries whose aggregates diverged from the oracle
    /// (must be 0; recorded so the JSON is self-auditing).
    pub oracle_failures: usize,
    /// Median per-batch service throughput over the final third of the
    /// stream, queries/sec — best over the samples.
    pub recovery_qps: f64,
    /// Post-fault tail throughput relative to the unfaulted stream at
    /// the same offered load: the best *paired* sample ratio, where each
    /// sample runs the faulted and unfaulted streams back-to-back so
    /// slow host drift cancels. `None` for the unfaulted cells.
    pub recovery_ratio: Option<f64>,
}

/// The full gauntlet output.
#[derive(Clone, Debug)]
pub struct RobustnessReport {
    /// The configuration the cells were measured under.
    pub config: RobustnessConfig,
    /// CPUs available to the measuring process.
    pub host_cpus: usize,
    /// Measured unfaulted closed-loop capacity, queries/sec — the unit
    /// the offered loads are multiples of.
    pub base_qps: f64,
    /// All cells, fault-major then load factor.
    pub cells: Vec<RobustnessCell>,
}

/// Sorted keys + prefix key sums: O(log n) exact range aggregates.
struct Oracle {
    keys: Vec<u64>,
    prefix: Vec<u64>,
}

impl Oracle {
    fn new(data: &[u64]) -> Self {
        let mut keys = data.to_vec();
        keys.sort_unstable();
        let mut prefix = Vec::with_capacity(keys.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &k in &keys {
            acc = acc.wrapping_add(k);
            prefix.push(acc);
        }
        Self { keys, prefix }
    }

    fn answer(&self, q: QueryRange) -> (usize, u64) {
        let lo = self.keys.partition_point(|k| *k < q.low);
        let hi = self.keys.partition_point(|k| *k < q.high);
        (hi - lo, self.prefix[hi].wrapping_sub(self.prefix[lo]))
    }
}

/// The fault plan for a named cell. Panic and poison target shard 0 and
/// fire once the trigger count of cracks/selects accrues (early in the
/// stream); overload clamps every shard's queue for the first third of
/// the batches, then clears.
fn fault_plan(fault: &str, cfg: &RobustnessConfig) -> FaultPlan {
    let overload_batches = (cfg.queries.div_ceil(cfg.batch) / 3).max(1) as u32;
    match fault {
        "none" => FaultPlan::disabled(),
        "panic" => FaultPlan::panic_in_kernel(cfg.fault_trigger).on_target(0),
        "poison" => FaultPlan::poison_shard(cfg.fault_trigger).on_target(0),
        "overload" => {
            FaultPlan::queue_overload(cfg.overload_capacity).with_repeat(overload_batches)
        }
        other => panic!("unknown fault {other}"),
    }
}

/// Raw per-run numbers before they are folded into a cell.
struct RunOutcome {
    answered: usize,
    shed: usize,
    timed_out: usize,
    oracle_failures: usize,
    /// Sojourn latencies (completion − arrival) of answered queries, ms.
    latencies_ms: Vec<f64>,
    /// Wall service seconds and query count per batch, in stream order.
    batches: Vec<(f64, usize)>,
    stats: scrack_parallel::ResilienceStats,
}

/// One open-loop run: the full query stream through a fresh resilient
/// scheduler at `offered_qps`, with `plan` armed.
fn run_once(
    cfg: &RobustnessConfig,
    data: &[u64],
    queries: &[QueryRange],
    oracle: &Oracle,
    plan: FaultPlan,
    offered_qps: f64,
) -> RunOutcome {
    let crack_config = CrackConfig::default().with_fault(plan);
    let mut sched = BatchScheduler::new(
        data.to_vec(),
        cfg.shards,
        ParallelStrategy::Stochastic,
        crack_config,
        cfg.seed,
    );
    let serving = ServingConfig::bounded(cfg.queue_capacity, AdmissionPolicy::Shed)
        .with_max_retries(cfg.max_retries);

    let mut out = RunOutcome {
        answered: 0,
        shed: 0,
        timed_out: 0,
        oracle_failures: 0,
        latencies_ms: Vec::with_capacity(queries.len()),
        batches: Vec::with_capacity(queries.len().div_ceil(cfg.batch)),
        stats: Default::default(),
    };
    // Virtual queueing clock, seconds since stream start. A batch is
    // dispatched when its last query has arrived and the server is free.
    let mut server_free = 0.0f64;
    let mut qi0 = 0usize;
    for chunk in queries.chunks(cfg.batch) {
        let last_arrival = (qi0 + chunk.len()) as f64 / offered_qps;
        let start = server_free.max(last_arrival);
        let t0 = Instant::now();
        let report = sched.execute_resilient(chunk, &serving);
        let service = t0.elapsed().as_secs_f64();
        let completion = start + service;
        server_free = completion;
        out.batches.push((service, chunk.len()));
        for (j, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                QueryOutcome::Answered { count, key_sum, .. } => {
                    out.answered += 1;
                    if (*count, *key_sum) != oracle.answer(chunk[j]) {
                        out.oracle_failures += 1;
                    }
                    let arrival = (qi0 + j + 1) as f64 / offered_qps;
                    out.latencies_ms.push((completion - arrival).max(0.0) * 1_000.0);
                }
                QueryOutcome::Shed { .. } => out.shed += 1,
                QueryOutcome::TimedOut => out.timed_out += 1,
            }
        }
        qi0 += chunk.len();
    }
    out.stats = sched.resilience_stats();
    out
}

/// Median per-batch service throughput (queries/sec) over the final
/// third of the stream — the post-fault steady state.
fn final_third_qps(batches: &[(f64, usize)]) -> f64 {
    let tail = &batches[batches.len() - (batches.len() / 3).max(1)..];
    median(
        tail.iter()
            .map(|&(secs, count)| count as f64 / secs.max(1e-9))
            .collect(),
    )
}

impl RobustnessReport {
    /// Runs the gauntlet: calibrate unfaulted capacity, then sweep
    /// `fault × load factor`, each cell [`RobustnessConfig::samples`]
    /// full open-loop streams.
    pub fn measure(config: &RobustnessConfig) -> RobustnessReport {
        assert!(config.queries > 0 && config.batch > 0, "need a stream");
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.queue_capacity >= 1, "capacity must admit something");
        assert!(
            !config.load_factors.is_empty()
                && config.load_factors.iter().all(|f| *f > 0.0 && f.is_finite()),
            "need positive finite load factors"
        );
        assert!(config.samples >= 1, "need at least one sample per cell");
        let data = unique_permutation::<u64>(config.n, config.seed);
        let queries =
            WorkloadSpec::new(WorkloadKind::Random, config.n, config.queries, config.seed)
                .with_selectivity((config.n / 1_000).max(10))
                .generate();
        let oracle = Oracle::new(&data);

        // Calibration: unfaulted, arrivals effectively instantaneous, so
        // the run is closed-loop and total service time measures capacity.
        // Best of `samples` runs — interference only slows a run down.
        let base_qps = (0..config.samples)
            .map(|_| {
                let calib = run_once(
                    config,
                    &data,
                    &queries,
                    &oracle,
                    FaultPlan::disabled(),
                    f64::INFINITY,
                );
                let total: f64 = calib.batches.iter().map(|(s, _)| s).sum();
                queries.len() as f64 / total.max(1e-9)
            })
            .fold(0.0f64, f64::max);

        // Per (load, sample), run the unfaulted stream and every fault
        // stream back-to-back, and form the recovery ratio within the
        // sample — pairing in time cancels the slow drift (thermal,
        // scheduler steal) that dominates cross-run comparisons on a
        // shared box. Everything but timing is deterministic across
        // samples (same seed, data, stream, fault plan): outcome counts
        // come from the last run, latencies pool over all runs, the
        // recovery throughput keeps the best tail, and the recovery
        // ratio keeps the best *paired* sample.
        let mut cells = Vec::new();
        for &load_factor in &config.load_factors {
            let offered_qps = base_qps * load_factor;
            let mut latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); FAULTS.len()];
            let mut tails: Vec<Vec<f64>> = vec![Vec::new(); FAULTS.len()];
            let mut runs: Vec<Option<RunOutcome>> = (0..FAULTS.len()).map(|_| None).collect();
            for _ in 0..config.samples {
                for (fi, fault) in FAULTS.iter().enumerate() {
                    let plan = fault_plan(fault, config);
                    let r = run_once(config, &data, &queries, &oracle, plan, offered_qps);
                    latencies_ms[fi].extend_from_slice(&r.latencies_ms);
                    tails[fi].push(final_third_qps(&r.batches));
                    runs[fi] = Some(r);
                }
            }
            for (fi, fault) in FAULTS.iter().enumerate() {
                let run = runs[fi].take().expect("samples >= 1");
                let lat = &mut latencies_ms[fi];
                let (p50, p99, p999) = if lat.is_empty() {
                    (0.0, 0.0, 0.0)
                } else {
                    (
                        percentile(lat, 50.0),
                        percentile(lat, 99.0),
                        percentile(lat, 99.9),
                    )
                };
                let recovery_ratio = (*fault != "none").then(|| {
                    tails[fi]
                        .iter()
                        .zip(&tails[0])
                        .map(|(f, n)| f / n.max(1e-9))
                        .fold(0.0f64, f64::max)
                });
                cells.push(RobustnessCell {
                    fault,
                    load_factor,
                    offered_qps,
                    p50_ms: p50,
                    p99_ms: p99,
                    p999_ms: p999,
                    answered: run.answered,
                    shed: run.shed,
                    timed_out: run.timed_out,
                    shed_rate: run.shed as f64 / queries.len() as f64,
                    panics_isolated: run.stats.panics_isolated,
                    quarantined: run.stats.quarantines,
                    rebuilt: run.stats.rebuilds,
                    oracle_failures: run.oracle_failures,
                    recovery_qps: tails[fi].iter().copied().fold(0.0f64, f64::max),
                    recovery_ratio,
                });
            }
        }
        // Fault-major cell order, matching FAULTS, for stable output.
        cells.sort_by_key(|c| FAULTS.iter().position(|f| *f == c.fault));
        RobustnessReport {
            config: config.clone(),
            host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            base_qps,
            cells,
        }
    }

    /// The cell for (fault, load factor), if measured.
    pub fn cell(&self, fault: &str, load_factor: f64) -> Option<&RobustnessCell> {
        self.cells
            .iter()
            .find(|c| c.fault == fault && c.load_factor == load_factor)
    }

    /// Every fault/load combination missing from the report (empty =
    /// full coverage).
    pub fn missing_cells(&self) -> Vec<String> {
        let mut missing = Vec::new();
        for fault in FAULTS {
            for &load in &self.config.load_factors {
                if self.cell(fault, load).is_none() {
                    missing.push(format!("{fault}/x{load}"));
                }
            }
        }
        missing
    }

    /// Serializes the report as a `scrack-trajectory/v1` document (see
    /// [`crate::trajectory`]; hand-rolled, as the workspace builds
    /// offline without serde).
    pub fn to_json(&self) -> String {
        let mut doc = TrajectoryDoc::new("robustness")
            .param("n", Json::UInt(self.config.n))
            .param("queries", Json::UInt(self.config.queries as u64))
            .param("batch_size", Json::UInt(self.config.batch as u64))
            .param("shards", Json::UInt(self.config.shards as u64))
            .param("queue_capacity", Json::UInt(self.config.queue_capacity as u64))
            .param("max_retries", Json::UInt(self.config.max_retries as u64))
            .param("fault_trigger", Json::UInt(self.config.fault_trigger as u64))
            .param(
                "overload_capacity",
                Json::UInt(self.config.overload_capacity as u64),
            )
            .param("samples", Json::UInt(self.config.samples as u64))
            .param("host_cpus", Json::UInt(self.host_cpus as u64))
            .param("base_qps", Json::fixed(self.base_qps, 1))
            .axis("faults", FAULTS.iter().map(|f| Json::str(*f)).collect())
            .axis(
                "load_factors",
                self.config.load_factors.iter().map(|f| Json::fixed(*f, 2)).collect(),
            );
        for c in &self.cells {
            doc.cell(obj(vec![
                ("fault", Json::str(c.fault)),
                ("load_factor", Json::fixed(c.load_factor, 2)),
                ("offered_qps", Json::fixed(c.offered_qps, 1)),
                ("p50_ms", Json::fixed(c.p50_ms, 3)),
                ("p99_ms", Json::fixed(c.p99_ms, 3)),
                ("p999_ms", Json::fixed(c.p999_ms, 3)),
                ("answered", Json::UInt(c.answered as u64)),
                ("shed", Json::UInt(c.shed as u64)),
                ("timed_out", Json::UInt(c.timed_out as u64)),
                ("shed_rate", Json::fixed(c.shed_rate, 4)),
                ("panics_isolated", Json::UInt(c.panics_isolated)),
                ("quarantined", Json::UInt(c.quarantined)),
                ("rebuilt", Json::UInt(c.rebuilt)),
                ("oracle_failures", Json::UInt(c.oracle_failures as u64)),
                ("recovery_qps", Json::fixed(c.recovery_qps, 1)),
                (
                    "recovery_ratio",
                    Json::opt(c.recovery_ratio.map(|r| Json::fixed(r, 3))),
                ),
            ]));
        }
        doc.to_json()
    }

    /// A human-readable summary table (markdown).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "| fault | load | p50 (ms) | p99 (ms) | p99.9 (ms) | shed | \
             panics | quar. | recovery |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            let ratio = c
                .recovery_ratio
                .map_or_else(|| "—".to_string(), |r| format!("{:.0}%", r * 100.0));
            s.push_str(&format!(
                "| {} | {:.1}x | {:.2} | {:.2} | {:.2} | {:.1}% | {} | {} | {} |\n",
                c.fault,
                c.load_factor,
                c.p50_ms,
                c.p99_ms,
                c.p999_ms,
                c.shed_rate * 100.0,
                c.panics_isolated,
                c.quarantined,
                ratio
            ));
        }
        s
    }
}

/// The gauntlet gate: every cell present; per cell, exact accounting
/// (`answered + shed + timed_out == queries`) and zero oracle failures;
/// each fault's signature counters present (a panic was isolated, a
/// shard was quarantined and rebuilt, overload shed work); and post-fault
/// throughput recovered to at least `min_recovery` of the unfaulted
/// baseline at the same offered load. Returns every violation found
/// (empty = green); the CI `scrack_robustness --smoke --check` step
/// gates on this with `min_recovery = 0.9` — the acceptance bar of
/// "recovers to within 10%".
pub fn verify_gauntlet(report: &RobustnessReport, min_recovery: f64) -> Vec<String> {
    let mut failures = report.missing_cells();
    let total = report.config.queries;
    for c in &report.cells {
        let tag = format!("{}/x{}", c.fault, c.load_factor);
        if c.answered + c.shed + c.timed_out != total {
            failures.push(format!(
                "{tag}: accounting broken ({} + {} + {} != {total})",
                c.answered, c.shed, c.timed_out
            ));
        }
        if c.oracle_failures > 0 {
            failures.push(format!("{tag}: {} oracle-incorrect answers", c.oracle_failures));
        }
        match c.fault {
            "panic" => {
                if c.panics_isolated == 0 {
                    failures.push(format!("{tag}: planned panic never fired"));
                }
                if c.quarantined == 0 || c.rebuilt == 0 {
                    failures.push(format!("{tag}: panic recovery incomplete"));
                }
            }
            "poison" if c.quarantined == 0 || c.rebuilt == 0 => {
                failures.push(format!("{tag}: planned poison never quarantined"));
            }
            "overload" if c.shed == 0 => {
                failures.push(format!("{tag}: planned overload never shed"));
            }
            _ => {}
        }
        if let Some(ratio) = c.recovery_ratio {
            if ratio < min_recovery {
                failures.push(format!(
                    "{tag}: post-fault throughput at {:.0}% of baseline (< {:.0}%)",
                    ratio * 100.0,
                    min_recovery * 100.0
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RobustnessConfig {
        RobustnessConfig {
            n: 6_000,
            queries: 256,
            batch: 32,
            shards: 4,
            queue_capacity: 16,
            max_retries: 2,
            load_factors: vec![0.5, 1.3],
            fault_trigger: 4,
            overload_capacity: 2,
            samples: 1,
            seed: 7,
        }
    }

    #[test]
    fn gauntlet_covers_every_cell_with_exact_accounting() {
        let r = RobustnessReport::measure(&tiny_config());
        assert_eq!(r.cells.len(), FAULTS.len() * 2);
        assert!(r.missing_cells().is_empty());
        for c in &r.cells {
            assert_eq!(
                c.answered + c.shed + c.timed_out,
                256,
                "{}/{}: every query accounted",
                c.fault,
                c.load_factor
            );
            assert_eq!(c.oracle_failures, 0, "{}/{}", c.fault, c.load_factor);
        }
        // Tiny debug-build runs are too noisy for the 10% recovery bar;
        // correctness and fault-signature checks must still be clean.
        let failures: Vec<String> = verify_gauntlet(&r, 0.0);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn faults_leave_their_signatures() {
        let r = RobustnessReport::measure(&tiny_config());
        let panic_cell = r.cell("panic", 0.5).expect("panic cell");
        assert!(panic_cell.panics_isolated >= 1, "{panic_cell:?}");
        assert!(panic_cell.quarantined >= 1 && panic_cell.rebuilt >= 1);
        let poison_cell = r.cell("poison", 0.5).expect("poison cell");
        assert!(poison_cell.quarantined >= 1 && poison_cell.rebuilt >= 1);
        let overload_cell = r.cell("overload", 0.5).expect("overload cell");
        assert!(overload_cell.shed > 0, "{overload_cell:?}");
        let clean = r.cell("none", 0.5).expect("none cell");
        assert_eq!(clean.shed, 0, "unfaulted under-load run sheds nothing");
        assert_eq!(clean.panics_isolated + clean.quarantined, 0);
    }

    #[test]
    fn recovery_tail_helper_is_exact() {
        // Final third of 6 batches = last 2; each serves 10 queries in
        // 0.1s and 0.2s → 100 and 50 q/s, median 75.
        let batches: Vec<(f64, usize)> = vec![
            (1.0, 10),
            (1.0, 10),
            (1.0, 10),
            (1.0, 10),
            (0.1, 10),
            (0.2, 10),
        ];
        assert_eq!(final_third_qps(&batches), 75.0);
    }

    #[test]
    fn oracle_matches_brute_force() {
        let data = unique_permutation::<u64>(500, 11);
        let oracle = Oracle::new(&data);
        for q in [
            QueryRange { low: 0, high: 500 },
            QueryRange { low: 100, high: 101 },
            QueryRange { low: 250, high: 250 },
            QueryRange { low: 37, high: 411 },
        ] {
            let count = data.iter().filter(|k| q.contains(**k)).count();
            let sum = data
                .iter()
                .filter(|k| q.contains(**k))
                .fold(0u64, |a, k| a.wrapping_add(*k));
            assert_eq!(oracle.answer(q), (count, sum), "{q:?}");
        }
    }

    #[test]
    fn json_is_structurally_sound_and_complete() {
        let r = RobustnessReport::measure(&tiny_config());
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"scrack-trajectory/v1\""));
        assert!(json.contains("\"report\": \"robustness\""));
        for key in [
            "base_qps",
            "faults",
            "load_factors",
            "cells",
            "p999_ms",
            "shed_rate",
            "panics_isolated",
            "recovery_ratio",
            "oracle_failures",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        for fault in FAULTS {
            assert!(json.contains(fault), "missing {fault}");
        }
        assert!(!json.contains(",\n  ]"), "trailing comma before ]");
        assert!(!json.contains(",\n}"), "trailing comma before }}");
    }
}
