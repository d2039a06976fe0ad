//! One run's result: the metrics by name and unit, the exact counters,
//! and the correctness verdict, rendered as one JSON line.

use scrack_types::Stats;
use std::fmt::Write as _;

/// The result of one workload run in one mode (plain or traced).
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every answer the run checked was correct.
    pub correct: bool,
    /// Operations attempted in the measured rounds.
    pub attempted: u64,
    /// Operations that did not complete (aborted, shed, timed out).
    pub failed: u64,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Deterministic counters (`Stats` and friends) of one round.
    pub counts: Vec<(String, u64)>,
    /// The first correctness failure, if any.
    pub error: Option<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds one exact counter.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Adds the `Stats` counters as exact counters.
    pub fn counts_of(&mut self, s: &Stats) {
        for (name, v) in [
            ("touched", s.touched),
            ("swaps", s.swaps),
            ("comparisons", s.comparisons),
            ("cracks", s.cracks),
            ("materialized", s.materialized),
            ("queries", s.queries),
        ] {
            self.count(name, v);
        }
    }

    /// Records a correctness failure; the first one is kept.
    pub fn fail(&mut self, why: String) {
        if self.correct {
            self.error = Some(why);
        }
        self.correct = false;
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The report as one JSON object on one line.
    pub fn to_json(&self, workload: &str, mode: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"mode\": \"{mode}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        s.push_str("}, \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {value}");
        }
        s.push('}');
        if let Some(err) = &self.error {
            let _ = write!(s, ", \"error\": \"{}\"", err.replace(['"', '\\'], "'"));
        }
        s.push('}');
        s
    }
}

/// A finite float as JSON (non-finite values become 0, never `NaN`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `p`-quantile (`0 < p <= 1`) of `sorted` by the nearest-rank rule;
/// 0 for an empty slice.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The end-to-end samples every workload collects, in the same units
/// whether or not the run is traced.
///
/// Every round of a run replays the same inputs, so each latency
/// quantile is taken per round and the run reports its median over
/// rounds, as it does for round throughput: a burst of host noise that
/// slows one round does not move it.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds per set-up (engine, scheduler or manager construction).
    pub setup_s: Vec<f64>,
    /// Completed operations per second, one value per round.
    pub round_ops_per_s: Vec<f64>,
    /// Nanoseconds per query, batch or session of the current round.
    pub latency_ns: Vec<u64>,
    /// Per-round p50, p99 and p99.9 latency in µs.
    round_quantiles_us: Vec<[f64; 3]>,
    /// Latency samples over all rounds.
    samples: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
}

impl EndToEnd {
    /// Closes a round: its latency quantiles are kept and its samples
    /// dropped.
    pub fn end_round(&mut self) {
        self.latency_ns.sort_unstable();
        let us = |p: f64| quantile(&self.latency_ns, p) as f64 / 1e3;
        self.round_quantiles_us.push([us(0.5), us(0.99), us(0.999)]);
        self.samples += self.latency_ns.len() as u64;
        self.latency_ns.clear();
    }

    /// Writes the end-to-end metrics (all but `peak_rss_mb`, which the
    /// runner measures from outside the process) into `report`.
    pub fn finish(self, report: &mut Report) {
        let q = |i: usize| {
            median(
                &self
                    .round_quantiles_us
                    .iter()
                    .map(|r| r[i])
                    .collect::<Vec<_>>(),
            )
        };
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric("ops_per_s", median(&self.round_ops_per_s), "1/s");
        report.metric("latency_p50_us", q(0), "us");
        report.metric("latency_p99_us", q(1), "us");
        report.metric("latency_p999_us", q(2), "us");
        let ok = self.attempted.saturating_sub(self.failed);
        report.metric(
            "success_ratio",
            ok as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        report.metric("latency_samples", self.samples as f64, "count");
        report.metric("rounds", self.round_quantiles_us.len() as f64, "count");
        report.metric("setups", self.setup_s.len() as f64, "count");
        report.attempted = self.attempted;
        report.failed = self.failed;
    }
}

/// Times `count` back-to-back set-ups: `build` constructs one and
/// returns it, and it is dropped outside the timed span. Set-ups run
/// before the rounds, so every sample sees the same allocator state.
pub fn time_setups<T>(count: usize, mut build: impl FnMut() -> T) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let built = build();
            let s = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(built));
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_has_every_metric() {
        let mut r = Report::new();
        r.metric("a", 1.5, "s");
        r.count("touched", 7);
        let line = r.to_json("w", "plain");
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"touched\": 7"));
        assert!(line.contains("\"correct\": true"));
    }
}
