//! Closed-loop benchmark of the production cracking path: MDD1R
//! (`EngineKind::Mdd1r`, `ParallelStrategy::Stochastic`) under
//! `CrackConfig::default()`, driven through the public API of the
//! `core`, `parallel` and `txn` crates. See `README.md` in this
//! directory for the workloads, the metrics and what each should move.

#![forbid(unsafe_code)]

pub mod host;
pub mod report;
pub mod serve;
pub mod single;
pub mod trace;
pub mod txn;

use report::Report;

/// Runs `workload` for about `seconds`; `tracer` turns on the per-layer
/// probes. `None` for an unknown workload name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut trace::Tracer>,
) -> Option<Report> {
    let report = match workload {
        "seq_cold" => single::run(&single::SEQ_COLD, seed, seconds, tracer),
        "random_hot" => single::run(&single::RANDOM_HOT, seed, seconds, tracer),
        "serve_mixed" => serve::run(&serve::SERVE_MIXED, seed, seconds, tracer),
        "txn_sessions" => txn::run(&txn::TXN_SESSIONS, seed, seconds, tracer),
        _ => return None,
    };
    Some(report)
}

/// The engine seed of round `round` of a run seeded with `seed`: round 0
/// uses `seed` itself, later rounds draw fresh random pivots over the
/// same inputs.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
