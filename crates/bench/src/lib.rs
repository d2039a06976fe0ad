//! Shared helpers for the Criterion benchmarks.
//!
//! The benches live in `benches/`:
//!
//! * `partition` — the reorganization kernel primitives;
//! * `kernels` — branchy vs branchless kernel variants, per size and
//!   selectivity;
//! * `index` — cracker-index operations, AVL vs flat representation;
//! * `engines` — whole-select costs per strategy;
//! * `figures` — scaled-down regenerations of the paper's figures, so
//!   `cargo bench` exercises every experiment path end to end.
//!
//! The `scrack_bench` binary (`src/bin/scrack_bench.rs`) runs the
//! [`kernels_report`] harness, the `scrack_throughput` binary
//! (`src/bin/scrack_throughput.rs`) the [`throughput_report`] harness,
//! the `scrack_latency` binary (`src/bin/scrack_latency.rs`) the
//! [`latency_report`] harness, the `scrack_updates` binary
//! (`src/bin/scrack_updates.rs`) the [`updates_report`] mixed
//! read/write harness, and the `scrack_robustness` binary
//! (`src/bin/scrack_robustness.rs`) the [`robustness_report`]
//! fault-injection gauntlet, and the `scrack_txn` binary
//! (`src/bin/scrack_txn.rs`) the [`txn_report`] transactional chaos
//! gauntlet; all write machine-readable `BENCH_*.json` perf baselines.

#![forbid(unsafe_code)]

pub mod gauntlet_report;
pub mod kernels_report;
pub mod latency_report;
pub mod robustness_report;
pub mod throughput_report;
pub mod trajectory;
pub mod txn_report;
pub mod updates_report;

use scrack_types::QueryRange;
use scrack_workloads::{WorkloadKind, WorkloadSpec};

/// Deterministic data for benches: a permutation of `0..n`.
pub fn bench_data(n: u64) -> Vec<u64> {
    scrack_workloads::data::unique_permutation(n, 0xBE7C)
}

/// A standard query set for engine benches.
pub fn bench_queries(kind: WorkloadKind, n: u64, q: usize) -> Vec<QueryRange> {
    WorkloadSpec::new(kind, n, q, 0xBE7C).generate()
}
