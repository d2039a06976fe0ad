//! Experiment harness regenerating every table and figure of *Stochastic
//! Database Cracking* (Halim et al., VLDB 2012).
//!
//! Each `figXX` module reproduces one figure or table of §5:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`figures::fig02`] | Fig. 2 — basic cracking performance (+ 2e tuples touched) |
//! | [`figures::fig08`] | Fig. 8 — DDC piece-size threshold sweep |
//! | [`figures::fig09`] | Fig. 9 — sequential workload: DDC/DDR, DD1C/DD1R, progressive |
//! | [`figures::fig10`] | Fig. 10 — random workload |
//! | [`figures::fig11`] | Fig. 11 — selectivity sweep |
//! | [`figures::fig12`] | Fig. 12 — naive random-injection approaches |
//! | [`figures::fig13`] | Fig. 13 — periodic / zoom workloads |
//! | [`figures::fig14`] | Fig. 14 — adaptive indexing hybrids |
//! | [`figures::fig15`] | Fig. 15 — updates |
//! | [`figures::fig16`] | Fig. 16 — SkyServer workload |
//! | [`figures::fig17`] | Fig. 17 — all workloads × selective variants |
//! | [`figures::fig18`] | Fig. 18 — selective period sweep (SkyServer) |
//! | [`figures::fig19`] | Fig. 19 — monitored selective sweep (SkyServer) |
//! | [`figures::fig20`] | Fig. 20 — initialization vs. total cost summary |
//!
//! Experiments run at a configurable scale ([`ExpConfig`]); the paper's
//! scale is `N = 10^8`, `Q = 10^4`, which reproduces on a large machine
//! via `--n 100000000`. Shapes (orderings, convergence, crossovers) are
//! scale-invariant; EXPERIMENTS.md records paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod metrics;
mod report;
mod runner;

pub use metrics::{analyze, AdaptiveMetrics};
pub use report::{format_secs, log_checkpoints, Table};
pub use runner::{run_engine, ExpConfig, RunResult};
