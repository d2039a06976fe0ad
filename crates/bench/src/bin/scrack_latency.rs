//! The end-to-end query-latency reporter.
//!
//! ```text
//! scrack_latency [--n N] [--queries Q] [--samples K]
//!                [--smoke] [--json PATH] [--check]
//! ```
//!
//! Sweeps `engine × workload` over single-threaded query sequences (the
//! paper's central per-query/cumulative-time figure) plus an AVL-vs-flat
//! piece-lookup microbench at fixed crack counts, and prints a summary
//! table; `--json PATH` also writes the machine-readable report.
//! `--check` exits nonzero if any engine/workload or lookup cell is
//! missing — the CI latency-smoke gate (coverage only, never a perf
//! threshold: CI boxes are too noisy to gate on latency).

use scrack_bench::latency_report::{LatencyConfig, LatencyReport};
use scrack_experiments::cli::{parse_of, value_of};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LatencyConfig::default();
    let mut json_path: Option<String> = None;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                cfg.n = parse_of(&args, i, "--n");
            }
            "--queries" => {
                i += 1;
                cfg.queries = parse_of(&args, i, "--queries");
            }
            "--samples" => {
                i += 1;
                cfg.samples = parse_of(&args, i, "--samples");
            }
            "--smoke" => {
                // Smoke scale: small column, short sequence, one sample —
                // seconds, not minutes, and still one cell for every
                // engine/workload combination.
                cfg.n = 50_000;
                cfg.queries = 1_000;
                cfg.samples = 1;
            }
            "--json" => {
                i += 1;
                json_path = Some(value_of(&args, i, "--json").to_string());
            }
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: scrack_latency [--n N] [--queries Q] [--samples K] \
                     [--smoke] [--json PATH] [--check]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "measuring {} engines x {} workloads, N={}, Q={}, {} sample(s) each ...",
        scrack_bench::latency_report::ENGINES.len(),
        scrack_bench::latency_report::WORKLOADS.len(),
        cfg.n,
        cfg.queries,
        cfg.samples,
    );
    let report = LatencyReport::measure(&cfg);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Query-latency bench — per-query and cumulative time ({} host CPUs)\n",
        report.host_cpus
    );
    let _ = writeln!(lock, "{}", report.render_table());

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        let _ = writeln!(lock, "wrote {path}");
    }

    if check {
        let missing = report.missing_cells();
        if !missing.is_empty() {
            eprintln!("coverage check FAILED; missing cells: {missing:?}");
            std::process::exit(1);
        }
        let _ = writeln!(
            lock,
            "coverage check passed: {} latency cells + {} lookup cells, all \
             engine/workload combinations present",
            report.cells.len(),
            report.lookup.len()
        );
    }
}
