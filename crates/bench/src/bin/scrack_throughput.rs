//! The concurrency throughput reporter.
//!
//! ```text
//! scrack_throughput [--threads N,N,...] [--n N] [--queries Q]
//!                   [--batch B] [--samples K] [--index avl|flat|radix]
//!                   [--smoke] [--json PATH] [--check]
//! ```
//!
//! Sweeps `threads × strategy × workload` over the two `scrack_parallel`
//! concurrency shapes (`batch`, `piecelock`) and prints a summary table;
//! `--json PATH` also writes the machine-readable report committed as
//! `BENCH_6.json`. `--check` exits nonzero if any
//! threads/strategy/workload cell is missing **or** the batch
//! strategy's threaded replay diverges from its serial twin on a
//! 1/2/4-thread sweep — the CI throughput-smoke gate (coverage and
//! determinism only, never a perf threshold: CI boxes are too noisy to
//! gate on queries/sec).

use scrack_bench::throughput_report::{verify_batch_identity, ThroughputConfig, ThroughputReport};
use scrack_bench::trajectory::CommonCli;
use scrack_bench::value_of;
use std::io::Write as _;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = CommonCli::extract(&mut args);
    let mut cfg = ThroughputConfig::default();
    if cli.smoke {
        // Smoke scale: small column, short stream, two thread counts,
        // one sample — seconds, not minutes, and still one cell per
        // threads/strategy/workload combination.
        cfg.n = 50_000;
        cfg.queries = 500;
        cfg.batch = 64;
        cfg.samples = 1;
        cfg.threads = vec![1, 2];
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                cfg.threads = value_of(&args, i, "--threads")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--threads takes integers"))
                    .collect();
            }
            "--n" => {
                i += 1;
                cfg.n = value_of(&args, i, "--n").parse().expect("--n takes an integer");
            }
            "--queries" => {
                i += 1;
                cfg.queries = value_of(&args, i, "--queries")
                    .parse()
                    .expect("--queries takes an integer");
            }
            "--batch" => {
                i += 1;
                cfg.batch = value_of(&args, i, "--batch")
                    .parse()
                    .expect("--batch takes an integer");
            }
            "--samples" => {
                i += 1;
                cfg.samples = value_of(&args, i, "--samples")
                    .parse()
                    .expect("--samples takes an integer");
            }
            "--index" => {
                i += 1;
                cfg.index = scrack_core::IndexPolicy::parse(value_of(&args, i, "--index"))
                    .unwrap_or_else(|| {
                        eprintln!("--index takes avl|flat|radix, got {}", args[i]);
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: scrack_throughput [--threads N,N,...] [--n N] \
                     [--queries Q] [--batch B] [--samples K] \
                     [--index avl|flat|radix] [--smoke] [--json PATH] [--check]"
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
        "measuring {} workloads x {} strategies x {:?} threads, \
         N={}, Q={}, batch={}, {} sample(s) each ...",
        scrack_bench::throughput_report::WORKLOADS.len(),
        scrack_bench::throughput_report::STRATEGIES.len(),
        cfg.threads,
        cfg.n,
        cfg.queries,
        cfg.batch,
        cfg.samples,
    );
    let report = ThroughputReport::measure(&cfg);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Throughput bench — median queries/sec ({} host CPUs)\n",
        report.host_cpus
    );
    let _ = writeln!(lock, "{}", report.render_table());

    cli.write_json(&report.to_json(), &mut lock);

    if cli.check {
        let mut failures = report.missing_cells();
        failures.extend(verify_batch_identity(&cfg));
        scrack_bench::trajectory::finish_check(
            "throughput",
            &failures,
            &format!(
                "coverage check passed: {} cells, all threads/strategy/workload \
                 combinations present; batch threaded-vs-serial replay \
                 bit-identical over a 1/2/4-thread sweep",
                report.cells.len()
            ),
        );
    }
}
