//! The transactional chaos gauntlet reporter.
//!
//! ```text
//! scrack_txn [--n N] [--rounds R] [--steps S] [--sessions K]
//!            [--shards H] [--trigger T] [--seed S] [--scenario NAME]
//!            [--smoke] [--json PATH] [--check]
//! ```
//!
//! Fuzzes interleaved multi-session schedules against the serial
//! per-epoch oracle under every fault scenario, classifying divergences
//! into the four snapshot-isolation anomalies (dirty read,
//! non-repeatable read, lost update, torn read), then sweeps an
//! open-loop session arrival process. `--json PATH` writes the
//! machine-readable `scrack-trajectory/v1` document committed as
//! `BENCH_9.json`. `--check` exits nonzero if any anomaly survives, any
//! lock leaks, any session escapes the outcome ladder, any fixed-seed
//! replay diverges, or any armed fault fails to fire — the CI
//! txn-smoke gate (counters only, so it never flakes on wall time).

use scrack_bench::trajectory::CommonCli;
use scrack_bench::txn_report::{verify_txn, TxnGauntletConfig, TxnReport, SCENARIOS};
use scrack_experiments::cli::{parse_of, value_of};
use std::io::Write as _;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = CommonCli::extract(&mut args);
    let mut cfg = if cli.smoke {
        TxnGauntletConfig::smoke()
    } else {
        TxnGauntletConfig::default()
    };
    let mut scenarios: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                cfg.n = parse_of(&args, i, "--n");
            }
            "--rounds" => {
                i += 1;
                cfg.rounds = parse_of(&args, i, "--rounds");
            }
            "--steps" => {
                i += 1;
                cfg.steps = parse_of(&args, i, "--steps");
            }
            "--sessions" => {
                i += 1;
                cfg.sessions = parse_of(&args, i, "--sessions");
            }
            "--shards" => {
                i += 1;
                cfg.shards = parse_of(&args, i, "--shards");
            }
            "--trigger" => {
                i += 1;
                cfg.fault_trigger = parse_of(&args, i, "--trigger");
            }
            "--seed" => {
                i += 1;
                cfg.seed = parse_of(&args, i, "--seed");
            }
            "--scenario" => {
                i += 1;
                let name = value_of(&args, i, "--scenario");
                let known = SCENARIOS.iter().find(|s| **s == name).unwrap_or_else(|| {
                    eprintln!("unknown scenario {name} (one of {SCENARIOS:?})");
                    std::process::exit(2);
                });
                scenarios.push(known);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: scrack_txn [--n N] [--rounds R] [--steps S] \
                     [--sessions K] [--shards H] [--trigger T] [--seed S] \
                     [--scenario NAME] [--smoke] [--json PATH] [--check]"
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
    if !scenarios.is_empty() {
        cfg.scenarios = scenarios;
    }

    eprintln!(
        "fuzzing {} scenario(s) x {} rounds x {} steps over {} session slots, \
         N={}, then sweeping {} arrival rates ...",
        cfg.scenarios.len(),
        cfg.rounds,
        cfg.steps,
        cfg.sessions,
        cfg.n,
        cfg.load_factors.len(),
    );
    let report = TxnReport::measure(&cfg);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Transactional chaos gauntlet — interleaving fuzzer x fault matrix \
         vs the serial per-epoch oracle\n"
    );
    let _ = writeln!(lock, "{}", report.render_table());
    cli.write_json(&report.to_json(), &mut lock);

    if cli.check {
        let failures = verify_txn(&report);
        scrack_bench::trajectory::finish_check(
            "txn",
            &failures,
            &format!(
                "txn check passed: {} scenarios clean — zero dirty/non-repeatable/\
                 lost/torn anomalies, zero leaked locks, every session in exactly \
                 one outcome, fixed-seed replays bit-identical, every armed fault \
                 fired",
                report.cells.len()
            ),
        );
    }
}
