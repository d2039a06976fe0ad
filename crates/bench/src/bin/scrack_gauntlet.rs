//! The self-driving gauntlet reporter.
//!
//! ```text
//! scrack_gauntlet [--n N] [--queries Q] [--factor F] [--epoch E]
//!                 [--seed S] [--scenario NAME] [--smoke] [--json PATH]
//!                 [--check]
//! ```
//!
//! Races the self-driving chooser against every static configuration of
//! its action space on every workload scenario — steady generators and
//! adversarial mid-stream phase changes — and prints a summary table;
//! `--json PATH` also writes the machine-readable `scrack-trajectory/v1`
//! document committed as `BENCH_8.json`. `--check` exits nonzero if any
//! scenario is missing, the chooser exceeds the factor of the best
//! static config, any answer diverges from the oracle, or the
//! fixed-seed replay is not bit-identical — the CI gauntlet-smoke gate
//! (the costs are deterministic tuple counts, so this gate never flakes
//! on wall time). `--scenario` (repeatable) restricts the sweep.

use scrack_bench::gauntlet_report::{verify_gauntlet, GauntletConfig, GauntletReport, SCENARIOS};
use scrack_bench::trajectory::CommonCli;
use scrack_experiments::cli::{parse_of, value_of};
use std::io::Write as _;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = CommonCli::extract(&mut args);
    let mut cfg = if cli.smoke {
        GauntletConfig::smoke()
    } else {
        GauntletConfig::default()
    };
    let mut scenarios: Vec<&'static str> = Vec::new();
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
            "--factor" => {
                i += 1;
                cfg.factor = parse_of(&args, i, "--factor");
            }
            "--epoch" => {
                i += 1;
                cfg.epoch_len = parse_of(&args, i, "--epoch");
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
                    "usage: scrack_gauntlet [--n N] [--queries Q] [--factor F] \
                     [--epoch E] [--seed S] [--scenario NAME] [--smoke] \
                     [--json PATH] [--check]"
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
        "racing the self-driving chooser on {} scenario(s), N={}, Q={}, \
         epoch={}, gate {}x ...",
        cfg.scenarios.len(),
        cfg.n,
        cfg.queries,
        cfg.epoch_len,
        cfg.factor,
    );
    let report = GauntletReport::measure(&cfg);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Self-driving gauntlet — chooser vs best static config \
         (cost = touched + materialized tuples)\n"
    );
    let _ = writeln!(lock, "{}", report.render_table());
    cli.write_json(&report.to_json(), &mut lock);

    if cli.check {
        let failures = verify_gauntlet(&report);
        scrack_bench::trajectory::finish_check(
            "gauntlet",
            &failures,
            &format!(
                "gauntlet check passed: {} scenarios, chooser within {}x of the \
                 best static config on every cell, zero oracle divergences, \
                 fixed-seed replays bit-identical",
                report.cells.len(),
                cfg.factor
            ),
        );
    }
}
