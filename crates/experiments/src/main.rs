//! CLI for the experiment harness.
//!
//! ```text
//! experiments [FIGURES...] [--n N] [--queries Q] [--seed S]
//!             [--out DIR] [--verify] [--quick]
//!             [--kernel branchy|branchless|auto]
//!             [--update per-element|batched]
//!             [--threads N,N,...] [--batch B]
//!
//! FIGURES: fig2 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16
//!          fig17 fig18 fig19 fig20 | ext-parallel ext-resilience ... |
//!          all (default: all)
//! --quick: N=10^5, Q=10^3 — smoke-test scale
//! --threads/--batch: the ext-parallel concurrency sweep's thread counts
//!                    and BatchScheduler batch size
//!
//! exit codes: 0 ok, 2 usage error (unknown argument, or a flag value
//!             that is missing or malformed)
//! ```

use scrack_experiments::cli::{list_of, parse_of, value_of};
use scrack_experiments::figures;
use scrack_experiments::ExpConfig;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut figures_wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                cfg.n = parse_of(&args, i, "--n");
            }
            "--queries" | "-q" => {
                i += 1;
                cfg.queries = parse_of(&args, i, "--queries");
            }
            "--seed" => {
                i += 1;
                cfg.seed = parse_of(&args, i, "--seed");
            }
            "--out" => {
                i += 1;
                cfg.out_dir = Some(value_of(&args, i, "--out").into());
            }
            "--verify" => cfg.verify = true,
            "--quick" => {
                cfg.n = 100_000;
                cfg.queries = 1_000;
            }
            "--kernel" => {
                i += 1;
                let value = value_of(&args, i, "--kernel");
                cfg.kernel = scrack_core::KernelPolicy::parse(value).unwrap_or_else(|| {
                    eprintln!("--kernel takes branchy|branchless|auto, got {value}");
                    std::process::exit(2);
                });
            }
            "--update" => {
                i += 1;
                let value = value_of(&args, i, "--update");
                cfg.update = scrack_core::UpdatePolicy::parse(value).unwrap_or_else(|| {
                    eprintln!("--update takes per-element|batched, got {value}");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                cfg.threads = list_of(&args, i, "--threads");
            }
            "--batch" => {
                i += 1;
                cfg.batch = parse_of(&args, i, "--batch");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [fig2|fig8|...|fig20|ext-updates|\
                     ext-io|ext-chooser|ext-parallel|ext-resilience|all]... \
                     [--n N] [--queries Q] [--seed S] [--out DIR] \
                     [--verify] [--quick] [--kernel branchy|branchless|auto] \
                     [--update per-element|batched] \
                     [--threads N,N,...] [--batch B]"
                );
                return;
            }
            other if other.starts_with("fig") || other.starts_with("ext-") || other == "all" => {
                figures_wanted.push(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if figures_wanted.is_empty() || figures_wanted.iter().any(|f| f == "all") {
        figures_wanted = [
            "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16",
            "fig17", "fig18", "fig19", "fig20", "ext-updates", "ext-io", "ext-chooser",
            "ext-metrics", "ext-parallel", "ext-resilience",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(
        lock,
        "# Stochastic Database Cracking — experiment run\n\n\
         Reproduction of Halim et al., VLDB 2012. Scale: N={}, Q={}, \
         seed={}, verify={}, kernel={}, update={}.\n",
        cfg.n, cfg.queries, cfg.seed, cfg.verify, cfg.kernel, cfg.update
    );
    for fig in &figures_wanted {
        let t0 = std::time::Instant::now();
        let section = match fig.as_str() {
            "fig2" => figures::fig02::run(&cfg),
            "fig7" => figures::fig07::run(&cfg),
            "fig8" => figures::fig08::run(&cfg),
            "fig9" => figures::fig09::run(&cfg),
            "fig10" => figures::fig10::run(&cfg),
            "fig11" => figures::fig11::run(&cfg),
            "fig12" => figures::fig12::run(&cfg),
            "fig13" => figures::fig13::run(&cfg),
            "fig14" => figures::fig14::run(&cfg),
            "fig15" => figures::fig15::run(&cfg),
            "fig16" => figures::fig16::run(&cfg),
            "fig17" => figures::fig17::run(&cfg),
            "fig18" => figures::fig18::run(&cfg),
            "fig19" => figures::fig19::run(&cfg),
            "fig20" => figures::fig20::run(&cfg),
            "ext-updates" => figures::ext_updates::run(&cfg),
            "ext-io" => figures::ext_io::run(&cfg),
            "ext-chooser" => figures::ext_chooser::run(&cfg),
            "ext-metrics" => figures::ext_metrics::run(&cfg),
            "ext-parallel" => figures::ext_parallel::run(&cfg),
            "ext-resilience" => figures::ext_resilience::run(&cfg),
            other => {
                eprintln!("unknown figure: {other}");
                continue;
            }
        };
        let _ = writeln!(lock, "{section}");
        let _ = writeln!(
            lock,
            "_({fig} experiment wall-clock: {:.1}s)_\n",
            t0.elapsed().as_secs_f64()
        );
    }
}
