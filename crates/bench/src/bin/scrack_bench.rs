//! The kernel perf-trajectory reporter.
//!
//! ```text
//! scrack_bench [--sizes N,N,...] [--samples K] [--quick]
//!              [--json PATH] [--check]
//! ```
//!
//! Measures the reorganization kernels (branchy vs branchless) and prints
//! a summary table; `--json PATH` also writes the machine-readable report
//! committed as `BENCH_<pr>.json`. `--check` exits nonzero if any
//! kernel/variant/size cell is missing from the report — the CI
//! bench-smoke gate (coverage only, never a perf threshold: CI boxes are
//! too noisy to gate on speedups).

use scrack_bench::kernels_report::{KernelReport, DEFAULT_SIZES};
use scrack_experiments::cli::{list_of, parse_of, value_of};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes: Vec<usize> = DEFAULT_SIZES.to_vec();
    let mut samples = 9usize;
    let mut json_path: Option<String> = None;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                sizes = list_of(&args, i, "--sizes");
            }
            "--samples" => {
                i += 1;
                samples = parse_of(&args, i, "--samples");
            }
            "--quick" => {
                // Smoke scale: small pieces, few samples — seconds, not
                // minutes, and still one cell per kernel/variant/size.
                sizes = vec![4_096, 65_536];
                samples = 3;
            }
            "--json" => {
                i += 1;
                json_path = Some(value_of(&args, i, "--json").to_string());
            }
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: scrack_bench [--sizes N,N,...] [--samples K] \
                     [--quick] [--json PATH] [--check]"
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

    assert!(!sizes.is_empty(), "need at least one size");
    eprintln!(
        "measuring {} sizes x {} kernels x 2 variants, {samples} samples each ...",
        sizes.len(),
        scrack_bench::kernels_report::KERNELS.len()
    );
    let report = KernelReport::measure(&sizes, samples);

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(lock, "# Kernel bench — median ns/element\n");
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
            "coverage check passed: {} cells, all kernel/variant/size \
             combinations present",
            report.cells.len()
        );
    }
}
