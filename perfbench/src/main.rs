//! `perfbench <workload> --seed N --seconds S [--trace --spans PATH]`
//! runs one workload and prints its report as one JSON line;
//! `perfbench host` prints the host context. Exits 1 when an answer or
//! an exact counter is wrong, 2 on a usage error.
//!
//! `run.py` in this directory is the entry point: it builds this binary,
//! runs it, and adds what can only be measured from outside the process.

use scrack_perfbench::trace::{timer_floor_ns, Tracer};
use scrack_perfbench::{host, report::Report, run};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench <workload> --seed N --seconds S [--trace] [--spans PATH] | perfbench host"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = args.first().cloned() else {
        return usage("missing workload");
    };
    if workload == "host" {
        let mut report = Report::new();
        host::probe(&mut report);
        println!("{}", report.to_json("host", "host"));
        return ExitCode::SUCCESS;
    }
    let (mut seed, mut seconds, mut traced, mut spans) = (None, None, false, None);
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = it.next().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => traced = true,
            "--spans" => spans = it.next().map(PathBuf::from),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        return usage("--seed and --seconds need numeric values");
    };
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    let Some(mut report) = run(&workload, seed, seconds, tracer.as_mut()) else {
        return usage(&format!("unknown workload {workload}"));
    };
    if let Some(t) = &tracer {
        report.metric("trace.timer_ns", timer_floor_ns(), "ns");
        report.metric("trace.spans", t.spans().len() as f64, "count");
        if let Some(path) = spans {
            if let Err(e) = t.write_csv(&path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let mode = if traced { "traced" } else { "plain" };
    println!("{}", report.to_json(&workload, mode));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
