//! Host context: CPU count and the bandwidth ceiling of a plain `u64`
//! sum over a buffer larger than the last-level cache, at one thread
//! and at `nproc` threads. Wall-clock numbers from this host are read
//! against this ceiling; it is reported, never gated.

use crate::report::{median, Report};
use std::hint::black_box;
use std::time::Instant;

/// Scan buffer size: 512 MiB, above the largest last-level cache the
/// benchmark expects to meet (300 MiB on the reference host).
pub const SCAN_BYTES: usize = 512 << 20;

/// Passes per thread count; the median is reported.
const PASSES: usize = 5;

/// Available parallelism (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// GB/s of one full-buffer sum split over `threads` threads.
fn scan_gbps(buf: &[u64], threads: usize) -> f64 {
    let chunk = buf.len().div_ceil(threads);
    let start = Instant::now();
    let total = std::thread::scope(|s| {
        let handles: Vec<_> = buf
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().fold(0u64, |a, &x| a.wrapping_add(x))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan thread panicked"))
            .fold(0u64, u64::wrapping_add)
    });
    black_box(total);
    (buf.len() * 8) as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// Measures the host context into `report` as `host.*` metrics.
pub fn probe(report: &mut Report) {
    let n = nproc();
    let buf: Vec<u64> = (0..(SCAN_BYTES / 8) as u64).collect();
    let median_of = |threads: usize| {
        let runs: Vec<f64> = (0..PASSES).map(|_| scan_gbps(&buf, threads)).collect();
        median(&runs)
    };
    let t1 = median_of(1);
    let tn = median_of(n);
    report.metric("host.nproc", n as f64, "count");
    report.metric("host.scan_gbps_t1", t1, "GB/s");
    report.metric("host.scan_gbps_tn", tn, "GB/s");
}
