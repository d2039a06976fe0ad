//! Beyond the paper: cracking under parallelism (§6's future work).
//!
//! A piece-locked cracker — §6's "proper fine grained locking": one lock
//! per piece, so threads working different key regions crack one column
//! concurrently instead of serializing on a column lock. (Batched
//! partition-parallel throughput has its own example,
//! `batch_throughput`.)
//!
//! Run with: `cargo run --release --example parallel_exploration`

use std::sync::Arc;
use std::time::Instant;
use stochastic_cracking::prelude::*;

fn main() {
    let n: u64 = 4_000_000;
    let data: Vec<u64> = unique_permutation(n, 17);

    println!("Piece-locked cracker, threads on disjoint key regions ({n} tuples):");
    for threads in [1u64, 2, 4, 8] {
        let plc = Arc::new(PieceLockedCracker::new(
            data.clone(),
            ParallelStrategy::Stochastic,
            CrackConfig::default(),
            17,
        ));
        let t0 = Instant::now();
        let mut handles = Vec::new();
        let region = n / threads;
        for t in 0..threads {
            let plc = Arc::clone(&plc);
            handles.push(std::thread::spawn(move || {
                let mut matched = 0usize;
                for i in 0..(3200 / threads) {
                    let a = (t * region + i * 7919) % (n - 1_000);
                    let (c, _) = plc.select_aggregate(QueryRange::new(a, a + 1_000));
                    matched += c;
                }
                matched
            }));
        }
        let matched: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        println!(
            "  {threads} thread(s): 3200 queries in {:>8.2?}; {matched} matched, {} pieces",
            t0.elapsed(),
            plc.piece_count()
        );
    }
    println!(
        "\nPiece locks let disjoint regions reorganize truly concurrently; \
         contention fades as pieces shrink."
    );
}
