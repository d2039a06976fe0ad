//! Benches for the extension crates: the §6 chooser's decision overhead,
//! the buffer pool's hit/fault paths, external engine I/O throughput,
//! rowid-set intersection strategies, and piece-locked concurrent cracking.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use scrack_bench::bench_data;
use scrack_chooser::{ChooserEngine, PolicyKind};
use scrack_core::{build_engine, CrackConfig, Engine, EngineKind};
use scrack_external::{build_paged_engine, DiskStore, BufferPool, PagedEngineKind, PoolConfig};
use scrack_parallel::{ParallelStrategy, PieceLockedCracker};
use scrack_query::RowIdSet;
use scrack_types::QueryRange;
use scrack_workloads::{WorkloadKind, WorkloadSpec};
use std::sync::Arc;

const N: u64 = 1_048_576;
const QUERIES: usize = 512;
const SEED: u64 = 20120827;

fn queries(kind: WorkloadKind) -> Vec<QueryRange> {
    WorkloadSpec::new(kind, N, QUERIES, SEED).generate()
}

/// Chooser policies vs the fixed strategies: what a per-query decision
/// layer costs on the workload where fixed-MDD1R is already optimal
/// (Sequential) and where fixed-Crack is (Random).
fn bench_chooser_policies(c: &mut Criterion) {
    let data = bench_data(N);
    for wk in [WorkloadKind::Sequential, WorkloadKind::Random] {
        let qs = queries(wk);
        let mut g = c.benchmark_group(format!("ext_chooser_{wk:?}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(QUERIES as u64));
        for fixed in [EngineKind::Crack, EngineKind::Mdd1r] {
            g.bench_function(BenchmarkId::from_parameter(fixed.label()), |b| {
                b.iter_batched(
                    || build_engine(fixed, data.clone(), CrackConfig::default(), SEED),
                    |mut e| {
                        for q in &qs {
                            std::hint::black_box(e.select(*q).len());
                        }
                    },
                    BatchSize::LargeInput,
                );
            });
        }
        for policy in [
            PolicyKind::PieceAware,
            PolicyKind::EpsilonGreedy,
            PolicyKind::Ucb1,
            PolicyKind::Contextual,
        ] {
            g.bench_function(BenchmarkId::from_parameter(format!("{policy:?}")), |b| {
                b.iter_batched(
                    || ChooserEngine::from_kind(data.clone(), CrackConfig::default(), SEED, policy),
                    |mut e| {
                        for q in &qs {
                            std::hint::black_box(e.select(*q).len());
                        }
                    },
                    BatchSize::LargeInput,
                );
            });
        }
        g.finish();
    }
}

/// Buffer pool primitive costs: resident hit vs fault-with-eviction.
fn bench_buffer_pool(c: &mut Criterion) {
    let page_elems = 4096usize;
    let data = bench_data(N);
    let mut g = c.benchmark_group("ext_buffer_pool");
    g.throughput(Throughput::Elements(1));
    g.bench_function("hit", |b| {
        let disk = DiskStore::new(&data, page_elems);
        let mut pool = BufferPool::new(disk, PoolConfig { page_elems, frames: 8 });
        pool.page(0);
        b.iter(|| std::hint::black_box(pool.page(0)[7]));
    });
    g.bench_function("fault_evict_clean", |b| {
        let disk = DiskStore::new(&data, page_elems);
        let mut pool = BufferPool::new(disk, PoolConfig { page_elems, frames: 2 });
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 200;
            std::hint::black_box(pool.page(i)[7])
        });
    });
    g.bench_function("fault_evict_dirty", |b| {
        let disk = DiskStore::new(&data, page_elems);
        let mut pool = BufferPool::new(disk, PoolConfig { page_elems, frames: 2 });
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 200;
            let p = pool.page_mut(i);
            p[7] = p[7].wrapping_add(1);
            std::hint::black_box(p[7])
        });
    });
    g.finish();
}

/// External engines end to end: cost of answering a full Random sequence
/// through the paged path, per engine.
fn bench_external_engines(c: &mut Criterion) {
    let data = bench_data(N);
    let qs = queries(WorkloadKind::Random);
    let config = PoolConfig::with_memory_fraction(N as usize, 0.10, 4096);
    let mut g = c.benchmark_group("ext_external_engines");
    g.sample_size(10);
    g.throughput(Throughput::Elements(QUERIES as u64));
    for kind in [
        PagedEngineKind::Sort,
        PagedEngineKind::Crack,
        PagedEngineKind::Mdd1r,
    ] {
        g.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter_batched(
                || build_paged_engine(kind, &data, config, SEED),
                |mut e| {
                    for q in &qs {
                        std::hint::black_box(e.select(*q).len());
                    }
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// Rowid intersection: merge vs bitmap vs adaptive across densities.
fn bench_rowset_intersection(c: &mut Criterion) {
    let mut g = c.benchmark_group("ext_rowset_intersection");
    for (label, stride) in [("dense", 2u32), ("medium", 16), ("sparse", 256)] {
        let a: RowIdSet = (0..1_000_000u32).step_by(stride as usize).collect();
        let b: RowIdSet = (0..1_000_000u32).step_by(3).collect();
        g.throughput(Throughput::Elements(a.len() as u64));
        g.bench_function(BenchmarkId::new("merge", label), |bch| {
            bch.iter(|| std::hint::black_box(a.intersect_merge(&b).len()));
        });
        g.bench_function(BenchmarkId::new("bitmap", label), |bch| {
            bch.iter(|| std::hint::black_box(a.intersect_bitmap(&b).len()));
        });
        g.bench_function(BenchmarkId::new("adaptive", label), |bch| {
            bch.iter(|| std::hint::black_box(a.intersect(&b).len()));
        });
    }
    g.finish();
}

/// Concurrent crackers: 4-thread disjoint-region streams through the
/// piece-lock design.
fn bench_concurrent_crackers(c: &mut Criterion) {
    let data = bench_data(N);
    let threads = 4u64;
    let per_thread = 128u64;
    let mut g = c.benchmark_group("ext_concurrent_4threads");
    g.sample_size(10);
    g.throughput(Throughput::Elements(threads * per_thread));
    g.bench_function("piece_locks", |b| {
        b.iter_batched(
            || {
                Arc::new(PieceLockedCracker::new(
                    data.clone(),
                    ParallelStrategy::Stochastic,
                    CrackConfig::default(),
                    SEED,
                ))
            },
            |plc| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let plc = Arc::clone(&plc);
                        std::thread::spawn(move || {
                            let region = t * (N / threads);
                            for i in 0..per_thread {
                                let a = region + (i * 6151) % (N / threads - 2_000);
                                std::hint::black_box(
                                    plc.select_aggregate(QueryRange::new(a, a + 1_000)),
                                );
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("bench worker");
                }
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// Aggregation: the single-predicate pushdown path (fold over the
/// select's views) vs the general rowid path for the same query.
fn bench_aggregate_pushdown(c: &mut Criterion) {
    use scrack_query::{CrackedTable, Predicate};
    let n = 262_144u64;
    let base: Vec<u64> = bench_data(n);
    let mut g = c.benchmark_group("ext_aggregate");
    g.throughput(Throughput::Elements(n / 8));
    g.bench_function("pushdown_same_column", |b| {
        let mut t = CrackedTable::new();
        t.add_column("v", base.clone(), EngineKind::Mdd1r, SEED);
        // Warm the index so the bench isolates the aggregation path.
        t.aggregate(&[Predicate::range("v", 0, n / 8)], "v");
        b.iter(|| std::hint::black_box(t.aggregate(&[Predicate::range("v", 0, n / 8)], "v").sum));
    });
    g.bench_function("rowid_path_cross_column", |b| {
        let mut t = CrackedTable::new();
        t.add_column("v", base.clone(), EngineKind::Mdd1r, SEED);
        t.add_column("w", base.clone(), EngineKind::Mdd1r, SEED + 1);
        t.aggregate(&[Predicate::range("v", 0, n / 8)], "w");
        b.iter(|| std::hint::black_box(t.aggregate(&[Predicate::range("v", 0, n / 8)], "w").sum));
    });
    g.finish();
}

/// Budgeted sideways maps: the rebuild tax of a too-small storage budget.
fn bench_budgeted_sideways(c: &mut Criterion) {
    use scrack_columnstore::Table;
    use scrack_sideways::{BudgetedSideways, MapStrategy};
    let n = 131_072u64;
    let make_table = || {
        let mut t = Table::new();
        t.add_column("a", bench_data(n));
        t.add_column("b", (0..n).map(|i| i * 2).collect());
        t.add_column("c", (0..n).rev().collect());
        t
    };
    let mut g = c.benchmark_group("ext_sideways_budget");
    g.sample_size(10);
    for (label, budget_maps) in [("thrash_1_map", 1usize), ("fits_2_maps", 2)] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || {
                    BudgetedSideways::new(
                        make_table(),
                        MapStrategy::Stochastic,
                        CrackConfig::default(),
                        SEED,
                        budget_maps * n as usize,
                    )
                },
                |mut s| {
                    for i in 0..32u64 {
                        let q = QueryRange::new((i * 997) % (n / 2), (i * 997) % (n / 2) + 512);
                        let (sel, proj) = if i % 2 == 0 { ("a", "b") } else { ("c", "b") };
                        std::hint::black_box(s.select_project(sel, q, proj).len());
                    }
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_chooser_policies,
    bench_buffer_pool,
    bench_external_engines,
    bench_rowset_intersection,
    bench_concurrent_crackers,
    bench_aggregate_pushdown,
    bench_budgeted_sideways,
);
criterion_main!(benches);
