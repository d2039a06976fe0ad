//! Concurrency extensions for cracked columns.
//!
//! §6 of Halim et al. 2012 lists concurrency control as open cracking
//! work: "the physical reorganizations [of concurrent queries] have to be
//! synchronized, possibly with proper fine grained locking". This crate
//! keeps the two concurrency shapes that win a measured cell on top of
//! the stochastic engines:
//!
//! * [`BatchScheduler`] — throughput execution: batches of queries are
//!   grouped by key region and run partition-parallel over key-disjoint
//!   shards with per-shard work queues (Alvarez et al., DaMoN 2014).
//!   Batches may interleave update ops ([`BatchOp`]): inserts/deletes
//!   key-route to their owning shard and merge on demand through
//!   `scrack_updates`' pending queues. The shard map comes from
//!   [`key_disjoint_partitions`], which the `scrack_txn` session layer
//!   shares.
//! * [`PieceLockedCracker`] — §6's "proper fine grained locking": one
//!   lock per piece, so independent query streams in different key
//!   regions crack one column concurrently, with contention shrinking as
//!   the index converges. It wins tail latency.
//!
//! Cross-session concurrency control lives in [`lock`]: a
//! shared/exclusive range-[`LockManager`] with FIFO anti-starvation
//! grants, deadline-budgeted waits (timeout-wound deadlock resolution),
//! and RAII guards. [`PieceLockedCracker`] runs its piece latches
//! through it, and the `scrack_txn` session layer uses it for
//! per-key write locks — one locking story.
//!
//! Threaded paths run on [`executor`], a small work-stealing pool that
//! caps live workers at available parallelism and lets idle workers
//! steal queued tasks, so skewed shards don't idle cores.
//! Tasks can run with per-task panic isolation
//! ([`executor::run_tasks_isolated`]); [`BatchScheduler`]'s
//! fault-hardened entry point (`execute_resilient`, policy surface in
//! [`resilience`]) builds admission control, deadlines, and the
//! quarantine→scan→rebuild degradation ladder on top of it.
//!
//! Every wrapper takes a [`scrack_core::CrackConfig`], so the concurrent
//! paths run the same branchy/branchless reorganization kernels
//! ([`scrack_core::KernelPolicy`]) as the single-threaded engines. Both
//! preserve the workspace-wide invariant: results equal the scan oracle
//! under any interleaving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod executor;
pub mod lock;
mod piecelock;
pub mod resilience;

pub use batch::{key_disjoint_partitions, BatchOp, BatchScheduler};
pub use lock::{LockError, LockGuard, LockManager, LockMode, LockStats};
pub use piecelock::PieceLockedCracker;
pub use resilience::{
    AdmissionPolicy, BatchReport, QueryOutcome, ResilienceStats, ServingConfig, ShardHealth,
};

/// Reorganization strategy run inside the concurrent wrappers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Original cracking.
    Crack,
    /// Stochastic cracking (MDD1R).
    Stochastic,
}
