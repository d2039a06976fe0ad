//! The exact-counter gate at a small size: at a fixed seed the
//! single-client and serving workloads' `Stats` repeat bit for bit from
//! run to run, and a traced run counts exactly what an untraced one does.

use scrack_perfbench::report::Report;
use scrack_perfbench::serve::{self, ServeSpec};
use scrack_perfbench::single::{self, SingleSpec};
use scrack_perfbench::trace::Tracer;
use scrack_perfbench::txn::{self, TxnSpec};
use scrack_txn::{TxnError, TxnOutcome};
use scrack_workloads::WorkloadKind;
use std::time::Instant;

fn small_single(kind: WorkloadKind) -> SingleSpec {
    SingleSpec {
        n: 1 << 14,
        kind,
        queries: 2_000,
        lookup_every: 4,
        sample_every: 8,
        min_rounds: 2,
        setups: 2,
    }
}

const SMALL_SERVE: ServeSpec = ServeSpec {
    n: 1 << 16,
    reads: 2_000,
    update_rate: 0.1,
    batch: 16,
    warmup_batches: 8,
    min_rounds: 2,
    setups: 2,
};

fn count(r: &Report, name: &str) -> u64 {
    r.counts
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no count {name}"))
}

fn assert_ok(r: &Report) {
    assert!(r.correct, "run failed its checks: {:?}", r.error);
}

#[test]
fn single_client_counts_repeat_and_survive_tracing() {
    for kind in [WorkloadKind::Sequential, WorkloadKind::Random] {
        let spec = small_single(kind);
        let a = single::run(&spec, 7, 0.0, None);
        let b = single::run(&spec, 7, 0.0, None);
        let mut t = Tracer::new(Instant::now());
        let traced = single::run(&spec, 7, 0.0, Some(&mut t));
        for r in [&a, &b, &traced] {
            assert_ok(r);
        }
        assert!(count(&a, "touched") > 0 && count(&a, "cracks") > 0);
        assert_eq!(a.counts, b.counts, "{kind:?}: counts differ run to run");
        assert_eq!(
            a.counts, traced.counts,
            "{kind:?}: tracing changed the counts"
        );
        assert!(t.durations("core.select").len() >= 2 * spec.queries);
        assert!(traced.get("index.insert_ns_mean").is_some());

        let other = single::run(&spec, 8, 0.0, None);
        assert_ok(&other);
        assert_ne!(
            a.counts, other.counts,
            "{kind:?}: the seed did not reach the inputs"
        );
    }
}

#[test]
fn serving_counts_repeat_and_match_the_serial_replay() {
    let a = serve::run(&SMALL_SERVE, 3, 0.0, None);
    let b = serve::run(&SMALL_SERVE, 3, 0.0, None);
    let mut t = Tracer::new(Instant::now());
    let traced = serve::run(&SMALL_SERVE, 3, 0.0, Some(&mut t));
    for r in [&a, &b, &traced] {
        assert_ok(r);
    }
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.counts, traced.counts);
    assert_eq!(
        traced.get("parallel.shards"),
        Some(scrack_perfbench::host::nproc() as f64)
    );
    // Checkpoints merge the writes: the pending set never holds more
    // than about one interval's writes, well below the round's 200.
    let peak = traced.get("updates.pending_peak").expect("pending_peak");
    assert!(peak > 0.0 && peak < 100.0, "pending peak {peak}");
}

#[test]
fn sessions_commit_and_leave_no_locks() {
    let spec = TxnSpec {
        n: 1 << 14,
        sessions: 200,
        min_rounds: 2,
        setups: 2,
    };
    let mut t = Tracer::new(Instant::now());
    let r = txn::run(&spec, 5, 0.0, Some(&mut t));
    assert_ok(&r);
    assert_eq!(r.attempted, 400);
    assert_eq!(r.failed, 0);
    assert_eq!(t.durations("txn.commit").len(), 400);
    assert_eq!(r.get("txn.aborted"), Some(0.0));
}

#[test]
fn a_delete_that_misses_its_key_is_a_wrong_answer() {
    let committed = TxnOutcome::Committed { epoch: 1 };
    let aborted = TxnOutcome::Aborted { retryable: true };
    assert_eq!(txn::verdict(&committed, Ok(()), Ok(true)), Ok(true));
    assert!(txn::verdict(&committed, Ok(()), Ok(false)).is_err());
    assert!(txn::verdict(&aborted, Ok(()), Ok(false)).is_err());
    assert_eq!(
        txn::verdict(&aborted, Ok(()), Err(TxnError::Wounded)),
        Ok(false)
    );
    assert_eq!(txn::verdict(&TxnOutcome::Shed, Ok(()), Ok(true)), Ok(false));
}
