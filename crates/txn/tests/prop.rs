//! Differential transaction tests: random interleaved multi-session
//! streams against a serial per-epoch oracle.
//!
//! Three layers of guarantee:
//!
//! * **oracle equality** — every read a session issues returns exactly
//!   the `(count, key_sum)` a flat multiset model computes for the
//!   session's snapshot plus its own writes, and every session ends in
//!   exactly the outcome (including the committed epoch) the model
//!   predicts from first-committer-wins validation;
//! * **config invariance** — the same schedule produces bit-identical
//!   answer traces across both cracking strategies and both
//!   `UpdatePolicy` values, with `check_integrity` and a drained lock
//!   table after every schedule;
//! * **serial equivalence** — replaying the oracle's committed history,
//!   in epoch order, through every update-capable factory engine yields
//!   the same final answers as a fresh transactional session, tying the
//!   session layer to the single-threaded update path.

use proptest::prelude::*;
use scrack_core::{CrackConfig, Engine, UpdatePolicy};
use scrack_parallel::{ParallelStrategy, ServingConfig};
use scrack_txn::{Session, TxnManager, TxnOutcome};
use scrack_types::QueryRange;
use scrack_updates::{build_update_engine, update_capable_kinds};
use std::collections::HashMap;

const N: u64 = 1_200;
/// Write keys may land beyond the original domain (appends).
const KEY_SPAN: u64 = 3 * N / 2;
const SESSIONS: usize = 4;

/// One step of an interleaved multi-session schedule.
#[derive(Clone, Debug)]
enum Op {
    Read(u64, u64),
    Insert(u64),
    Delete(u64),
    Commit,
    Abort,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest stub has no weighted prop_oneof; repeating
    // the read arm approximates a read-heavy transactional mix.
    prop_oneof![
        (0u64..N, 1u64..400).prop_map(|(a, w)| Op::Read(a, w)),
        (0u64..N, 1u64..400).prop_map(|(a, w)| Op::Read(a, w)),
        (0u64..KEY_SPAN).prop_map(Op::Insert),
        (0u64..KEY_SPAN).prop_map(Op::Delete),
        Just(Op::Commit),
        Just(Op::Abort),
    ]
}

/// One committed op in the oracle's serial history. Evaporated deletes
/// stay in the history — they change no state but still participate in
/// first-committer-wins validation, exactly like `LoggedOp`.
#[derive(Clone, Copy, Debug)]
enum HistOp {
    Insert(u64),
    Delete { key: u64, hits: bool },
}

impl HistOp {
    fn key(&self) -> u64 {
        match self {
            HistOp::Insert(k) => *k,
            HistOp::Delete { key, .. } => *key,
        }
    }
}

/// The serial per-epoch oracle: a sorted base multiset plus the full
/// committed history, epoch-stamped in commit order.
struct Oracle {
    base: Vec<u64>, // sorted
    committed: Vec<(u64, HistOp)>,
    epoch: u64,
}

/// The oracle's view of one open session.
struct OracleSession {
    snapshot: u64,
    writes: Vec<HistOp>,
}

impl Oracle {
    fn new(data: &[u64]) -> Self {
        let mut base = data.to_vec();
        base.sort_unstable();
        Self {
            base,
            committed: Vec::new(),
            epoch: 0,
        }
    }

    fn begin(&self) -> OracleSession {
        OracleSession {
            snapshot: self.epoch,
            writes: Vec::new(),
        }
    }

    /// `(count, key_sum)` visible to `s` in `q`: base + committed ops at
    /// or before the snapshot + the session's own writes.
    fn read(&self, s: &OracleSession, q: QueryRange) -> (usize, u64) {
        let lo = self.base.partition_point(|x| *x < q.low);
        let hi = self.base.partition_point(|x| *x < q.high);
        let mut count = (hi - lo) as i64;
        let mut sum = self.base[lo..hi]
            .iter()
            .fold(0u64, |a, k| a.wrapping_add(*k));
        let overlay = self
            .committed
            .iter()
            .filter(|(ep, _)| *ep <= s.snapshot)
            .map(|(_, op)| op)
            .chain(s.writes.iter());
        for op in overlay {
            match op {
                HistOp::Insert(k) if q.contains(*k) => {
                    count += 1;
                    sum = sum.wrapping_add(*k);
                }
                HistOp::Delete { key, hits: true } if q.contains(*key) => {
                    count -= 1;
                    sum = sum.wrapping_sub(*key);
                }
                _ => {}
            }
        }
        (count.max(0) as usize, sum)
    }

    fn insert(&mut self, s: &mut OracleSession, k: u64) {
        let _ = self;
        s.writes.push(HistOp::Insert(k));
    }

    /// Resolves delete fate at write time: live at the snapshot plus the
    /// session's own prior net.
    fn delete(&mut self, s: &mut OracleSession, k: u64) -> bool {
        let live = self.read(s, QueryRange::new(k, k + 1)).0;
        let hits = live > 0;
        s.writes.push(HistOp::Delete { key: k, hits });
        hits
    }

    /// First-committer-wins commit: any committed op after the snapshot
    /// on a written key (evaporated deletes included) aborts.
    fn commit(&mut self, s: OracleSession) -> TxnOutcome {
        if s.writes.is_empty() {
            return TxnOutcome::Committed { epoch: s.snapshot };
        }
        let conflict = self
            .committed
            .iter()
            .filter(|(ep, _)| *ep > s.snapshot)
            .any(|(_, op)| s.writes.iter().any(|w| w.key() == op.key()));
        if conflict {
            return TxnOutcome::Aborted { retryable: true };
        }
        self.epoch += 1;
        let ep = self.epoch;
        self.committed.extend(s.writes.into_iter().map(|w| (ep, w)));
        TxnOutcome::Committed { epoch: ep }
    }
}

fn column(salt: u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..N).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    for i in (1..data.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        data.swap(i, (state % (i as u64 + 1)) as usize);
    }
    data
}

fn config(update: UpdatePolicy) -> CrackConfig {
    CrackConfig::default()
        .with_crack_size(64)
        .with_progressive_threshold(256)
        .with_update(update)
}

/// Replays one interleaved schedule against both the manager and the
/// oracle, asserting read-for-read and outcome-for-outcome equality.
/// Returns the answer trace (for cross-config comparison) and the oracle
/// (for serial-equivalence replays).
///
/// The driver is single-threaded, so a write op whose key is currently
/// locked by *another* live session is skipped rather than issued — a
/// blocking acquire would just burn the wound budget and abort, and the
/// interesting conflicts (first-committer-wins on disjoint lock
/// lifetimes) don't need overlapping waits. Cross-thread blocking is
/// covered by the sessions/lock_schedules integration tests.
fn run_schedule(
    steps: &[(usize, Op)],
    seed: u64,
    strategy: ParallelStrategy,
    update: UpdatePolicy,
) -> (Vec<(usize, u64)>, Oracle) {
    let data = column(seed);
    let mut oracle = Oracle::new(&data);
    let mgr = TxnManager::new(
        data,
        3,
        strategy,
        config(update),
        ServingConfig::default(),
        seed,
    );
    let mut live: HashMap<usize, (Session<u64>, OracleSession)> = HashMap::new();
    let mut locked: HashMap<u64, usize> = HashMap::new();
    let mut answers = Vec::new();
    let ctx = |i: usize| format!("step {i} ({strategy:?}/{update})");

    for (i, (sid, op)) in steps.iter().enumerate() {
        let sid = *sid % SESSIONS;
        let (session, model) = match live.remove(&sid) {
            Some(pair) => pair,
            None => (mgr.begin().unwrap(), oracle.begin()),
        };
        let (mut session, mut model) = (session, model);
        match *op {
            Op::Read(a, w) => {
                let q = QueryRange::new(a, a + w);
                let got = session.read(q).unwrap();
                let want = oracle.read(&model, q);
                assert_eq!(got, want, "{}: read {q} diverged", ctx(i));
                answers.push(got);
                live.insert(sid, (session, model));
            }
            Op::Insert(k) => {
                if locked.get(&k).is_none_or(|&o| o == sid) {
                    session.insert(k).unwrap();
                    oracle.insert(&mut model, k);
                    locked.insert(k, sid);
                }
                live.insert(sid, (session, model));
            }
            Op::Delete(k) => {
                if locked.get(&k).is_none_or(|&o| o == sid) {
                    let got = session.delete(k).unwrap();
                    let want = oracle.delete(&mut model, k);
                    assert_eq!(got, want, "{}: delete({k}) fate diverged", ctx(i));
                    locked.insert(k, sid);
                }
                live.insert(sid, (session, model));
            }
            Op::Commit => {
                let got = session.commit();
                let want = oracle.commit(model);
                assert_eq!(got, want, "{}: outcome diverged", ctx(i));
                locked.retain(|_, o| *o != sid);
            }
            Op::Abort => {
                let got = session.abort();
                assert_eq!(
                    got,
                    TxnOutcome::Aborted { retryable: false },
                    "{}: abort outcome",
                    ctx(i)
                );
                locked.retain(|_, o| *o != sid);
            }
        }
    }
    // Drain the stragglers; outcomes must still agree.
    let mut rest: Vec<usize> = live.keys().copied().collect();
    rest.sort_unstable();
    for sid in rest {
        let (session, model) = live.remove(&sid).unwrap();
        let got = session.commit();
        let want = oracle.commit(model);
        assert_eq!(got, want, "drain of session {sid}: outcome diverged");
    }

    assert_eq!(mgr.lock_residue(), 0, "lock table must drain");
    mgr.check_integrity().unwrap();
    // Final state equality over the full domain and epoch agreement.
    let mut last = mgr.begin().unwrap();
    let final_model = oracle.begin();
    let full = QueryRange::new(0, KEY_SPAN + 1);
    assert_eq!(
        last.read(full).unwrap(),
        oracle.read(&final_model, full),
        "final multiset diverged"
    );
    assert_eq!(mgr.current_epoch(), oracle.epoch, "epoch counters diverged");
    last.commit();
    (answers, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleaved schedules, full config matrix: oracle equality
    /// everywhere, plus bit-identical answer traces across strategies and
    /// update policies (range aggregates are layout-independent).
    #[test]
    fn interleaved_sessions_match_the_serial_oracle(
        steps in proptest::collection::vec((0usize..SESSIONS, op_strategy()), 1..48),
        seed in 0u64..1_000,
    ) {
        let mut traces = Vec::new();
        for strategy in [ParallelStrategy::Crack, ParallelStrategy::Stochastic] {
            for update in UpdatePolicy::ALL {
                let (trace, _) = run_schedule(&steps, seed, strategy, update);
                traces.push(trace);
            }
        }
        for t in &traces[1..] {
            prop_assert_eq!(t, &traces[0], "answers diverged across configs");
        }
    }

    /// Serial equivalence: the committed history of a random interleaved
    /// schedule, replayed in epoch order through every update-capable
    /// factory engine, lands on the same final state a fresh session sees.
    #[test]
    fn committed_history_replays_serially_on_every_engine(
        steps in proptest::collection::vec((0usize..SESSIONS, op_strategy()), 1..40),
        seed in 0u64..1_000,
    ) {
        let (_, oracle) = run_schedule(
            &steps, seed, ParallelStrategy::Stochastic, UpdatePolicy::default(),
        );
        let probes = [
            QueryRange::new(0, KEY_SPAN + 1),
            QueryRange::new(0, N / 2),
            QueryRange::new(N / 3, N),
        ];
        let final_model = oracle.begin();
        let want: Vec<(usize, u64)> =
            probes.iter().map(|q| oracle.read(&final_model, *q)).collect();
        for kind in update_capable_kinds() {
            let mut eng = build_update_engine(
                kind, column(seed),
                config(UpdatePolicy::default()), seed,
            );
            for (_, op) in &oracle.committed {
                match op {
                    HistOp::Insert(k) => eng.insert(*k),
                    HistOp::Delete { key, hits: true } => eng.delete(*key),
                    // Resolved as evaporated when it committed; a serial
                    // replay must not re-resolve it.
                    HistOp::Delete { hits: false, .. } => {}
                }
            }
            for (q, want) in probes.iter().zip(&want) {
                let out = eng.select(*q);
                let got = (out.len(), out.key_checksum(eng.data()));
                prop_assert_eq!(
                    &got, want,
                    "{}: serial replay diverged on {}", eng.name(), q
                );
            }
            eng.check_integrity().unwrap();
        }
    }
}
