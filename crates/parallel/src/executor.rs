//! A small work-stealing executor for coarse shard tasks.
//!
//! [`BatchScheduler`](crate::BatchScheduler) used to spawn one scoped
//! thread per shard regardless of queue length or core count: a 16-shard
//! scheduler on a 4-core box paid 16 thread spawns per batch and let the
//! OS multiplex them, and a skewed batch left most of those threads idle
//! while one shard drained a long queue. This module replaces that shape
//! with the standard answer (Alvarez et al., DaMoN 2014 run their
//! parallel-chunked cracking on exactly such a pool): a fixed set of
//! workers, **at most one per available core**, each with its own task
//! deque, and idle workers *stealing* queued tasks from loaded ones so a
//! skewed task distribution cannot idle cores.
//!
//! Tasks here are coarse — "drain this shard's queue" — and mutually
//! independent (each owns `&mut` to its shard), so the executor can stay
//! small: no futures, no unsafe, no task respawning. Total work is fixed
//! up front, which makes termination trivial: a worker exits once every
//! deque is empty (tasks in flight are owned by the worker running them
//! and need no tracking).
//!
//! Determinism: the result of every task depends only on the task itself
//! (per-shard state and RNG streams), never on which worker ran it or
//! when, so answers and [`Stats`](scrack_types::Stats) are bit-identical
//! under any scheduling — the property `tests/threaded_determinism.rs`
//! pins across the whole parallel layer.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One isolated task panic: which task died and the panic message.
///
/// Produced by [`run_tasks_isolated`]; the worker that caught it went on
/// to run its remaining tasks, so one bad task never takes down a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// The item index of the task that panicked.
    pub task: usize,
    /// The panic payload rendered as text (`"<non-string panic>"` when
    /// the payload was neither `&str` nor `String`).
    pub message: String,
}

/// Renders a caught panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Ok(s) = payload.downcast::<String>() {
        *s
    } else {
        "<non-string panic>".to_string()
    }
}

/// Number of workers worth running for `tasks` independent tasks: one
/// per available core, never more than there are tasks, at least one.
#[inline]
pub fn worker_count(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(tasks)
        .max(1)
}

/// Runs `items` through `f` on up to `workers` work-stealing threads and
/// returns the results in item order.
///
/// Each item becomes one task; tasks are dealt round-robin onto
/// per-worker deques, workers pop their own deque from the front and
/// steal from the back of the most loaded other deque when theirs runs
/// dry. `f` receives the item's index and the item. With `workers <= 1`
/// (or a single item) everything runs inline on the calling thread — no
/// spawn cost on the serial path.
///
/// ```
/// let squares = scrack_parallel::executor::run_tasks(4, (0u64..8).collect(), |_, x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_tasks<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_tasks_isolated(workers, items, f)
        .into_iter()
        .map(|r| match r {
            Ok(r) => r,
            Err(p) => panic!("executor task {} panicked: {}", p.task, p.message),
        })
        .collect()
}

/// [`run_tasks`] with **panic isolation**: each task runs under
/// `catch_unwind`, so a panicking task yields `Err(TaskPanic)` in its
/// result slot while every other task — including later tasks on the
/// same worker — still runs to completion. The serial (`workers <= 1`)
/// path catches identically, so isolation semantics don't depend on the
/// thread count.
///
/// Callers own the unwind-safety judgement: a task that panicked may
/// have left its `&mut` state half-reorganized, and the schedulers that
/// use this entry point quarantine that state (discard the cracker
/// index, degrade to scans) rather than trusting it.
pub fn run_tasks_isolated<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<Result<R, TaskPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    let run_one = |i: usize, item: T| -> Result<R, TaskPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| TaskPanic {
            task: i,
            message: panic_message(payload),
        })
    };
    let workers = workers.min(total).max(1);
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| run_one(i, t))
            .collect();
    }

    // Deal tasks round-robin so every worker starts loaded; skew in task
    // *cost* (not count) is what stealing exists to fix.
    let mut deques: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].push_back((i, item));
    }
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> = deques.into_iter().map(Mutex::new).collect();
    let slots: Vec<Mutex<Option<Result<R, TaskPanic>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();

    let deques_ref = &deques;
    let slots_ref = &slots;
    let run_ref = &run_one;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || loop {
                    // Own deque first (front: FIFO keeps the dealt order,
                    // so serial and threaded runs visit tasks alike)...
                    let task = deques_ref[w].lock().pop_front();
                    let task = match task {
                        Some(t) => Some(t),
                        // ...then steal from the back of the fullest
                        // other deque.
                        None => steal(deques_ref, w),
                    };
                    match task {
                        Some((i, item)) => {
                            let r = run_ref(i, item);
                            *slots_ref[i].lock() = Some(r);
                        }
                        // Every deque empty: total work is fixed, so
                        // nothing will ever appear again — exit.
                        None => break,
                    }
                })
            })
            .collect();
        for h in handles {
            // Workers catch task panics, so a join failure would be a bug
            // in the executor itself, not in a task.
            h.join().expect("executor worker infrastructure panicked");
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("task completed exactly once"))
        .collect()
}

/// Steals one task from the back of the longest other deque, or `None`
/// when every deque is empty.
fn steal<T>(deques: &[Mutex<VecDeque<(usize, T)>>], thief: usize) -> Option<(usize, T)> {
    // Probe for the fullest victim without holding more than one lock.
    let mut victim: Option<(usize, usize)> = None;
    for (v, deque) in deques.iter().enumerate() {
        if v == thief {
            continue;
        }
        let len = deque.lock().len();
        if len > 0 && victim.is_none_or(|(_, best)| len > best) {
            victim = Some((v, len));
        }
    }
    let (v, _) = victim?;
    // The victim may have drained between the probe and now; that is
    // fine — the caller loops until every deque reads empty.
    deques[v].lock().pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1, 2, 3, 8, 64] {
            let items: Vec<u64> = (0..37).collect();
            let out = run_tasks(workers, items, |i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, (0..37).map(|x| x * 3).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_tasks(4, (0..100).collect::<Vec<usize>>(), |_, x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn skewed_task_costs_still_complete() {
        // One task 1000x the cost of the rest: stealing (or at worst
        // patience) must still finish everything with correct results.
        let items: Vec<usize> = (0..16).collect();
        let out = run_tasks(4, items, |_, x| {
            let reps = if x == 0 { 100_000 } else { 100 };
            (0..reps).fold(x as u64, |acc, i| acc.wrapping_add(i as u64 ^ acc.rotate_left(7)))
        });
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u64> = run_tasks(4, Vec::<u64>::new(), |_, x| x);
        assert!(none.is_empty());
        assert_eq!(run_tasks(4, vec![9u64], |_, x| x + 1), vec![10]);
    }

    /// PR 7 regression pin (satellite): a panicking task still aborts
    /// the *plain* `run_tasks` call — the legacy contract callers that
    /// haven't opted into isolation rely on (fail loud, never return
    /// partial results silently).
    #[test]
    fn run_tasks_propagates_a_task_panic() {
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_tasks(workers, (0..8).collect::<Vec<usize>>(), |_, x| {
                    if x == 3 {
                        panic!("boom in task 3");
                    }
                    x
                })
            });
            let msg = panic_message(caught.expect_err("must propagate"));
            assert!(msg.contains("task 3"), "workers={workers}: {msg}");
        }
    }

    #[test]
    fn isolated_run_completes_every_other_task_around_a_panic() {
        use std::sync::atomic::AtomicUsize;
        for workers in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let out = run_tasks_isolated(workers, (0..16).collect::<Vec<usize>>(), |_, x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x % 5 == 2 {
                    panic!("injected {x}");
                }
                x * 2
            });
            assert_eq!(ran.load(Ordering::Relaxed), 16, "workers={workers}");
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 2 {
                    let p = r.as_ref().expect_err("panicking task yields Err");
                    assert_eq!(p.task, i);
                    assert!(p.message.contains(&format!("injected {i}")), "{p:?}");
                } else {
                    assert_eq!(*r.as_ref().expect("healthy task"), i * 2);
                }
            }
        }
    }

    #[test]
    fn isolated_run_renders_non_str_panic_payloads() {
        let out = run_tasks_isolated(1, vec![0u64], |_, _| -> u64 {
            std::panic::panic_any(42u64)
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "<non-string panic>");
    }

    #[test]
    fn worker_count_caps_at_tasks_and_stays_positive() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(worker_count(1_000_000), cpus);
    }
}
