//! Parallel parameter sweeps on scoped threads (`std::thread::scope`).
//!
//! Each simulation run is single-threaded and deterministic; sweeps over
//! (parameters × seeds) are embarrassingly parallel. Following the
//! workspace's concurrency guides, the executor uses scoped threads over a
//! shared work counter (an atomic cursor) — no unsafe, no channels, no
//! locks: every worker accumulates `(index, result)` pairs in its own
//! buffer, and the buffers are merged into input order after the join.
//!
//! Workers are **panic-isolated**: every `f(&item)` call runs under
//! [`std::panic::catch_unwind`], so one poisoned item cannot tear down the
//! sweep mid-merge. [`parallel_map`] lets every other item finish, then
//! reports the first poisoned item with its index and panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` over every item, using up to `threads` worker threads (0 ⇒
/// all available cores). Results are returned in input order. `f` must be
/// deterministic per item for reproducible sweeps. When that is one
/// worker (`threads == 1`, or a single item), it runs on the calling
/// thread.
///
/// A panicking item does not stop its siblings: every other item still
/// runs to completion and merges, and only then does `parallel_map` panic,
/// naming the lowest poisoned index and its panic message. Callers that
/// must survive a poisoned item catch its panic inside `f` (as
/// `sim`'s batch loop does per instance).
pub fn parallel_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let threads = threads.min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    // The sweeps in this workspace pass pure per-item closures, so
    // unwinding out of `f` leaves no shared state half-mutated.
    let run_item = |i: usize| -> Result<O, String> {
        catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|p| payload_message(p.as_ref()))
    };
    // One worker's loop: items are claimed through the lock-free cursor
    // and gathered in the worker's own buffer, so results never contend.
    let work = || {
        let mut local: Vec<(usize, Result<O, String>)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, run_item(i)));
        }
        local
    };
    // A single worker runs on the calling thread: a one-thread sweep
    // spawns nothing.
    let gathered: Vec<(usize, Result<O, String>)> = if threads == 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker died outside an item"))
                .collect()
        })
    };
    let mut results: Vec<Option<Result<O, String>>> = (0..items.len()).map(|_| None).collect();
    for (i, o) in gathered {
        results[i] = Some(o);
    }
    results
        .into_iter()
        .enumerate()
        .map(|(i, o)| match o.expect("every index visited") {
            Ok(o) => o,
            Err(msg) => panic!("sweep worker poisoned: item {i} panicked: {msg}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 4, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let items = vec![1u64, 2, 3];
        let out = parallel_map(&items, 0, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = Vec::new();
        let out: Vec<u64> = parallel_map(&items, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![5u64];
        let out = parallel_map(&items, 64, |&x| x * 10);
        assert_eq!(out, vec![50]);
    }

    #[test]
    fn contention_shaped_many_tiny_items() {
        // Worst case for the old once-per-item results mutex: a large
        // number of near-zero-cost items across many workers. Output must
        // still be complete and in input order.
        let items: Vec<u64> = (0..10_000).collect();
        let out = parallel_map(&items, 8, |&x| x ^ 0xA5);
        let expect: Vec<u64> = items.iter().map(|&x| x ^ 0xA5).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn heavy_parallel_determinism() {
        // Deterministic per-item work must give identical results across
        // runs regardless of scheduling.
        let items: Vec<u64> = (0..64).collect();
        let run = || {
            parallel_map(&items, 8, |&x| {
                // A small deterministic computation.
                let mut acc = x;
                for i in 0..1_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                acc
            })
        };
        assert_eq!(run(), run());
    }

    /// A deliberately panicking item lets every sibling item run to
    /// completion, at any thread count, and the panic that follows names
    /// its index and message.
    #[test]
    fn poisoned_item_degrades_instead_of_aborting() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1usize, 4] {
            let finished = AtomicUsize::new(0);
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(&items, threads, |&x| {
                    if x == 17 {
                        panic!("poisoned seed {x}");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    x * 2
                })
            }));
            let msg = payload_message(r.expect_err("must propagate").as_ref());
            assert!(msg.contains("item 17"), "{msg}");
            assert!(msg.contains("poisoned seed 17"), "{msg}");
            assert_eq!(finished.load(Ordering::SeqCst), 49, "threads {threads}");
        }
    }

    /// One worker runs on the calling thread, with the same panic
    /// isolation: a poisoned item still lets its siblings finish and is
    /// reported after the merge.
    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..6).collect();
        for (threads, items) in [(1, &items[..]), (4, &items[..1])] {
            let ids = parallel_map(items, threads, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "threads {threads}");
        }
        let finished = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 1, |&x| {
                assert_eq!(std::thread::current().id(), caller);
                if x == 2 {
                    panic!("poisoned on the caller");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let msg = payload_message(r.expect_err("must propagate").as_ref());
        assert!(
            msg.contains("item 2") && msg.contains("poisoned on the caller"),
            "{msg}"
        );
        assert_eq!(finished.load(Ordering::SeqCst), 5);
    }

    /// A panicking item fails the sweep, but only after the full merge,
    /// with the poisoned index in the message.
    #[test]
    fn parallel_map_reports_poisoned_index_after_merge() {
        let items: Vec<u64> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            parallel_map(&items, 2, |&x| {
                if x == 5 {
                    panic!("always");
                }
                x
            })
        });
        let payload = r.expect_err("must propagate");
        let msg = payload_message(payload.as_ref());
        assert!(msg.contains("item 5"), "{msg}");
    }
}
