//! miso-par: a zero-dependency scoped worker pool for batch fan-out.
//!
//! The tuner's what-if probes are embarrassingly parallel — each probe is a
//! pure re-optimization of one history query under one hypothetical design —
//! but the system must stay byte-deterministic: every figure and table is
//! diffed across runs. This module therefore offers exactly one primitive,
//! [`run_batch`], with a hard ordering contract: the result vector is indexed
//! by task, never by completion order, so `run_batch(n, f)` returns the same
//! value as `(0..n).map(f)` regardless of thread count or scheduling.
//!
//! Worker count resolution, cheapest first:
//!
//! 1. a programmatic [`set_threads`] override (tests, benches);
//! 2. the `MISO_THREADS` environment variable (read once per process);
//! 3. [`std::thread::available_parallelism`].
//!
//! The pool is *scoped* (`std::thread::scope`): threads are spawned per
//! batch and joined before `run_batch` returns, so borrowed task closures
//! need no `'static` bound and no threads outlive their data. Batches on
//! the tuner hot path are hundreds-to-thousands of optimizer probes, each
//! orders of magnitude more expensive than a thread spawn.

use crate::error::{MisoError, Result};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Whether the current thread *is* a pool worker. A task that itself
    /// calls [`run_batch`]/[`run_chunks`] (e.g. a serve worker running a
    /// vex query that morsel-dispatches) must not spawn a second tier of
    /// workers under the first: nested dispatch runs inline on the worker
    /// thread instead. Results are position-keyed, so inlining cannot
    /// change any output.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is currently inside a pool worker task
/// (nested dispatch from such a thread runs inline).
pub fn in_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Upper bound on worker threads (a safety clamp for absurd `MISO_THREADS`).
const MAX_THREADS: usize = 256;

/// Resolved worker count; 0 means "not resolved yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cached physical parallelism; 0 means "not resolved yet".
static CORES: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism (cached after the first call).
fn cores() -> usize {
    let c = CORES.load(Ordering::Relaxed);
    if c != 0 {
        return c;
    }
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = CORES.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
    CORES.load(Ordering::Relaxed)
}

fn resolve_from_env() -> usize {
    if let Some(v) = std::env::var_os("MISO_THREADS") {
        if let Ok(n) = v.to_string_lossy().trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
        eprintln!("miso-par: ignoring malformed MISO_THREADS ({v:?})");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The worker count batches run with. One relaxed atomic load after the
/// first call, matching the chaos gate convention.
#[inline]
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let n = resolve_from_env().max(1);
    // First resolver wins; racing resolvers computed the same value anyway.
    let _ = THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
    THREADS.load(Ordering::Relaxed)
}

/// Overrides the worker count (clamped to `1..=256`). Benches use this to
/// compare serial and parallel runs inside one process; the equivalence
/// tests use it to prove thread count cannot change results.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Runs one task with a panic fence: a panicking task becomes an `Err`
/// carrying the panic message instead of unwinding through the pool.
fn fenced<T>(i: usize, f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("worker panicked on task {i}: {msg}")
    })
}

/// Runs `f(0), f(1), …, f(n-1)` across the pool and returns the results in
/// task order — byte-identical to the serial `(0..n).map(f).collect()`.
///
/// Tasks are pulled from a shared atomic counter (dynamic load balancing:
/// probe costs vary wildly between a cached rewrite and a full split
/// enumeration). A panicking task does **not** unwind through the pool or
/// poison other workers: remaining tasks still run, and the batch returns
/// `MisoError::Execution` for the lowest-indexed panicking task — the same
/// error for every thread count, so one bad morsel kills one query, never
/// the process.
pub fn run_batch<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // `threads()` is the configured concurrency ceiling; actually spawning
    // more workers than the machine has cores only adds context-switch and
    // cache-thrash overhead (results are position-keyed, so the worker
    // count can never change the output anyway). Re-entrant dispatch — a
    // pool task calling back into the pool — runs inline: the outer batch
    // already owns the worker budget, and blocking a worker on a nested
    // scope would oversubscribe (or, with a bounded queue, deadlock).
    let workers = if in_worker() {
        1
    } else {
        threads().min(n).min(cores())
    };
    if workers <= 1 {
        // Same panic fence as the parallel path: thread count must not
        // change whether a panic surfaces as an error or an unwind.
        return (0..n)
            .map(|i| fenced(i, || f(i)).map_err(MisoError::Execution))
            .collect();
    }
    let next = AtomicUsize::new(0);
    type Bucket<T> = Vec<(usize, std::result::Result<T, String>)>;
    let buckets: Vec<Bucket<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    IN_POOL_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, fenced(i, || f(i))));
                    }
                    // Scoped threads die with the batch, but reset anyway in
                    // case a runtime ever pools/reuses them.
                    IN_POOL_WORKER.with(|w| w.set(false));
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                // Tasks are fenced, so this is pool infrastructure dying —
                // nothing sane to report, propagate.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Deterministic ordering: place every result by its task index.
    let mut out: Vec<Option<std::result::Result<T, String>>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, v) in bucket {
            out[i] = Some(v);
        }
    }
    out.into_iter()
        .map(|v| {
            v.expect("every batch index is claimed exactly once")
                .map_err(MisoError::Execution)
        })
        .collect()
}

/// Runs `f` over fixed-size chunks of a borrowed slice and returns the
/// per-chunk results in chunk order — the morsel dispatch primitive of the
/// execution engine. `f(i, chunk)` receives the chunk index and the items
/// `[i*chunk_size .. (i+1)*chunk_size)` (the last chunk may be short).
///
/// Chunk boundaries depend only on `chunk_size`, never on the worker count,
/// so any per-chunk computation reassembled in chunk order is byte-identical
/// for every `MISO_THREADS` value.
pub fn run_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let n = items.len().div_ceil(chunk_size);
    run_batch(n, |i| {
        let start = i * chunk_size;
        let end = (start + chunk_size).min(items.len());
        f(i, &items[start..end])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_matches_serial_map() {
        let before = threads();
        for t in [1, 2, 8] {
            set_threads(t);
            let got = run_batch(100, |i| i * i).unwrap();
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={t}");
        }
        set_threads(before);
    }

    #[test]
    fn empty_and_single_batches() {
        let before = threads();
        set_threads(4);
        assert_eq!(run_batch(0, |i| i).unwrap(), Vec::<usize>::new());
        assert_eq!(run_batch(1, |i| i + 7).unwrap(), vec![7]);
        set_threads(before);
    }

    #[test]
    fn worker_panic_becomes_execution_error() {
        let before = threads();
        for t in [1, 2, 8] {
            set_threads(t);
            let err = run_batch(32, |i| {
                if i == 5 {
                    panic!("morsel {i} exploded");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.kind(), "execution", "threads={t}");
            assert!(
                err.message().contains("morsel 5 exploded"),
                "threads={t}: {err}"
            );
            assert!(err.is_permanent(), "a panic is not retryable");
        }
        set_threads(before);
    }

    #[test]
    fn lowest_indexed_panic_wins_for_every_thread_count() {
        let before = threads();
        for t in [1, 4] {
            set_threads(t);
            let err = run_batch(64, |i| {
                if i == 9 || i == 40 {
                    panic!("task {i}");
                }
                i
            })
            .unwrap_err();
            assert!(
                err.message().contains("task 9"),
                "threads={t}: reported {err}"
            );
        }
        set_threads(before);
    }

    #[test]
    fn chunk_panic_surfaces_from_run_chunks() {
        let before = threads();
        set_threads(4);
        let items: Vec<u32> = (0..100).collect();
        let err = run_chunks(&items, 10, |i, _chunk| {
            if i == 3 {
                panic!("bad chunk");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.message().contains("bad chunk"));
        set_threads(before);
    }

    #[test]
    fn set_threads_clamps() {
        let before = threads();
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(1_000_000);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(before);
    }

    #[test]
    fn chunks_cover_slice_in_order() {
        let before = threads();
        let items: Vec<u64> = (0..1000).collect();
        for t in [1, 2, 8] {
            set_threads(t);
            // Sum + span per chunk; reassembled order must be chunk order.
            let parts = run_chunks(&items, 64, |i, chunk| {
                (i, chunk[0], chunk.iter().copied().sum::<u64>())
            })
            .unwrap();
            assert_eq!(parts.len(), 1000usize.div_ceil(64), "threads={t}");
            for (idx, &(i, first, _)) in parts.iter().enumerate() {
                assert_eq!(i, idx);
                assert_eq!(first, (idx * 64) as u64);
            }
            let total: u64 = parts.iter().map(|&(_, _, s)| s).sum();
            assert_eq!(total, items.iter().sum::<u64>());
        }
        set_threads(before);
    }

    #[test]
    fn chunks_on_empty_and_short_inputs() {
        let before = threads();
        set_threads(4);
        assert_eq!(
            run_chunks(&[] as &[u8], 16, |_, c| c.len()).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(
            run_chunks(&[1u8, 2, 3], 16, |_, c| c.len()).unwrap(),
            vec![3]
        );
        set_threads(before);
    }

    #[test]
    fn nested_dispatch_runs_inline_and_correctly() {
        let before = threads();
        for t in [1, 4] {
            set_threads(t);
            // Each outer task fans out again: the inner batch must run
            // inline on the outer worker's thread (never a second tier of
            // workers) and still return position-keyed results.
            let got = run_batch(6, |i| {
                let outer_thread = std::thread::current().id();
                let inner = run_chunks(&[1u64, 2, 3, 4, 5], 2, |ci, chunk| {
                    assert!(in_worker() || threads() == 1 || cores() == 1);
                    assert_eq!(
                        std::thread::current().id(),
                        outer_thread,
                        "nested dispatch must not hop threads"
                    );
                    (ci, chunk.iter().sum::<u64>())
                })
                .unwrap();
                assert_eq!(inner, vec![(0, 3), (1, 7), (2, 5)]);
                i * 10
            })
            .unwrap();
            assert_eq!(got, vec![0, 10, 20, 30, 40, 50], "threads={t}");
        }
        set_threads(before);
    }

    #[test]
    fn nested_panic_still_classified() {
        let before = threads();
        set_threads(4);
        let err = run_batch(3, |i| {
            run_chunks(&[0u8; 8], 4, move |ci, _| {
                if i == 1 && ci == 1 {
                    panic!("nested task blew up");
                }
                ci
            })
        })
        .unwrap()
        .into_iter()
        .find_map(|r| r.err())
        .expect("the nested panic surfaces as an error");
        assert_eq!(err.kind(), "execution");
        assert!(err.message().contains("nested task blew up"));
        set_threads(before);
    }

    #[test]
    fn in_worker_is_false_outside_the_pool() {
        assert!(!in_worker());
    }

    #[test]
    fn borrowed_data_is_usable() {
        let before = threads();
        set_threads(3);
        let data: Vec<String> = (0..20).map(|i| format!("item-{i}")).collect();
        let lens = run_batch(data.len(), |i| data[i].len()).unwrap();
        assert_eq!(lens.len(), 20);
        assert_eq!(lens[0], 6);
        assert_eq!(lens[10], 7);
        set_threads(before);
    }
}
