//! miso-par: a zero-dependency worker pool for batch fan-out.
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
//! The count is the caller plus its helpers, and never more than the
//! machine's cores. Helpers are process-lifetime threads, spawned the first
//! time a batch has a seat for one and parked on a condvar between batches:
//! a steady stream dispatches hundreds of batches of a few cheap tasks (probe
//! misses, morsels of a view-sized input), where a thread spawn per worker
//! per batch costs more than the batch. Dispatch is a publish and a notify;
//! the dispatching thread then pulls tasks from the same counter as the
//! helpers, so a small batch is usually finished by its caller before a
//! helper has woken, and the caller returns only once the batch is retracted
//! and every helper that entered it has left — which is what lets task
//! closures borrow from the caller's stack with no `'static` bound.

use crate::error::{MisoError, Result};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// Whether the current thread is running a pool task — as a helper, or
    /// as the caller working on its own batch. A task that itself calls
    /// [`run_batch`]/[`run_chunks`] (e.g. one base run of a serving wave,
    /// whose operators morsel-dispatch) runs that batch inline on the
    /// thread it is on: the outer batch already owns the helpers. Results
    /// are position-keyed, so inlining cannot change any output.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is currently inside a pool task (nested
/// dispatch from such a thread runs inline).
pub fn in_worker() -> bool {
    IN_POOL_WORKER.get()
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

/// The worker count batches run with: the caller plus `threads() - 1`
/// helpers (fewer on a machine with fewer cores). One relaxed atomic load
/// after the first call, matching the chaos gate convention.
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
/// tests use it to prove thread count cannot change results. Helpers already
/// spawned stay parked when the count is lowered.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// What the pool has done since the process started. Everything but
/// `batches` depends on scheduling, so these belong in reports and tests of
/// the pool itself, never in a golden.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls to [`run_batch`] (and through it [`run_chunks`]).
    pub batches: u64,
    /// Batches no helper was offered: one task or one thread, dispatched
    /// from inside a pool task, or while another thread's batch was in flight.
    pub inline_batches: u64,
    /// Helper threads spawned; at most `threads().min(cores) - 1` at its
    /// highest setting, however many batches run.
    pub helpers_spawned: u64,
    /// Tasks a helper ran rather than the batch's caller.
    pub helper_tasks: u64,
}

static BATCHES: AtomicU64 = AtomicU64::new(0);
static INLINE_BATCHES: AtomicU64 = AtomicU64::new(0);
static HELPERS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static HELPER_TASKS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool's counters (relaxed loads: statistics only).
pub fn stats() -> PoolStats {
    PoolStats {
        batches: BATCHES.load(Ordering::Relaxed),
        inline_batches: INLINE_BATCHES.load(Ordering::Relaxed),
        helpers_spawned: HELPERS_SPAWNED.load(Ordering::Relaxed),
        helper_tasks: HELPER_TASKS.load(Ordering::Relaxed),
    }
}

/// What a helper runs for a batch: pull tasks until the batch's counter runs
/// out. The `'static` is a lie told in [`with_helpers`], which also keeps it
/// harmless.
type Job = &'static (dyn Fn() + Sync);

/// Everything helpers and dispatchers share, behind [`POOL`]. Private to
/// this module: the `unsafe` in [`with_helpers`] relies on nothing else
/// being able to copy `job` out or lower `active`.
struct PoolState {
    /// The batch in flight: set by its dispatcher, cleared by the same
    /// thread once `active` is back to zero. `Some` also means "the helpers
    /// are taken" — another dispatcher runs its batch inline.
    job: Option<Job>,
    /// Bumped per published batch, so a helper that ran a batch dry does not
    /// enter it again while its dispatcher finishes the last task.
    epoch: u64,
    /// Helpers that may still enter `job`; zeroed to retract it.
    seats: usize,
    /// Helpers inside `job` right now.
    active: usize,
    /// Helper threads alive; they never exit.
    helpers: usize,
}

static POOL: Mutex<PoolState> = Mutex::new(PoolState {
    job: None,
    epoch: 0,
    seats: 0,
    active: 0,
    helpers: 0,
});
/// Helpers park here between batches.
static WAKE: Condvar = Condvar::new();
/// A retracting dispatcher waits here for the last helper to leave.
static LEFT: Condvar = Condvar::new();

/// Locks [`POOL`], poisoned or not: every update of [`PoolState`] is a store
/// to one integer or option that leaves it valid, and a dispatcher must be
/// able to retract its job while unwinding.
fn lock_pool() -> MutexGuard<'static, PoolState> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn helper_main() {
    IN_POOL_WORKER.set(true);
    let mut seen = 0;
    let mut pool = lock_pool();
    loop {
        let job = match pool.job {
            Some(job) if pool.seats > 0 && pool.epoch != seen => job,
            _ => {
                pool = WAKE.wait(pool).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
        };
        seen = pool.epoch;
        pool.seats -= 1;
        pool.active += 1;
        drop(pool);
        // Tasks are fenced inside the job; this fence is for the pool's own
        // code, so that nothing can kill a helper between raising `active`
        // and lowering it and leave its dispatcher waiting for ever.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        pool = lock_pool();
        pool.active -= 1;
        if pool.active == 0 {
            LEFT.notify_one();
        }
    }
}

/// Takes the batch back: no helper may enter it any more, and the ones
/// inside are waited for. Runs from `Drop`, so an unwinding dispatcher
/// retracts too.
struct Retract;

impl Drop for Retract {
    fn drop(&mut self) {
        let mut pool = lock_pool();
        pool.seats = 0;
        while pool.active > 0 {
            pool = LEFT.wait(pool).unwrap_or_else(PoisonError::into_inner);
        }
        pool.job = None;
    }
}

/// Runs `body` while up to `seats` helpers run `job` beside it, and returns
/// only when no helper is inside `job` or can enter it again. With no seat
/// to offer, or while another thread's batch is in flight, it just runs
/// `body`.
fn with_helpers<R>(job: &(dyn Fn() + Sync), seats: usize, body: impl FnOnce() -> R) -> R {
    // A batch with no seat to offer does not touch the shared state at all.
    let free = (seats > 0)
        .then(lock_pool)
        .filter(|pool| pool.job.is_none());
    let Some(mut pool) = free else {
        INLINE_BATCHES.fetch_add(1, Ordering::Relaxed);
        return body();
    };
    while pool.helpers < seats {
        let name = format!("miso-pool-{}", pool.helpers + 1);
        // Detached on purpose: helpers park for the life of the process. If
        // the OS refuses a thread the caller does the helper's share.
        if std::thread::Builder::new()
            .name(name)
            .spawn(helper_main)
            .is_err()
        {
            break;
        }
        pool.helpers += 1;
        HELPERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    }
    // SAFETY: the transmute only erases the lifetime of `job` (same fat
    // pointer, same vtable), so what must hold is that no helper calls or
    // keeps the reference once this function has returned or unwound.
    // The reference lives in one place, `POOL.job`. A helper copies it out
    // only under the lock, in the same critical section that takes a seat
    // and raises `active`, and lowers `active` under the lock only after its
    // call has returned and the copy is dead. `Retract` exists from the
    // moment the lock is released (nothing in between can unwind) and is
    // dropped on return and on unwind alike: it zeroes `seats` (no further
    // entry), waits under the lock for `active == 0` (every entrant has
    // left) and only then clears `job`. `job.is_none()` above keeps a second
    // dispatcher from overwriting a published job. `PoolState` is private to
    // this module and these are its only writers.
    let erased = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
    pool.job = Some(erased);
    pool.epoch = pool.epoch.wrapping_add(1);
    pool.seats = seats;
    drop(pool);
    let _retract = Retract;
    for _ in 0..seats {
        WAKE.notify_one();
    }
    body()
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
/// enumeration) by the calling thread and by up to `threads() - 1` helpers.
/// A panicking task does **not** unwind through the pool or poison other
/// workers: every remaining task still runs, whoever runs it, and the batch
/// returns `MisoError::Execution` for the lowest-indexed panicking task —
/// the same error and the same side effects for every thread count, so one
/// bad morsel kills one query, never the process.
pub fn run_batch<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    BATCHES.fetch_add(1, Ordering::Relaxed);
    type Bucket<T> = Vec<(usize, std::result::Result<T, String>)>;
    // Relaxed: the counter hands out indices and publishes nothing else;
    // results travel through `helped`'s lock.
    let next = AtomicUsize::new(0);
    let pull = || {
        let mut local: Bucket<T> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break local;
            }
            local.push((i, fenced(i, || f(i))));
        }
    };
    let helped: Mutex<Vec<Bucket<T>>> = Mutex::new(Vec::new());
    let help = || {
        let local = pull();
        HELPER_TASKS.fetch_add(local.len() as u64, Ordering::Relaxed);
        helped
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(local);
    };
    // `threads()` is the configured ceiling; more workers than cores only
    // adds context switches (results are position-keyed, so the count can
    // never change the output anyway). A pool task dispatching again gets no
    // seats: the outer batch owns the helpers.
    let seats = if in_worker() {
        0
    } else {
        threads().min(n).min(cores()).saturating_sub(1)
    };
    let mine = with_helpers(&help, seats, || {
        let nested = IN_POOL_WORKER.replace(true);
        let mine = pull();
        IN_POOL_WORKER.set(nested);
        mine
    });
    // Deterministic ordering: place every result by its task index.
    let mut out: Vec<Option<std::result::Result<T, String>>> = (0..n).map(|_| None).collect();
    let helped = helped.into_inner().unwrap_or_else(PoisonError::into_inner);
    for (i, v) in helped.into_iter().flatten().chain(mine) {
        out[i] = Some(v);
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
    fn every_task_runs_after_a_panic_for_every_thread_count() {
        let before = threads();
        for t in [1, 8] {
            set_threads(t);
            let ran = AtomicUsize::new(0);
            let err = run_batch(32, |i| {
                if i == 3 {
                    panic!("task {i}");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
            assert!(err.message().contains("task 3"), "threads={t}: {err}");
            assert_eq!(ran.into_inner(), 31, "threads={t}");
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
