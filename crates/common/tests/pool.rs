//! The pool's helpers outlive every batch, so what one batch leaves behind is
//! what the next one starts from. Each test forces the interleaving it is
//! about with a `Barrier` (a batch whose tasks wait for each other can only be
//! finished by two threads at once) and reads `pool::stats()` for who did
//! what. This file is a process of its own and its tests take one lock, so
//! nothing else dispatches while a test counts.

use miso_common::pool::{self, run_batch};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// True (after saying so) on a machine where the pool never has a helper.
fn single_core() -> bool {
    let single = cores() < 2;
    if single {
        eprintln!("one core: the pool has no helpers to test");
    }
    single
}

/// A batch only two threads can finish: each task waits for the other.
fn rendezvous() {
    let both = Barrier::new(2);
    let ran = run_batch(2, |_| {
        both.wait();
        thread::current().id()
    })
    .unwrap();
    assert_ne!(ran[0], ran[1]);
    assert!(
        ran.contains(&thread::current().id()),
        "the caller works too"
    );
}

#[test]
fn two_dispatchers_at_once_both_get_position_keyed_results() {
    let _x = exclusive();
    let before_threads = pool::threads();
    pool::set_threads(4);
    let started = Barrier::new(2);
    let release = Barrier::new(2);
    thread::scope(|s| {
        // The first batch stays in flight until the second has returned:
        // whoever runs its task 0 stops inside it.
        let first = s.spawn(|| {
            run_batch(8, |i| {
                if i == 0 {
                    started.wait();
                    release.wait();
                }
                i * 3
            })
        });
        started.wait();
        let before = pool::stats();
        let second = run_batch(8, |i| i + 100).unwrap();
        let after = pool::stats();
        release.wait();
        assert_eq!(second, (100..108).collect::<Vec<_>>());
        assert_eq!(after.batches, before.batches + 1);
        assert_eq!(
            after.inline_batches,
            before.inline_batches + 1,
            "the helpers were taken, so the second batch ran on its caller"
        );
        let first = first.join().unwrap().unwrap();
        assert_eq!(first, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    });
    pool::set_threads(before_threads);
}

#[test]
fn a_panicking_batch_leaves_the_helpers_usable() {
    let _x = exclusive();
    if single_core() {
        return;
    }
    let before_threads = pool::threads();
    pool::set_threads(2);
    let caller = thread::current().id();
    let both = Barrier::new(2);
    // Both threads are inside the batch when the helper's task panics.
    let err = run_batch(2, |i| {
        both.wait();
        if thread::current().id() != caller {
            panic!("helper task {i} exploded");
        }
        i
    })
    .unwrap_err();
    assert_eq!(err.kind(), "execution");
    assert!(err.message().contains("exploded"), "{err}");
    let spawned = pool::stats().helpers_spawned;
    rendezvous();
    assert_eq!(
        pool::stats().helpers_spawned,
        spawned,
        "the same helper, not a replacement"
    );
    pool::set_threads(before_threads);
}

#[test]
fn set_threads_raised_and_lowered_between_batches() {
    let _x = exclusive();
    if single_core() {
        return;
    }
    let before_threads = pool::threads();
    let caller = thread::current().id();
    let all_on_caller = || {
        let before = pool::stats();
        let ran = run_batch(16, |_| thread::current().id()).unwrap();
        assert!(ran.iter().all(|&id| id == caller));
        let after = pool::stats();
        assert_eq!(after.inline_batches, before.inline_batches + 1);
        assert_eq!(after.helper_tasks, before.helper_tasks);
    };
    pool::set_threads(1);
    all_on_caller();
    pool::set_threads(2);
    rendezvous();
    pool::set_threads(8);
    rendezvous();
    let got = run_batch(64, |i| i * i).unwrap();
    assert_eq!(got, (0..64).map(|i| i * i).collect::<Vec<_>>());
    assert!((pool::stats().helpers_spawned as usize) < 8.min(cores()));
    // Lowered again: the helpers stay parked and are offered nothing.
    pool::set_threads(1);
    all_on_caller();
    pool::set_threads(2);
    rendezvous();
    pool::set_threads(before_threads);
}

#[test]
fn a_batch_its_caller_finished_alone_does_not_lose_the_next_wake_up() {
    let _x = exclusive();
    if single_core() {
        return;
    }
    let before_threads = pool::threads();
    pool::set_threads(2);
    // The helper exists and is parked.
    rendezvous();
    // Two trivial tasks are done long before a parked thread can wake; which
    // batch that happens to is scheduling, so look for one.
    let mut alone = false;
    for _ in 0..10_000 {
        let before = pool::stats();
        assert_eq!(run_batch(2, |i| i + 1).unwrap(), vec![1, 2]);
        let after = pool::stats();
        assert_eq!(
            after.inline_batches, before.inline_batches,
            "published all the same"
        );
        if after.helper_tasks == before.helper_tasks {
            alone = true;
            break;
        }
    }
    assert!(
        alone,
        "10 000 two-task batches and the caller never finished one alone"
    );
    // The helper was notified for a batch that was gone when it looked (or
    // had not looked yet): the next batch must still get it.
    let before = pool::stats();
    rendezvous();
    assert_eq!(pool::stats().helper_tasks, before.helper_tasks + 1);
    pool::set_threads(before_threads);
}

#[test]
fn ten_thousand_small_batches_spawn_no_thread_per_batch() {
    let _x = exclusive();
    let before_threads = pool::threads();
    pool::set_threads(8);
    let before = pool::stats();
    for k in 0..10_000usize {
        assert_eq!(
            run_batch(4, |i| i * 2 + k).unwrap(),
            vec![k, k + 2, k + 4, k + 6]
        );
    }
    let after = pool::stats();
    assert_eq!(after.batches, before.batches + 10_000);
    assert!(
        (after.helpers_spawned as usize) < pool::threads().min(cores()),
        "{after:?}"
    );
    pool::set_threads(before_threads);
}
