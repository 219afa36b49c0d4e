//! Concurrent budget-tree semantics under real threads.
//!
//! The scheduling daemon (`swpd`) hands every in-flight request an
//! isolated child budget (`fork_isolated`) rebound to a per-request
//! cancel token (`cancelled_by`), all derived from one admission pool.
//! Two properties make that safe:
//!
//! * **isolation** — cancelling one request's token never stops a
//!   sibling request or the pool itself, and an isolated child's ticks
//!   never drain the pool;
//! * **propagation** — exhaustion of the *parent* (its deadline, or its
//!   cancel token for children that still share it) always reaches
//!   every child.
//!
//! These run 8 OS threads per case so the atomics are exercised under
//! genuine contention, not just sequential interleavings.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use swp_milp::budget::CHECK_INTERVAL;
use swp_milp::{Budget, CancelToken, Exhaustion};

const THREADS: usize = 8;
/// Wall-clock guard for a child whose cancellation has not been fired
/// yet; only a hang trips it.
const HANG_GUARD: Duration = Duration::from_secs(60);

/// Ticks `b` until it trips and returns the exhaustion. The main thread
/// stores `fired` (`Release`) right after it cancels, and the child loads
/// it (`Acquire`), so once a child has seen `fired` the cancellation is
/// visible and the budget must trip within [`CHECK_INTERVAL`] ticks.
/// Before that, how long the child spins depends only on when the OS
/// runs the main thread, so only the wall-clock hang guard applies.
fn tick_until_cancelled(b: &Budget, fired: &AtomicBool) -> Exhaustion {
    let started = Instant::now();
    let mut after_fired = 0u64;
    loop {
        let seen = fired.load(Ordering::Acquire);
        if let Err(e) = b.tick() {
            return e;
        }
        after_fired += u64::from(seen);
        assert!(after_fired <= CHECK_INTERVAL, "cancellation ignored");
        assert!(seen || started.elapsed() < HANG_GUARD, "never cancelled");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancelling any subset of per-request tokens stops exactly those
    /// children: siblings run their full workload untouched and the
    /// parent pool stays healthy.
    #[test]
    fn child_cancellation_never_leaks_into_siblings(cancel_mask in 1u8..=254) {
        let parent = Budget::unlimited();
        let tokens: Vec<CancelToken> = (0..THREADS).map(|_| CancelToken::new()).collect();
        let children: Vec<Budget> = tokens
            .iter()
            .map(|t| parent.fork_isolated().cancelled_by(t))
            .collect();

        let barrier = Barrier::new(THREADS + 1);
        let fired = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (k, child) in children.iter().enumerate() {
                let (barrier, fired) = (&barrier, &fired);
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    if cancel_mask & (1 << k) != 0 {
                        // Doomed child: spin until the token lands.
                        tick_until_cancelled(child, fired) == Exhaustion::Cancelled
                    } else {
                        // Survivor: a fixed workload must complete clean.
                        (0..10_000).all(|_| child.tick().is_ok()) && child.check().is_ok()
                    }
                }));
            }
            barrier.wait();
            // Fire the masked tokens while all 8 children are ticking.
            for (k, t) in tokens.iter().enumerate() {
                if cancel_mask & (1 << k) != 0 {
                    t.cancel();
                }
            }
            fired.store(true, Ordering::Release);
            for h in handles {
                prop_assert!(h.join().expect("child thread panicked"));
            }
        });

        // The parent pool heard nothing and spent nothing.
        prop_assert_eq!(parent.check(), Ok(()));
        prop_assert_eq!(parent.ticks_used(), 0);
        // Sticky and exact: a token is fired iff it was masked.
        for (k, t) in tokens.iter().enumerate() {
            prop_assert_eq!(t.is_cancelled(), cancel_mask & (1 << k) != 0);
        }
    }

    /// Firing the parent's token stops every isolated child that still
    /// shares it, no matter when each child started working.
    #[test]
    fn parent_cancellation_reaches_all_isolated_children(head_start in 0u64..2_000) {
        let parent = Budget::unlimited();
        let children: Vec<Budget> = (0..THREADS).map(|_| parent.fork_isolated()).collect();

        let barrier = Barrier::new(THREADS + 1);
        let fired = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for child in &children {
                let (barrier, fired) = (&barrier, &fired);
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    tick_until_cancelled(child, fired)
                }));
            }
            barrier.wait();
            // Let the children race ahead a varying amount, then pull
            // the plug on the whole tree.
            for _ in 0..head_start {
                std::hint::spin_loop();
            }
            parent.cancel_token().cancel();
            fired.store(true, Ordering::Release);
            for h in handles {
                let why = h.join().expect("child thread panicked");
                prop_assert_eq!(why, Exhaustion::Cancelled);
            }
        });
    }
}

/// The parent's deadline is copied into isolated children even after a
/// `cancelled_by` rebind, so deadline exhaustion propagates to every
/// child — including ones that no longer share the parent's token.
#[test]
fn parent_deadline_propagates_to_rebound_children() {
    let parent = Budget::with_deadline(Duration::ZERO);
    let tokens: Vec<CancelToken> = (0..THREADS).map(|_| CancelToken::new()).collect();
    std::thread::scope(|scope| {
        for t in &tokens {
            let child = parent.fork_isolated().cancelled_by(t);
            scope.spawn(move || {
                assert_eq!(child.check(), Err(Exhaustion::Deadline));
                // The rebind cut the cancel link, not the deadline link:
                // the clock read on the first tick already trips.
                let trip = (0..=CHECK_INTERVAL).find_map(|_| child.tick().err());
                assert_eq!(trip, Some(Exhaustion::Deadline));
            });
        }
    });
    // No child token fired; the trip came from the deadline alone.
    assert!(tokens.iter().all(|t| !t.is_cancelled()));
}

/// Isolated children ticking concurrently never drain the parent pool:
/// its cap stays fully available for admission decisions.
#[test]
fn isolated_children_never_drain_the_admission_pool() {
    let pool = Budget::with_tick_limit(8);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let child = pool.fork_isolated();
            scope.spawn(move || {
                for _ in 0..50_000 {
                    child.tick().expect("isolated child is uncapped");
                }
            });
        }
    });
    assert_eq!(pool.remaining_ticks(), Some(8));
    assert!(pool.try_slice(8).is_ok());
}
