//! A small hand-rolled work-stealing thread pool for corpus sharding.
//!
//! The corpus is a fixed list of independent jobs known up front, so the
//! pool is deliberately simple: every worker owns a deque seeded with a
//! stripe of the job indices, pops its own work LIFO, and steals FIFO
//! from a sibling when it runs dry. Because jobs never re-enter a deque,
//! a worker that finds every deque empty can simply exit — no condition
//! variables, no spinning.
//!
//! Striped seeding (`worker w` gets jobs `w, w+W, w+2W, …`) spreads the
//! corpus's hard-loop tail across workers instead of handing one worker
//! a contiguous block of expensive loops; stealing FIFO takes the
//! *oldest* job of the victim's stripe, which is the one the victim
//! would reach last.
//!
//! Results are written into per-index slots, so the output order is the
//! job-index order **regardless of completion order** — this is what
//! makes a parallel corpus run's record sequence identical to the
//! sequential one.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f` over the job indices `0..n` on `workers` threads and
/// returns the results in index order.
///
/// `f` is called once per job index. A job may return `None` (e.g. when
/// a cancel token fired and the job drained without running); its slot
/// stays `None`.
///
/// `workers` is clamped to `1..=n` (and to 1 when `n` is 0).
pub fn run_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    // Fast path: one worker needs no machinery at all (and keeps the
    // sequential reference semantics trivially exact).
    if workers == 1 {
        return (0..n).map(&f).collect();
    }

    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || {
                while let Some(idx) = take_job(deques, w) {
                    let result = f(idx);
                    *lock_clean(&slots[idx]) = result;
                }
            });
        }
    });

    slots.into_iter().map(into_inner_clean).collect()
}

/// Pops the next job for worker `w`: own deque from the back (LIFO),
/// then each sibling's from the front (FIFO steal). `None` means the
/// whole pool is drained.
fn take_job(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(job) = lock_clean(&deques[w]).pop_back() {
        return Some(job);
    }
    let workers = deques.len();
    for k in 1..workers {
        let victim = (w + k) % workers;
        if let Some(job) = lock_clean(&deques[victim]).pop_front() {
            return Some(job);
        }
    }
    None
}

/// Locks a mutex, tolerating poisoning: a panicked sibling worker must
/// not cascade into losing every other worker's results.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn into_inner_clean<T>(m: Mutex<T>) -> T {
    match m.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_all_results_in_index_order() {
        for workers in [1, 2, 4, 9, 64] {
            let out = run_indexed(33, workers, |i| Some(i * i));
            assert_eq!(out.len(), 33);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, Some(i * i), "workers={workers}");
            }
        }
    }

    #[test]
    fn zero_jobs_and_zero_workers_are_fine() {
        assert!(run_indexed(0, 4, Some).is_empty());
        let out = run_indexed(3, 0, Some);
        assert_eq!(out, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(100, 8, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            Some(())
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn stealing_rebalances_a_skewed_stripe() {
        // Worker 0's stripe (0, 2, 4, …) is made artificially slow; the
        // other worker must finish its own stripe and steal. We can't
        // assert *who* ran what (that's scheduling), only that everything
        // completes and the slow stripe doesn't deadlock the pool.
        let out = run_indexed(16, 2, |i| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Some(i)
        });
        assert_eq!(out.iter().flatten().count(), 16);
    }

    #[test]
    fn none_results_leave_holes() {
        let out = run_indexed(10, 3, |i| if i % 3 == 0 { None } else { Some(i) });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, if i % 3 == 0 { None } else { Some(i) });
        }
    }

    #[test]
    fn a_panicking_job_does_not_lose_other_results() {
        // The scope propagates the panic after all threads join; catch it
        // and make sure the machinery stayed sound up to that point.
        let r = std::panic::catch_unwind(|| {
            run_indexed(8, 2, |i| {
                if i == 3 {
                    panic!("injected");
                }
                Some(i)
            })
        });
        assert!(r.is_err(), "panic must propagate out of the pool");
    }
}
