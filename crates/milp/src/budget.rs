//! Shared solve budgets and cooperative cancellation.
//!
//! A [`Budget`] bounds how much work a solve is allowed to do along three
//! independent axes:
//!
//! * a **wall-clock deadline** ([`Budget::deadline_in`]),
//! * a **deterministic tick cap** ([`Budget::limit_ticks`]) — every inner
//!   loop of the solvers (simplex pivots, branch-and-bound nodes, IMS
//!   placements) counts as one tick, so tests can exhaust a budget
//!   reproducibly without depending on machine speed,
//! * a **cancel token** ([`Budget::cancel_token`]) — an `AtomicBool`
//!   handle that any thread may fire to stop the solve cooperatively.
//!
//! Budgets are cheap to clone and clones share state: the tick counter
//! and the cancel flag live behind `Arc`s, so work done through any clone
//! counts against the same pool. [`Budget::restrict`] derives a *child*
//! budget with a tighter deadline and/or tick allowance that still shares
//! the parent's counter and cancel flag — the scheduling driver uses this
//! to give each candidate period a slice of the global budget.
//!
//! The hot-path check is [`Budget::tick`]: it increments the shared
//! counter, compares it against the cap, consults the cancel flag (one
//! relaxed atomic load — a cancelled solve stops within a pivot, not a
//! [`CHECK_INTERVAL`]), and reads the clock only every
//! [`CHECK_INTERVAL`] ticks, so budgeted inner loops stay branch-cheap.
//! [`Budget::check`] performs the full check immediately without
//! consuming a tick; loop boundaries (new B&B node, new candidate
//! period) use it so deadline death is honoured within one check
//! interval.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in ticks) [`Budget::tick`] consults the clock. The tick
/// cap and the cancel flag are enforced exactly, on every tick.
pub const CHECK_INTERVAL: u64 = 64;

/// Why a budget stopped a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Deadline,
    /// The deterministic tick cap was consumed.
    Ticks,
    /// The [`CancelToken`] was fired.
    Cancelled,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Exhaustion::Deadline => "deadline expired",
            Exhaustion::Ticks => "tick budget consumed",
            Exhaustion::Cancelled => "cancelled",
        })
    }
}

impl std::error::Error for Exhaustion {}

/// Handle for cancelling a solve from another thread (or a signal
/// handler, a timeout watchdog, …). Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Every budget sharing it reports
    /// [`Exhaustion::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A solve budget: deadline + tick cap + cancellation, shared by clones.
///
/// ```
/// use swp_milp::budget::{Budget, Exhaustion};
///
/// let b = Budget::unlimited().limit_ticks(2);
/// assert_eq!(b.tick(), Ok(()));
/// assert_eq!(b.tick(), Ok(()));
/// assert_eq!(b.tick(), Err(Exhaustion::Ticks));
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    tick_limit: u64,
    ticks: Arc<AtomicU64>,
    cancelled: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline, no tick cap, and a fresh cancel flag.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            tick_limit: u64::MAX,
            ticks: Arc::new(AtomicU64::new(0)),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// An unlimited budget except for a wall-clock deadline `d` from now.
    pub fn with_deadline(d: Duration) -> Self {
        Budget::unlimited().deadline_in(d)
    }

    /// An unlimited budget except for a cap of `n` ticks.
    pub fn with_tick_limit(n: u64) -> Self {
        Budget::unlimited().limit_ticks(n)
    }

    /// Tightens the deadline to at most `d` from now.
    pub fn deadline_in(mut self, d: Duration) -> Self {
        let new = Instant::now().checked_add(d);
        self.deadline = match (self.deadline, new) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// Tightens the tick cap so at most `n` *further* ticks may be spent.
    pub fn limit_ticks(mut self, n: u64) -> Self {
        let used = self.ticks.load(Ordering::Relaxed);
        self.tick_limit = self.tick_limit.min(used.saturating_add(n));
        self
    }

    /// Derives a child budget sharing this budget's tick counter and
    /// cancel flag, optionally tightened by a relative deadline and/or an
    /// additional-tick allowance. The child can never outlive the parent:
    /// its deadline and cap are the minimum of both.
    pub fn restrict(&self, deadline: Option<Duration>, extra_ticks: Option<u64>) -> Budget {
        let mut child = self.clone();
        if let Some(d) = deadline {
            child = child.deadline_in(d);
        }
        if let Some(n) = extra_ticks {
            child = child.limit_ticks(n);
        }
        child
    }

    /// Ticks still spendable before the cap trips, or `None` when the
    /// budget has no tick cap. Clones share the counter, so the value is
    /// a snapshot that concurrent work may have reduced by the time the
    /// caller acts on it.
    pub fn remaining_ticks(&self) -> Option<u64> {
        if self.tick_limit == u64::MAX {
            return None;
        }
        Some(
            self.tick_limit
                .saturating_sub(self.ticks.load(Ordering::Relaxed)),
        )
    }

    /// Wall-clock left before the deadline, or `None` when the budget has
    /// no deadline. `Some(Duration::ZERO)` means the deadline has passed.
    pub fn time_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Slices this budget into one of `n` equal worker shares: a child
    /// sharing the deadline, the tick counter, and the cancel flag, but
    /// allowed at most `remaining / n` further ticks. With no tick cap
    /// the child is a plain clone. `n` is clamped to at least 1.
    ///
    /// Because the counter is shared, the shares jointly never exceed the
    /// parent's pool; a fast worker's unused allowance is *not* donated
    /// to slow ones (use [`restrict`](Budget::restrict) for custom
    /// splits).
    ///
    /// A nearly exhausted parent yields a *zero-tick* share whose first
    /// [`tick`](Budget::tick) trips immediately. Admission-control
    /// callers that must refuse such dead work up front should use
    /// [`try_slice`](Budget::try_slice) instead.
    pub fn slice(&self, n: u64) -> Budget {
        match self.share_ticks(n) {
            Some(share) => self.restrict(None, Some(share)),
            None => self.clone(),
        }
    }

    /// Like [`slice`](Budget::slice), but refuses work that can make no
    /// progress: the admission-control form. Returns the exhaustion
    /// instead of a budget when the parent is already cancelled, past
    /// its deadline, or so close to its tick cap that an equal share
    /// rounds down to zero ticks (`remaining / n == 0`, saturating —
    /// a parent drained *below* its cap by concurrent work never
    /// underflows into a huge allowance).
    ///
    /// # Errors
    ///
    /// The [`Exhaustion`] that makes the slice pointless:
    /// [`Exhaustion::Ticks`] for an empty share, or whatever
    /// [`check`](Budget::check) reports for the parent.
    pub fn try_slice(&self, n: u64) -> Result<Budget, Exhaustion> {
        self.check()?;
        match self.share_ticks(n) {
            Some(0) => Err(Exhaustion::Ticks),
            Some(share) => Ok(self.restrict(None, Some(share))),
            None => Ok(self.clone()),
        }
    }

    /// `remaining / n` (saturating via [`remaining_ticks`]), or `None`
    /// when this budget has no tick cap.
    ///
    /// [`remaining_ticks`]: Budget::remaining_ticks
    fn share_ticks(&self, n: u64) -> Option<u64> {
        self.remaining_ticks().map(|rem| rem / n.max(1))
    }

    /// Derives an *isolated* child: a fresh tick counter with no cap,
    /// the parent's deadline, and the parent's cancel flag. Work done by
    /// the child does **not** drain the parent's tick pool, so per-task
    /// tick accounting stays exact and deterministic even when siblings
    /// run concurrently; firing the parent's [`CancelToken`] still stops
    /// every isolated child.
    pub fn fork_isolated(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            tick_limit: u64::MAX,
            ticks: Arc::new(AtomicU64::new(0)),
            cancelled: Arc::clone(&self.cancelled),
        }
    }

    /// Derives one arm of an engine race: an isolated child like
    /// [`fork_isolated`](Budget::fork_isolated) — fresh tick counter,
    /// the parent's deadline — but capped at the parent's *remaining*
    /// ticks (each contestant gets the full remaining allowance on its
    /// own counter, so per-engine tick accounting is deterministic) and
    /// bound to a **fresh** cancel flag, returned as a token.
    ///
    /// The fresh flag is what lets a racing caller cancel one losing
    /// contestant without cancelling its sibling or the parent. The
    /// parent's own cancellation does *not* reach the child through the
    /// flag — the racing caller is responsible for forwarding it. Ticks
    /// spent on the child are not charged to the parent, so the
    /// scheduling driver does not race engines on it: its portfolio
    /// stages them on slices of one budget instead.
    pub fn fork_racer(&self) -> (Budget, CancelToken) {
        let mut child = self.fork_isolated();
        child.cancelled = Arc::new(AtomicBool::new(false));
        if let Some(rem) = self.remaining_ticks() {
            child = child.limit_ticks(rem);
        }
        let token = child.cancel_token();
        (child, token)
    }

    /// A handle that cancels every budget sharing this one's flag.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.cancelled),
        }
    }

    /// Rebinds this budget's cancel flag to `token`'s, so a token created
    /// *before* the budget (e.g. held by a harness across several runs,
    /// or registered with a signal handler) controls it.
    pub fn cancelled_by(mut self, token: &CancelToken) -> Budget {
        self.cancelled = Arc::clone(&token.flag);
        self
    }

    /// Ticks spent so far across all clones.
    pub fn ticks_used(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Whether no axis of this budget can ever trip (ignoring the cancel
    /// flag, which is always live).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.tick_limit == u64::MAX
    }

    /// Spends one tick.
    ///
    /// The tick cap and the cancel flag are enforced exactly on every
    /// tick (the flag is a relaxed load, and prompt cancellation
    /// depends on it); the clock is consulted every [`CHECK_INTERVAL`]
    /// ticks (call [`check`] at loop boundaries for an immediate full
    /// check).
    ///
    /// [`check`]: Budget::check
    ///
    /// # Errors
    ///
    /// The [`Exhaustion`] that tripped, if any.
    #[inline]
    pub fn tick(&self) -> Result<(), Exhaustion> {
        let t = self.ticks.fetch_add(1, Ordering::Relaxed);
        if t >= self.tick_limit {
            return Err(Exhaustion::Ticks);
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(Exhaustion::Cancelled);
        }
        if t % CHECK_INTERVAL == 0 {
            return self.check();
        }
        Ok(())
    }

    /// Checks the cancel flag and the deadline immediately, without
    /// consuming a tick.
    ///
    /// # Errors
    ///
    /// The [`Exhaustion`] that tripped, if any.
    pub fn check(&self) -> Result<(), Exhaustion> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(Exhaustion::Cancelled);
        }
        if self.ticks.load(Ordering::Relaxed) >= self.tick_limit {
            return Err(Exhaustion::Ticks);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Exhaustion::Deadline);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert_eq!(b.tick(), Ok(()));
        }
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn tick_cap_is_exact() {
        let b = Budget::with_tick_limit(5);
        for _ in 0..5 {
            assert_eq!(b.tick(), Ok(()));
        }
        assert_eq!(b.tick(), Err(Exhaustion::Ticks));
        assert_eq!(b.check(), Err(Exhaustion::Ticks));
    }

    #[test]
    fn clones_share_the_tick_pool() {
        let a = Budget::with_tick_limit(3);
        let b = a.clone();
        assert_eq!(a.tick(), Ok(()));
        assert_eq!(b.tick(), Ok(()));
        assert_eq!(a.tick(), Ok(()));
        assert_eq!(b.tick(), Err(Exhaustion::Ticks));
    }

    #[test]
    fn expired_deadline_trips_check() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(Exhaustion::Deadline));
    }

    #[test]
    fn cancellation_beats_other_axes() {
        let b = Budget::with_deadline(Duration::ZERO);
        b.cancel_token().cancel();
        assert_eq!(b.check(), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn cancel_token_reaches_all_clones() {
        let a = Budget::unlimited();
        let b = a.restrict(Some(Duration::from_secs(3600)), Some(1_000));
        a.cancel_token().cancel();
        assert_eq!(b.check(), Err(Exhaustion::Cancelled));
        assert!(a.cancel_token().is_cancelled());
    }

    #[test]
    fn restrict_takes_the_tighter_cap() {
        let parent = Budget::with_tick_limit(10);
        let child = parent.restrict(None, Some(100));
        assert_eq!(child.tick_limit, 10);
        let child2 = parent.restrict(None, Some(4));
        for _ in 0..4 {
            assert_eq!(child2.tick(), Ok(()));
        }
        assert_eq!(child2.tick(), Err(Exhaustion::Ticks));
        // The parent saw those ticks too.
        assert!(parent.ticks_used() >= 4);
    }

    #[test]
    fn remaining_ticks_tracks_the_shared_counter() {
        let b = Budget::unlimited();
        assert_eq!(b.remaining_ticks(), None);
        let capped = Budget::with_tick_limit(10);
        assert_eq!(capped.remaining_ticks(), Some(10));
        for _ in 0..4 {
            capped.tick().unwrap();
        }
        assert_eq!(capped.remaining_ticks(), Some(6));
    }

    #[test]
    fn time_remaining_reports_deadline_state() {
        assert_eq!(Budget::unlimited().time_remaining(), None);
        let expired = Budget::with_deadline(Duration::ZERO);
        assert_eq!(expired.time_remaining(), Some(Duration::ZERO));
        let live = Budget::with_deadline(Duration::from_secs(3600));
        assert!(live.time_remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn slice_divides_the_remaining_pool() {
        let pool = Budget::with_tick_limit(100);
        let share = pool.slice(4);
        // The share may spend 25 ticks; they drain the shared pool.
        for _ in 0..25 {
            assert_eq!(share.tick(), Ok(()));
        }
        assert_eq!(share.tick(), Err(Exhaustion::Ticks));
        assert_eq!(pool.remaining_ticks(), Some(100 - 26));
        // An uncapped pool slices to uncapped shares.
        assert_eq!(Budget::unlimited().slice(4).remaining_ticks(), None);
        // n = 0 is treated as 1, not a division by zero.
        let whole = Budget::with_tick_limit(7).slice(0);
        assert_eq!(whole.remaining_ticks(), Some(7));
    }

    #[test]
    fn try_slice_admits_only_budgets_that_can_work() {
        // A healthy pool slices normally.
        let pool = Budget::with_tick_limit(100);
        let share = pool.try_slice(4).expect("healthy pool admits");
        assert_eq!(share.remaining_ticks(), Some(25));
        // An uncapped pool admits an uncapped share.
        assert!(Budget::unlimited().try_slice(4).is_ok());

        // Nearly exhausted: 3 remaining ticks across 4 workers rounds
        // down to a zero-tick share, which must be refused outright.
        let nearly = Budget::with_tick_limit(3);
        assert_eq!(nearly.try_slice(4).map(|_| ()), Err(Exhaustion::Ticks));
        // ... but a 1-way slice of the same pool still admits.
        assert!(nearly.try_slice(1).is_ok());

        // Fully exhausted: refused with Ticks even before division.
        let spent = Budget::with_tick_limit(2);
        spent.tick().unwrap();
        spent.tick().unwrap();
        assert_eq!(spent.try_slice(1).map(|_| ()), Err(Exhaustion::Ticks));

        // Cancellation and deadline expiry dominate the tick check.
        let cancelled = Budget::with_tick_limit(100);
        cancelled.cancel_token().cancel();
        assert_eq!(
            cancelled.try_slice(2).map(|_| ()),
            Err(Exhaustion::Cancelled)
        );
        let late = Budget::with_deadline(Duration::ZERO);
        assert_eq!(late.try_slice(2).map(|_| ()), Err(Exhaustion::Deadline));
    }

    #[test]
    fn zero_tick_slice_from_slice_still_trips_immediately() {
        // `slice` keeps its infallible contract: the dead share is
        // created, but its very first tick (and check) trips.
        let pool = Budget::with_tick_limit(3);
        let dead = pool.slice(4);
        assert_eq!(dead.remaining_ticks(), Some(0));
        assert_eq!(dead.tick(), Err(Exhaustion::Ticks));
        assert_eq!(dead.check(), Err(Exhaustion::Ticks));
    }

    #[test]
    fn fork_isolated_has_its_own_counter_but_shared_cancel() {
        let parent = Budget::with_tick_limit(5);
        let child = parent.fork_isolated();
        for _ in 0..100 {
            assert_eq!(child.tick(), Ok(()));
        }
        // The parent's pool is untouched by the child's work.
        assert_eq!(parent.remaining_ticks(), Some(5));
        assert_eq!(child.ticks_used(), 100);
        // Cancellation still reaches the isolated child.
        parent.cancel_token().cancel();
        assert_eq!(child.check(), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn fork_racer_isolates_ticks_and_cancellation() {
        let parent = Budget::with_tick_limit(10);
        parent.tick().unwrap(); // 9 remaining
        let (a, a_token) = parent.fork_racer();
        let (b, _b_token) = parent.fork_racer();
        // Each racer gets the full remaining allowance on its own
        // counter; the parent pool is untouched by racer work.
        assert_eq!(a.remaining_ticks(), Some(9));
        assert_eq!(b.remaining_ticks(), Some(9));
        for _ in 0..9 {
            assert_eq!(a.tick(), Ok(()));
        }
        assert_eq!(a.tick(), Err(Exhaustion::Ticks));
        assert_eq!(parent.remaining_ticks(), Some(9));
        // Cancelling one racer reaches neither its sibling nor the
        // parent; cancelling the parent does NOT auto-reach racers
        // (the race driver forwards it).
        a_token.cancel();
        assert_eq!(b.check(), Ok(()));
        assert_eq!(parent.check(), Ok(()));
        parent.cancel_token().cancel();
        assert_eq!(b.check(), Ok(()));
        // An uncapped parent yields uncapped racers.
        let (c, _) = Budget::unlimited().fork_racer();
        assert_eq!(c.remaining_ticks(), None);
    }

    #[test]
    fn cancelled_by_rebinds_to_a_pre_existing_token() {
        let token = CancelToken::new();
        let b = Budget::unlimited().cancelled_by(&token);
        assert_eq!(b.check(), Ok(()));
        token.cancel();
        assert_eq!(b.check(), Err(Exhaustion::Cancelled));
        // Children forked after the rebind still share the token's flag.
        assert_eq!(b.fork_isolated().check(), Err(Exhaustion::Cancelled));
    }

    #[test]
    fn cancellation_noticed_within_one_check_interval() {
        let b = Budget::unlimited();
        b.tick().unwrap(); // desynchronize from the interval boundary
        b.cancel_token().cancel();
        let mut spent = 0u64;
        loop {
            match b.tick() {
                Ok(()) => spent += 1,
                Err(e) => {
                    assert_eq!(e, Exhaustion::Cancelled);
                    break;
                }
            }
            assert!(spent <= CHECK_INTERVAL, "cancellation ignored too long");
        }
    }
}
