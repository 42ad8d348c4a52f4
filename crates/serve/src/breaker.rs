//! Per-replica circuit breaker driven by the spike-rate watchdog.
//!
//! Bit-level weight corruption rarely crashes an SNN — it silently skews
//! spike activity (see `ull-robust::watchdog`). The breaker turns that
//! health signal into an availability decision:
//!
//! ```text
//!              K consecutive excursions
//!   ┌────────┐ ──────────────────────────► ┌──────┐
//!   │ Closed │                             │ Open │◄─────────┐
//!   └────────┘ ◄──────────┐                └──────┘          │
//!        ▲                │             backoff elapses      │
//!        │                │                   │              │
//!        │           probe healthy            ▼         probe unhealthy
//!        │                │              ┌──────────┐   (backoff doubles,
//!        └────────────────┴───────────── │ HalfOpen │ ──jittered, capped)
//!                                        └──────────┘
//! ```
//!
//! While `Open`, [`CircuitBreaker::allow`] returns `false` and the
//! engine serves from a fallback replica. Once the quarantine elapses
//! the breaker *half-opens*: exactly one probe batch is admitted; its
//! watchdog verdict decides between closing and re-opening with a
//! doubled (jittered, capped) quarantine.
//!
//! The clock is injected as plain milliseconds so every transition is
//! unit-testable without sleeping, and the quarantine is the retry
//! dialer's jittered backoff ([`crate::retry`]), so two runs with the same
//! seed quarantine for identical durations.

use serde::{Deserialize, Serialize};

use crate::retry::jittered_backoff_ms;

/// Consecutive watchdog excursions before a replica's breaker trips (the
/// K of the soak gate).
pub const BREAKER_THRESHOLD: usize = 3;

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    Closed,
    /// Quarantined: no traffic until the backoff elapses.
    Open,
    /// A single probe batch is in flight.
    HalfOpen,
}

/// Consecutive-excursion circuit breaker with jittered exponential
/// backoff.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: usize,
    base_ms: u64,
    max_ms: u64,
    seed: u64,
    state: BreakerState,
    /// Excursions since the last healthy batch (Closed state only).
    consecutive: usize,
    /// How many times in a row the breaker has (re-)opened without an
    /// intervening healthy probe; drives the exponential backoff.
    open_streak: u32,
    /// Clock time at which an Open breaker may half-open.
    reopen_at_ms: u64,
    /// Lifetime trip count (first opens and re-opens).
    trips: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    ///
    /// `threshold` is the number of *consecutive* watchdog excursions
    /// that trips it; `base_ms`/`max_ms` bound the exponential
    /// quarantine; `seed` fixes the jitter sequence.
    pub fn new(threshold: usize, base_ms: u64, max_ms: u64, seed: u64) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            base_ms: base_ms.max(1),
            max_ms: max_ms.max(base_ms.max(1)),
            seed,
            state: BreakerState::Closed,
            consecutive: 0,
            open_streak: 0,
            reopen_at_ms: 0,
            trips: 0,
        }
    }

    /// Current state, with `Open → HalfOpen` promotion applied lazily
    /// (the breaker has no timer thread; time only advances when asked).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime trip count.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether a batch may be routed to this replica at time `now_ms`.
    ///
    /// An `Open` breaker whose quarantine has elapsed transitions to
    /// `HalfOpen` and admits exactly one probe; further calls return
    /// `false` until [`record`](Self::record) resolves the probe.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if now_ms >= self.reopen_at_ms {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports the watchdog verdict of a batch served by this replica.
    /// Returns whether this verdict tripped the breaker, so the caller
    /// that caused a trip — and only that caller — can react to it.
    pub fn record(&mut self, healthy: bool, now_ms: u64) -> bool {
        match (self.state, healthy) {
            (BreakerState::Closed, true) => self.consecutive = 0,
            (BreakerState::Closed, false) => {
                self.consecutive += 1;
                if self.consecutive >= self.threshold {
                    self.trip(now_ms);
                    return true;
                }
            }
            (BreakerState::HalfOpen, true) => {
                self.state = BreakerState::Closed;
                self.consecutive = 0;
                self.open_streak = 0;
            }
            (BreakerState::HalfOpen, false) => {
                self.trip(now_ms);
                return true;
            }
            // A verdict for an Open replica can only come from a
            // last-resort batch (every breaker open); it carries no new
            // routing information, so the quarantine clock is left alone.
            (BreakerState::Open, _) => {}
        }
        false
    }

    fn trip(&mut self, now_ms: u64) {
        self.open_streak += 1;
        self.trips += 1;
        self.consecutive = 0;
        self.state = BreakerState::Open;
        self.reopen_at_ms = now_ms + self.quarantine_ms(self.open_streak);
        ull_obs::counter_add("serve.breaker_trips", 1);
    }

    /// Returns the breaker to a pristine `Closed` state, clearing the
    /// excursion streak, the backoff streak and the quarantine clock
    /// (lifetime trips are kept — they are a counter, not state).
    ///
    /// Used when the replica behind the breaker is *replaced* (model
    /// promotion): the new model must not inherit the old model's
    /// excursion history.
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive = 0;
        self.open_streak = 0;
        self.reopen_at_ms = 0;
    }

    /// Jittered exponential quarantine for the given re-open streak.
    fn quarantine_ms(&self, streak: u32) -> u64 {
        jittered_backoff_ms(self.base_ms, self.max_ms, self.seed, streak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(3, 100, 10_000, 42)
    }

    #[test]
    fn trips_only_after_k_consecutive_excursions() {
        let mut b = breaker();
        assert!(!b.record(false, 0));
        assert!(!b.record(false, 1));
        assert_eq!(b.state(), BreakerState::Closed);
        // A healthy batch resets the streak.
        assert!(!b.record(true, 2));
        b.record(false, 3);
        b.record(false, 4);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record(false, 5), "the k-th excursion reports the trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn record_reports_exactly_the_verdicts_that_trip() {
        let mut b = CircuitBreaker::new(1, 100, 10_000, 3);
        assert!(b.record(false, 0));
        // Late verdicts for an Open replica change nothing.
        assert!(!b.record(false, 1));
        assert!(b.allow(10_000));
        assert!(b.record(false, 10_000), "a failed probe re-trips");
        assert!(b.allow(30_000));
        assert!(!b.record(true, 30_000), "a healthy probe closes");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn open_blocks_until_backoff_elapses_then_admits_one_probe() {
        let mut b = breaker();
        for t in 0..3 {
            b.record(false, t);
        }
        assert!(!b.allow(0));
        assert!(!b.allow(49), "jittered quarantine is at least base/2");
        // Far past the maximum possible quarantine (base · jitter ≤ 100).
        assert!(b.allow(10_000), "probe admitted after quarantine");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(10_001), "only one probe at a time");
    }

    #[test]
    fn healthy_probe_closes_and_resets_backoff() {
        let mut b = breaker();
        for t in 0..3 {
            b.record(false, t);
        }
        assert!(b.allow(10_000));
        b.record(true, 10_001);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(10_002));
        // The streak reset: a fresh trip quarantines on the base again.
        for t in 0..3 {
            b.record(false, 10_010 + t);
        }
        assert!(
            b.allow(10_010 + 2 + 100),
            "post-reset quarantine is base-scale"
        );
    }

    #[test]
    fn failed_probe_reopens_with_longer_bounded_quarantine() {
        let mut b = CircuitBreaker::new(1, 100, 350, 7);
        b.record(false, 0); // trip 1: quarantine in [50, 100]
        assert!(b.allow(100));
        b.record(false, 101); // trip 2: quarantine in [100, 200]
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(101 + 99));
        assert!(b.allow(101 + 200));
        b.record(false, 302); // trip 3: exp would be 400, capped at 350
        assert!(!b.allow(302 + 174));
        assert!(b.allow(302 + 350));
        assert_eq!(b.trips(), 3);
    }

    #[test]
    fn half_open_boundary_is_exact_and_admits_exactly_one_probe() {
        // Injected clock: every boundary below is asserted to the exact
        // millisecond, no sleeps anywhere.
        let mut b = CircuitBreaker::new(1, 100, 100_000, 42);
        let q1 = b.quarantine_ms(1);
        b.record(false, 1_000); // trip at t=1000
        assert!(!b.allow(1_000 + q1 - 1), "one ms early: still Open");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(
            b.allow(1_000 + q1),
            "exactly at the boundary: probe admitted"
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // While the probe is in flight, everyone else is turned away —
        // no matter how often or how late they ask.
        for dt in [0, 1, 10, 10_000] {
            assert!(!b.allow(1_000 + q1 + dt), "second probe at +{dt} must wait");
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_doubles_the_quarantine_exactly() {
        let mut b = CircuitBreaker::new(1, 100, 1 << 40, 7);
        let (q1, q2, q3) = (b.quarantine_ms(1), b.quarantine_ms(2), b.quarantine_ms(3));
        // Jitter aside, consecutive streaks double the un-jittered
        // exponent, so q_{n+1} lands in [q_n, 4·q_n]; check the exact
        // reopen boundaries instead of sleeping through them.
        b.record(false, 0); // trip 1
        assert!(b.allow(q1));
        b.record(false, q1); // failed probe → trip 2
        assert!(!b.allow(q1 + q2 - 1));
        assert!(b.allow(q1 + q2));
        b.record(false, q1 + q2); // failed probe → trip 3
        assert!(!b.allow(q1 + q2 + q3 - 1));
        assert!(b.allow(q1 + q2 + q3));
        assert_eq!(b.trips(), 3);
        // The un-jittered exponent doubles: 100, 200, 400 scaled by
        // per-streak jitter in [0.5, 1.0).
        assert!((100..=200).contains(&q2), "q2={q2}");
        assert!((200..=400).contains(&q3), "q3={q3}");
    }

    #[test]
    fn reset_clears_state_and_backoff_but_keeps_trip_count() {
        let mut b = CircuitBreaker::new(1, 100, 1 << 40, 5);
        b.record(false, 0);
        assert!(b.allow(100));
        b.record(false, 101); // failed probe: open_streak now 2
        assert_eq!(b.state(), BreakerState::Open);
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(102), "reset breaker admits immediately");
        assert_eq!(b.trips(), 2, "lifetime trips survive reset");
        // The backoff streak restarted: the next trip quarantines on the
        // base scale, not the doubled one.
        b.record(false, 200);
        assert!(b.allow(200 + b.quarantine_ms(1)));
    }

    #[test]
    fn quarantine_is_deterministic_per_seed_and_jittered_across_streaks() {
        let a = CircuitBreaker::new(1, 1_000, 1 << 40, 9);
        let b = CircuitBreaker::new(1, 1_000, 1 << 40, 9);
        let c = CircuitBreaker::new(1, 1_000, 1 << 40, 10);
        let qa: Vec<u64> = (1..=4).map(|s| a.quarantine_ms(s)).collect();
        let qb: Vec<u64> = (1..=4).map(|s| b.quarantine_ms(s)).collect();
        let qc: Vec<u64> = (1..=4).map(|s| c.quarantine_ms(s)).collect();
        assert_eq!(qa, qb, "same seed, same quarantines");
        assert_ne!(qa, qc, "different seed, different jitter");
        for (i, &q) in qa.iter().enumerate() {
            let exp = 1_000u64 << i;
            assert!(
                q >= exp / 2 && q <= exp,
                "streak {}: {q} outside [{}, {exp}]",
                i + 1,
                exp / 2
            );
        }
    }
}
