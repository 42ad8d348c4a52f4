//! Bounded retry with deterministic jittered backoff.
//!
//! The serving layer has two startup races worth retrying instead of
//! failing hard:
//!
//! * a TCP client connecting the instant after [`Server::listen`]
//!   returns can still lose the race against the accept thread's first
//!   `accept()` (`ECONNREFUSED`/`ECONNRESET` on loaded machines);
//! * CI smoke harnesses dialing a freshly-spawned server process.
//!
//! [`RetryPolicy`] shares one backoff function with the circuit breaker
//! (`breaker.rs`): exponential delay `base · 2^(attempt-1)` capped at
//! `max`, scaled by a [`mix64`]-derived jitter in `[0.5, 1.0)`
//! — so two runs with the same seed retry on identical schedules, and
//! tests can assert the exact delay sequence without sleeping (the sleep
//! is injected).
//!
//! [`Server::listen`]: crate::Server::listen

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ull_tensor::init::mix64;

/// Delay number `n` (1-based) of a jittered exponential backoff, in
/// milliseconds: `base · 2^(n-1)` capped at `max`, scaled by a
/// [`mix64`]-derived factor in `[0.5, 1.0)`, floored at 1 ms so a tiny
/// base never rounds the delay away. Deterministic per `(seed, n)`; a
/// zero `base` or `max` counts as 1.
pub(crate) fn jittered_backoff_ms(base_ms: u64, max_ms: u64, seed: u64, n: u32) -> u64 {
    let exp = base_ms
        .max(1)
        .saturating_mul(1u64.checked_shl(n.saturating_sub(1)).unwrap_or(u64::MAX))
        .min(max_ms.max(1));
    let jitter = mix64(seed, &[u64::from(n)]);
    let frac = 0.5 + (jitter >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    ((exp as f64 * frac) as u64).max(1)
}

/// Retry budget and backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub attempts: u32,
    /// Base delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Cap on any single delay, in milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_ms: 10,
            max_ms: 500,
            seed: 0xc0_99ec7,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `retry` (1-based), in milliseconds:
    /// `base · 2^(retry-1)` capped at `max`, jittered into `[0.5, 1.0)`
    /// of itself, floored at 1 ms. Deterministic per `(seed, retry)`.
    pub(crate) fn backoff_ms(&self, retry: u32) -> u64 {
        jittered_backoff_ms(self.base_ms, self.max_ms, self.seed, retry)
    }
}

/// Runs `op` up to `policy.attempts` times, invoking `sleep` with the
/// policy's backoff delay between attempts. Returns the first success or
/// the last error. `op` receives the 1-based attempt number.
///
/// The sleep is a parameter so unit tests assert the schedule without
/// wall-clock time; production callers pass `std::thread::sleep`-backed
/// closures (see [`connect_with_retry`]).
///
/// # Errors
///
/// The error of the final attempt once the budget is exhausted.
fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    mut op: impl FnMut(u32) -> Result<T, E>,
    mut sleep: impl FnMut(u64),
) -> Result<T, E> {
    let attempts = policy.attempts.max(1);
    let mut last_err = None;
    for attempt in 1..=attempts {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                last_err = Some(e);
                if attempt < attempts {
                    ull_obs::counter_add("serve.connect_retries", 1);
                    sleep(policy.backoff_ms(attempt));
                }
            }
        }
    }
    Err(last_err.expect("at least one attempt was made"))
}

/// [`TcpStream::connect`] with bounded, deterministically-jittered
/// retries — the startup-race-tolerant way to dial a serve listener.
///
/// The returned stream has `TCP_NODELAY` set, like every connection the
/// server accepts: a frame larger than one segment must not have its
/// tail held back for the peer's delayed ACK. An attempt whose
/// `set_nodelay` fails counts as a failed connect.
///
/// # Errors
///
/// The error of the final connect attempt once the budget is exhausted.
pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> io::Result<TcpStream> {
    retry_with_backoff(
        policy,
        |_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        },
        |ms| std::thread::sleep(Duration::from_millis(ms)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_ms: 100,
            max_ms: 10_000,
            seed: 33,
        }
    }

    #[test]
    fn succeeds_without_sleeping_when_first_attempt_works() {
        let mut slept = Vec::new();
        let r: Result<u32, &str> = retry_with_backoff(&policy(), Ok, |ms| slept.push(ms));
        assert_eq!(r, Ok(1));
        assert!(slept.is_empty());
    }

    #[test]
    fn transient_failures_are_retried_on_the_deterministic_schedule() {
        let p = policy();
        let mut slept = Vec::new();
        let r: Result<u32, &str> = retry_with_backoff(
            &p,
            |attempt| {
                if attempt < 3 {
                    Err("race")
                } else {
                    Ok(attempt)
                }
            },
            |ms| slept.push(ms),
        );
        assert_eq!(r, Ok(3), "third attempt wins");
        assert_eq!(slept, vec![p.backoff_ms(1), p.backoff_ms(2)]);
        // The schedule is exponential within jitter bounds…
        for (i, &ms) in slept.iter().enumerate() {
            let exp = 100u64 << i;
            assert!(
                ms >= exp / 2 && ms <= exp,
                "delay {i}: {ms} not in [{}, {exp}]",
                exp / 2
            );
        }
        // …and reproducible: a rerun with the same seed sleeps identically.
        let mut slept2 = Vec::new();
        let _: Result<u32, &str> = retry_with_backoff(
            &p,
            |a| if a < 3 { Err("race") } else { Ok(a) },
            |ms| slept2.push(ms),
        );
        assert_eq!(slept, slept2);
    }

    #[test]
    fn exhausted_budget_returns_the_last_error() {
        let mut calls = 0;
        let mut slept = Vec::new();
        let r: Result<(), String> = retry_with_backoff(
            &policy(),
            |a| {
                calls += 1;
                Err(format!("attempt {a} failed"))
            },
            |ms| slept.push(ms),
        );
        assert_eq!(r, Err("attempt 4 failed".to_string()));
        assert_eq!(calls, 4);
        assert_eq!(slept.len(), 3, "no sleep after the final attempt");
    }

    #[test]
    fn backoff_saturates_at_the_cap_and_starts_at_the_base() {
        // n = 0 and 1 both scale the base; from n = 64 on, 2^(n-1)
        // overflows and the delay saturates at the cap instead.
        for (n, exp) in [(0, 100), (1, 100), (64, 10_000), (u32::MAX, 10_000)] {
            let ms = jittered_backoff_ms(100, 10_000, 33, n);
            assert!((exp / 2..exp).contains(&ms), "n = {n}: {ms} ms");
        }
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let a = RetryPolicy {
            seed: 1,
            ..policy()
        };
        let b = RetryPolicy {
            seed: 2,
            ..policy()
        };
        let da: Vec<u64> = (1..=4).map(|r| a.backoff_ms(r)).collect();
        let db: Vec<u64> = (1..=4).map(|r| b.backoff_ms(r)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn connect_with_retry_survives_a_late_listener() {
        use std::net::TcpListener;
        // Reserve a port, drop the listener, dial with retries while a
        // second thread re-binds it after a delay — the connect must ride
        // out the window where nothing is listening.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let l = TcpListener::bind(addr).expect("rebind");
            let _ = l.accept();
        });
        let p = RetryPolicy {
            attempts: 10,
            base_ms: 20,
            max_ms: 200,
            seed: 7,
        };
        let conn = connect_with_retry(addr, &p);
        assert!(
            conn.is_ok(),
            "retry should outlast the startup race: {conn:?}"
        );
        drop(conn);
        let _ = binder.join();
    }
}
