//! The degradation ladder: pick a quality/latency rung per batch.
//!
//! The paper's central observation — accuracy degrades gracefully as the
//! SNN's time steps shrink from T=5 toward T=2 — gives a serving system
//! a *quality dial* that most DNN servers lack. The ladder turns load
//! and deadline pressure into dial positions:
//!
//! ```text
//! Full    — forward for t_full steps (paper-quality answer)
//! Anytime — ull_robust::anytime_forward_scheduled behind the
//!           calibrated margin schedule: rows exit as soon as their
//!           logit margin clears the per-step gate, bounded by t_full
//! Reduced — forward for t_reduced steps (cheapest deterministic rung)
//! (shed)  — not a rung: a full admission queue rejects new requests
//!           with a typed `Overloaded` reply before they ever queue
//! ```
//!
//! Two pressures push a batch down the ladder and the harsher one wins:
//!
//! * **queue depth** at dequeue time — depth ≥ 16 (`ANYTIME_DEPTH`) drops
//!   to `Anytime`, depth ≥ 32 (`REDUCED_DEPTH`) drops to `Reduced`;
//! * **remaining deadline** of the tightest request in the batch —
//!   below `est_full_ms` the full rung would blow the deadline, so the
//!   batch degrades; below `est_reduced_ms` only `Reduced` (whose cost
//!   is deterministic, unlike `Anytime`'s data-dependent exit step) has
//!   a chance of fitting.
//!
//! Deadlines are enforced *hard* at dequeue (an expired request gets a
//! typed `DeadlineExceeded` without touching a replica) and *soft*
//! during execution: once a batch starts, it runs to completion at its
//! chosen rung.

use crate::config::ServeConfig;
use crate::protocol::RungLabel;

/// Queue depth at or above which the ladder drops from `Full` to
/// `Anytime`.
const ANYTIME_DEPTH: usize = 16;

/// Queue depth at or above which the ladder drops to `Reduced`.
const REDUCED_DEPTH: usize = 32;

/// Severity order for rungs (higher = more degraded).
fn severity(r: RungLabel) -> u8 {
    match r {
        RungLabel::Full => 0,
        RungLabel::Anytime => 1,
        RungLabel::Reduced => 2,
    }
}

/// The more degraded of two rungs.
fn max_rung(a: RungLabel, b: RungLabel) -> RungLabel {
    if severity(a) >= severity(b) {
        a
    } else {
        b
    }
}

/// Chooses the rung for a batch about to execute.
///
/// `queue_depth` is the number of requests still waiting *behind* this
/// batch; `min_remaining_ms` is the smallest remaining deadline among
/// the batch's requests (`None` when every deadline is comfortably far).
pub(crate) fn choose_rung(
    cfg: &ServeConfig,
    queue_depth: usize,
    min_remaining_ms: Option<u64>,
) -> RungLabel {
    let depth_rung = if queue_depth >= REDUCED_DEPTH {
        RungLabel::Reduced
    } else if queue_depth >= ANYTIME_DEPTH {
        RungLabel::Anytime
    } else {
        RungLabel::Full
    };
    let deadline_rung = match min_remaining_ms {
        Some(ms) if ms < cfg.est_reduced_ms => RungLabel::Reduced,
        Some(ms) if ms < cfg.est_full_ms => RungLabel::Anytime,
        _ => RungLabel::Full,
    };
    max_rung(depth_rung, deadline_rung)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            est_full_ms: 50,
            est_reduced_ms: 20,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn idle_queue_with_slack_deadline_serves_full() {
        assert_eq!(choose_rung(&cfg(), 0, None), RungLabel::Full);
        assert_eq!(
            choose_rung(&cfg(), ANYTIME_DEPTH - 1, Some(1_000)),
            RungLabel::Full
        );
    }

    #[test]
    fn queue_depth_pushes_down_the_ladder() {
        assert_eq!(choose_rung(&cfg(), ANYTIME_DEPTH, None), RungLabel::Anytime);
        assert_eq!(
            choose_rung(&cfg(), REDUCED_DEPTH - 1, None),
            RungLabel::Anytime
        );
        assert_eq!(choose_rung(&cfg(), REDUCED_DEPTH, None), RungLabel::Reduced);
        assert_eq!(choose_rung(&cfg(), 500, None), RungLabel::Reduced);
    }

    #[test]
    fn tight_deadlines_push_down_the_ladder() {
        assert_eq!(choose_rung(&cfg(), 0, Some(50)), RungLabel::Full);
        assert_eq!(choose_rung(&cfg(), 0, Some(49)), RungLabel::Anytime);
        assert_eq!(choose_rung(&cfg(), 0, Some(20)), RungLabel::Anytime);
        assert_eq!(choose_rung(&cfg(), 0, Some(19)), RungLabel::Reduced);
        assert_eq!(choose_rung(&cfg(), 0, Some(0)), RungLabel::Reduced);
    }

    #[test]
    fn the_harsher_pressure_wins() {
        // Depth says Reduced, deadline says Full → Reduced.
        assert_eq!(
            choose_rung(&cfg(), REDUCED_DEPTH + 5, Some(1_000)),
            RungLabel::Reduced
        );
        // Depth says Full, deadline says Reduced → Reduced.
        assert_eq!(choose_rung(&cfg(), 0, Some(5)), RungLabel::Reduced);
        // Depth says Anytime, deadline says Reduced → Reduced.
        assert_eq!(
            choose_rung(&cfg(), ANYTIME_DEPTH + 2, Some(5)),
            RungLabel::Reduced
        );
    }
}
