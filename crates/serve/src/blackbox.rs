//! Flight recorder: a fixed-capacity ring of recent [`ServeEvent`]s
//! that is dumped to disk when something goes wrong, so every incident
//! ships with its own self-contained context file.
//!
//! The ring records every engine event (batch digests and lifecycle
//! transitions) under one short mutex hold per event — no allocation
//! beyond the clone of the event, no I/O. A **dump** serializes the
//! ring plus the trigger context to `<dir>/blackbox-<seq>-<reason>.json`
//! with [`ull_nn::write_atomic`] (write-tmp / fsync / rename / dir-fsync),
//! so a crash mid-dump can never leave a truncated incident file.
//!
//! Dump triggers (wired in [`Engine`](crate::engine::Engine) and the
//! server):
//!
//! * a circuit-breaker trip,
//! * a lifecycle rollback,
//! * a worker panic that exhausted its retries,
//! * graceful drain (so every run ends with a final context file).
//!
//! Disabled (no recording, no writes) unless the caller sets
//! [`BlackboxConfig::dir`](crate::config::BlackboxConfig); no
//! environment variable arms it.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::breaker::BreakerState;
use crate::config::BlackboxConfig;
use crate::engine::ServeEvent;

/// Format version stamped into every dump so future readers can detect
/// layout changes.
pub const BLACKBOX_FORMAT_VERSION: u32 = 1;

/// One incident dump as written to `BlackboxConfig::dir`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlackboxDump {
    /// Layout version ([`BLACKBOX_FORMAT_VERSION`]).
    pub format_version: u32,
    /// What triggered the dump (`breaker_trip`, `lifecycle_rollback`,
    /// `worker_panic`, `drain`).
    pub reason: String,
    /// Dump serial within this process (0-based, assigned in trigger
    /// order).
    pub dump_seq: u64,
    /// Engine clock at the trigger, milliseconds.
    pub at_ms: u64,
    /// Breaker state per replica at the trigger.
    pub breaker_states: Vec<BreakerState>,
    /// The recent-event ring, oldest first.
    pub events: Vec<ServeEvent>,
}

/// Fixed-capacity recorder of recent [`ServeEvent`]s.
pub struct FlightRecorder {
    dir: Option<PathBuf>,
    capacity: usize,
    ring: Mutex<VecDeque<ServeEvent>>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// Builds a recorder from its config. With `dir` unset the recorder
    /// is inert: [`observe`](Self::observe) and [`dump`](Self::dump)
    /// return immediately.
    pub fn new(cfg: &BlackboxConfig) -> Self {
        FlightRecorder {
            dir: cfg.dir.as_ref().map(PathBuf::from),
            capacity: cfg.capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dumps: AtomicU64::new(0),
        }
    }

    /// Whether the recorder is armed (a dump directory is configured).
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::SeqCst)
    }

    /// Folds one event into the ring (dropping the oldest at capacity).
    /// No-op when disabled.
    pub fn observe(&self, event: &ServeEvent) {
        if self.dir.is_none() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(event.clone());
    }

    /// Writes an incident dump atomically and returns its path. The
    /// ring is *not* cleared — overlapping incidents each get the full
    /// recent-event context. Returns `None` when disabled; I/O failures
    /// are reported on stderr but never panic (a broken disk must not
    /// take down serving).
    pub fn dump(
        &self,
        reason: &str,
        at_ms: u64,
        breaker_states: &[BreakerState],
    ) -> Option<PathBuf> {
        let dir = self.dir.as_deref()?;
        let events: Vec<ServeEvent> = {
            let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            ring.iter().cloned().collect()
        };
        let dump_seq = self.dumps.fetch_add(1, Ordering::SeqCst);
        let dump = BlackboxDump {
            format_version: BLACKBOX_FORMAT_VERSION,
            reason: reason.to_string(),
            dump_seq,
            at_ms,
            breaker_states: breaker_states.to_vec(),
            events,
        };
        match write_dump(dir, &dump) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("ull-serve: flight-recorder dump failed: {e}");
                None
            }
        }
    }
}

/// Atomic write via [`ull_nn::write_atomic`].
fn write_dump(dir: &Path, dump: &BlackboxDump) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "blackbox-{:04}-{}.json",
        dump.dump_seq, dump.reason
    ));
    let json =
        serde_json::to_string_pretty(dump).map_err(|e| std::io::Error::other(e.to_string()))?;
    ull_nn::write_atomic(&path, json.as_bytes())?;
    Ok(path)
}

/// Reads a dump back. The re-parse is the smoke tests' integrity check:
/// a dump that does not round-trip is a bug, not an artifact.
///
/// # Errors
///
/// A human-readable description of the I/O or parse failure.
pub fn parse_blackbox(path: &Path) -> Result<BlackboxDump, String> {
    let body = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let dump: BlackboxDump =
        serde_json::from_str(&body).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if dump.format_version != BLACKBOX_FORMAT_VERSION {
        return Err(format!(
            "unsupported blackbox format {} (supported: {BLACKBOX_FORMAT_VERSION})",
            dump.format_version
        ));
    }
    Ok(dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BatchEvent;
    use crate::protocol::RungLabel;

    fn batch_event(seq: u64) -> ServeEvent {
        ServeEvent::Batch(BatchEvent {
            seq,
            at_ms: seq * 10,
            rung: RungLabel::Full,
            replica: 0,
            version: 0,
            healthy: true,
            retried: false,
            breaker_states: vec![BreakerState::Closed],
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ull-blackbox-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::new(&BlackboxConfig::default());
        assert!(!rec.enabled());
        rec.observe(&batch_event(0));
        assert!(rec.dump("breaker_trip", 0, &[]).is_none());
        assert_eq!(rec.dumps(), 0);
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let dir = temp_dir("ring");
        let rec = FlightRecorder::new(&BlackboxConfig {
            dir: Some(dir.to_string_lossy().into_owned()),
            capacity: 3,
        });
        for seq in 0..10 {
            rec.observe(&batch_event(seq));
        }
        let path = rec.dump("drain", 123, &[BreakerState::Closed]).unwrap();
        let dump = parse_blackbox(&path).unwrap();
        assert_eq!(dump.reason, "drain");
        assert_eq!(dump.at_ms, 123);
        assert_eq!(dump.dump_seq, 0);
        let seqs: Vec<u64> = dump
            .events
            .iter()
            .filter_map(|e| e.batch().map(|b| b.seq))
            .collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dumps_are_atomic_and_serially_numbered() {
        let dir = temp_dir("serial");
        let rec = FlightRecorder::new(&BlackboxConfig {
            dir: Some(dir.to_string_lossy().into_owned()),
            capacity: 8,
        });
        rec.observe(&batch_event(1));
        let p0 = rec.dump("breaker_trip", 5, &[BreakerState::Open]).unwrap();
        let p1 = rec.dump("worker_panic", 9, &[BreakerState::Open]).unwrap();
        assert_ne!(p0, p1);
        assert_eq!(rec.dumps(), 2);
        assert_eq!(parse_blackbox(&p0).unwrap().dump_seq, 0);
        assert_eq!(parse_blackbox(&p1).unwrap().dump_seq, 1);
        // No stray .tmp files survive the rename.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(stray.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let dir = temp_dir("version");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blackbox-0000-test.json");
        fs::write(
            &path,
            r#"{"format_version": 99, "reason": "x", "dump_seq": 0, "at_ms": 0,
               "breaker_states": [], "events": []}"#,
        )
        .unwrap();
        let err = parse_blackbox(&path).unwrap_err();
        assert!(err.contains("unsupported"), "got: {err}");
        fs::remove_dir_all(&dir).ok();
    }
}
