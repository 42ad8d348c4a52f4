//! Crash-safe checkpoints: atomic writes, a versioned + checksummed
//! envelope, and torn-file-tolerant directory scans.
//!
//! Both [`Network`](crate::Network) and `ull-snn`'s `SnnNetwork` derive
//! serde, so checkpoints round-trip exactly (weights, thresholds, momentum
//! buffers and all). Checkpoints are written as **pretty-printed JSON** —
//! they double as inspectable experiment artifacts — wrapped in a
//! versioned envelope:
//!
//! ```json
//! {
//!   "format_version": 2,
//!   "phase": "dnn-train",
//!   "epoch": 17,
//!   "rng_state": [1, 2, 3, 4],
//!   "payload": { ... model ... },
//!   "checksum": 1234567890
//! }
//! ```
//!
//! `checksum` is 64-bit FNV-1a over the canonical (compact) serialization
//! of the five fields above it, so *any* content-level corruption — a
//! truncated file, a flipped byte, a tampered epoch — is detected at load
//! time and surfaced as a typed [`CheckpointError`] instead of a panic or
//! a silently-wrong model.
//!
//! Writes are atomic: the envelope is written to `<path>.tmp`, fsynced,
//! and renamed over `<path>`, so a crash mid-write can never tear an
//! existing checkpoint. [`load_latest`] scans a directory for the newest
//! (lexicographically last) *valid* checkpoint, skipping torn or corrupt
//! files left behind by a crash.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

/// Current envelope format version. Version 1 was the bare (un-enveloped)
/// model JSON of earlier revisions; readers reject anything but the
/// current version with [`CheckpointError::WrongVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// Extension of checkpoint files recognised by [`load_latest`].
pub const CHECKPOINT_EXT: &str = "json";

/// Metadata stored alongside a checkpointed model in the envelope.
/// (Serialization is hand-rolled into the envelope, field by field, so the
/// checksum can be computed over a canonical byte sequence.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Pipeline phase label (e.g. `"dnn-train"`, `"sgl"`); free-form so
    /// the checkpoint layer stays agnostic of any particular pipeline.
    pub phase: String,
    /// Next epoch to run when resuming from this checkpoint.
    pub epoch: usize,
    /// Raw RNG state captured at save time (see `rand::rngs::StdRng::state`),
    /// so a resumed run continues the exact random stream. All zeros when
    /// the caller has no RNG to persist.
    pub rng_state: [u64; 4],
}

impl CheckpointMeta {
    /// Metadata for a standalone model snapshot outside any phased run.
    pub fn standalone() -> Self {
        CheckpointMeta {
            phase: "standalone".to_string(),
            epoch: 0,
            rng_state: [0; 4],
        }
    }
}

/// Typed error for checkpoint save/load failures.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (create, write, fsync, rename, read).
    Io(io::Error),
    /// The file is not valid JSON (truncated, torn, or not a checkpoint).
    Malformed {
        /// Parser diagnostic.
        reason: String,
    },
    /// The envelope parsed but its format version is not [`FORMAT_VERSION`].
    WrongVersion {
        /// Version found in the file.
        found: u64,
    },
    /// The envelope is valid JSON but its FNV-1a checksum does not match
    /// the recomputed one — the content was corrupted after writing.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the file's content.
        actual: u64,
    },
    /// The payload passed the checksum but does not deserialize into the
    /// requested model type.
    BadPayload {
        /// Deserializer diagnostic.
        reason: String,
    },
    /// [`load_latest`] found no valid checkpoint in the directory.
    NoValidCheckpoint {
        /// Directory that was scanned.
        dir: PathBuf,
        /// Number of candidate files that were examined and rejected.
        rejected: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Malformed { reason } => {
                write!(f, "checkpoint is not valid JSON: {reason}")
            }
            CheckpointError::WrongVersion { found } => write!(
                f,
                "checkpoint format version {found} (expected {FORMAT_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { stored, actual } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, actual {actual:#018x}"
            ),
            CheckpointError::BadPayload { reason } => {
                write!(f, "checkpoint payload does not match model type: {reason}")
            }
            CheckpointError::NoValidCheckpoint { dir, rejected } => write!(
                f,
                "no valid checkpoint in {} ({rejected} candidate file(s) rejected)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Semantic validation applied to a checkpoint payload *after* it
/// deserializes — the final gate before a loaded model is trusted.
///
/// The checksum catches bytes corrupted on disk, but not bad values that
/// were *faithfully written*: a NaN weight serializes to JSON `null` (and
/// fails element deserialization with an opaque message), while a finite
/// f64 like `1e39` parses fine and silently overflows to `+inf` when cast
/// to `f32` — a model that loads "successfully" and then wrecks every
/// forward pass. Implementations reject such payloads with a diagnostic,
/// surfaced as [`CheckpointError::BadPayload`].
pub trait ValidatePayload {
    /// Checks the deserialized payload, returning a description of the
    /// first problem found (e.g. which tensor is non-finite).
    ///
    /// # Errors
    ///
    /// Returns the diagnostic string on the first failed check.
    fn validate_payload(&self) -> Result<(), String>;
}

impl ValidatePayload for crate::Network {
    fn validate_payload(&self) -> Result<(), String> {
        let mut bad = None;
        let mut idx = 0usize;
        self.visit_params(|p| {
            if bad.is_none() {
                if !p.value.all_finite() {
                    bad = Some(format!("parameter {idx}: value has non-finite entries"));
                } else if !p.momentum.all_finite() {
                    bad = Some(format!("parameter {idx}: momentum has non-finite entries"));
                }
            }
            idx += 1;
        });
        match bad {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }
}

/// 64-bit FNV-1a over `bytes` — tiny, dependency-free and plenty for
/// catching torn writes and bit flips (this is integrity, not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Canonical serialization the checksum is computed over: the compact JSON
/// of the envelope fields in fixed order, *without* the checksum itself.
fn checksum_input(version: u64, meta: &CheckpointMeta, payload: &Value) -> String {
    let inner = Value::Map(vec![
        ("format_version".to_string(), Value::U64(version)),
        ("phase".to_string(), Value::Str(meta.phase.clone())),
        ("epoch".to_string(), Value::U64(meta.epoch as u64)),
        ("rng_state".to_string(), meta.rng_state.to_value()),
        ("payload".to_string(), payload.clone()),
    ]);
    serde_json::to_string(&inner).expect("serializing a Value cannot fail")
}

/// Saves `model` to `path` atomically with the given envelope metadata.
///
/// The envelope is serialized as pretty JSON, written to `<path>.tmp`,
/// fsynced and renamed into place, so concurrent readers and post-crash
/// scans never observe a torn file at `path`.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] if any filesystem step fails.
pub fn save_with_meta<T: Serialize>(
    model: &T,
    meta: &CheckpointMeta,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let payload = model.to_value();
    let checksum = fnv1a(checksum_input(FORMAT_VERSION as u64, meta, &payload).as_bytes());
    let envelope = Value::Map(vec![
        (
            "format_version".to_string(),
            Value::U64(FORMAT_VERSION as u64),
        ),
        ("phase".to_string(), Value::Str(meta.phase.clone())),
        ("epoch".to_string(), Value::U64(meta.epoch as u64)),
        ("rng_state".to_string(), meta.rng_state.to_value()),
        ("payload".to_string(), payload),
        ("checksum".to_string(), Value::U64(checksum)),
    ]);
    let json = serde_json::to_string_pretty(&envelope).expect("serializing a Value cannot fail");
    ull_obs::counter_add("checkpoint.saves", 1);
    ull_obs::counter_add("checkpoint.bytes", json.len() as u64);
    write_atomic(path, json.as_bytes())?;
    Ok(())
}

/// Writes `bytes` to `path` atomically: to `<path>.tmp`, fsynced, then
/// renamed over `path`, then the containing directory is fsynced. Readers
/// and post-crash scans see the old file or the whole new one, never a
/// torn one. The checkpoints, the serving layer's snapshots, manifests
/// and flight-recorder dumps are all written this way.
///
/// # Errors
///
/// The I/O error of the create, write, fsync or rename that failed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename itself: fsync the containing directory.
    // Best-effort — some filesystems refuse to open directories.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Loads and validates a checkpoint written by [`save_with_meta`],
/// returning the model together with its envelope metadata.
///
/// # Errors
///
/// * [`CheckpointError::Io`] — the file cannot be read.
/// * [`CheckpointError::Malformed`] — not valid JSON (e.g. truncated) or
///   the envelope fields are missing/mistyped.
/// * [`CheckpointError::WrongVersion`] — written by an incompatible format.
/// * [`CheckpointError::ChecksumMismatch`] — content corrupted on disk.
/// * [`CheckpointError::BadPayload`] — intact envelope but the payload is
///   the wrong model type or fails [`ValidatePayload`] (e.g. non-finite
///   weights written by a run that diverged before saving).
pub fn load_with_meta<T: DeserializeOwned + ValidatePayload>(
    path: impl AsRef<Path>,
) -> Result<(T, CheckpointMeta), CheckpointError> {
    let json = fs::read_to_string(path.as_ref())?;
    let value: Value = serde_json::from_str(&json).map_err(|e| CheckpointError::Malformed {
        reason: e.to_string(),
    })?;
    let entries = value.as_map().ok_or_else(|| CheckpointError::Malformed {
        reason: "envelope is not a JSON object".to_string(),
    })?;
    let field = |name: &str| {
        serde::map_get(entries, name).ok_or_else(|| CheckpointError::Malformed {
            reason: format!("envelope missing field `{name}`"),
        })
    };
    let version = field("format_version")?
        .as_u64()
        .ok_or_else(|| CheckpointError::Malformed {
            reason: "format_version is not an unsigned integer".to_string(),
        })?;
    if version != FORMAT_VERSION as u64 {
        return Err(CheckpointError::WrongVersion { found: version });
    }
    let meta = CheckpointMeta {
        phase: field("phase")?
            .as_str()
            .ok_or_else(|| CheckpointError::Malformed {
                reason: "phase is not a string".to_string(),
            })?
            .to_string(),
        epoch: field("epoch")?
            .as_u64()
            .ok_or_else(|| CheckpointError::Malformed {
                reason: "epoch is not an unsigned integer".to_string(),
            })? as usize,
        rng_state: <[u64; 4]>::from_value(field("rng_state")?).map_err(|e| {
            CheckpointError::Malformed {
                reason: format!("rng_state: {e}"),
            }
        })?,
    };
    let stored = field("checksum")?
        .as_u64()
        .ok_or_else(|| CheckpointError::Malformed {
            reason: "checksum is not an unsigned integer".to_string(),
        })?;
    let payload = field("payload")?;
    let actual = fnv1a(checksum_input(version, &meta, payload).as_bytes());
    if stored != actual {
        return Err(CheckpointError::ChecksumMismatch { stored, actual });
    }
    let model: T = serde_json::from_value(payload).map_err(|e| CheckpointError::BadPayload {
        reason: e.to_string(),
    })?;
    model
        .validate_payload()
        .map_err(|reason| CheckpointError::BadPayload { reason })?;
    Ok((model, meta))
}

/// Saves a standalone model snapshot (no phase/epoch/RNG context) to
/// `path`, atomically and with the full envelope protection.
///
/// # Errors
///
/// Same as [`save_with_meta`].
pub fn save<T: Serialize>(model: &T, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save_with_meta(model, &CheckpointMeta::standalone(), path)
}

/// Loads a model saved by [`save`] (or [`save_with_meta`]), discarding the
/// envelope metadata.
///
/// # Errors
///
/// Same as [`load_with_meta`].
pub fn load<T: DeserializeOwned + ValidatePayload>(
    path: impl AsRef<Path>,
) -> Result<T, CheckpointError> {
    load_with_meta(path).map(|(model, _)| model)
}

/// Scans `dir` and loads the newest **valid** checkpoint, where "newest"
/// is the lexicographically greatest `*.json` file name (checkpoint
/// writers use zero-padded phase/epoch names so lexicographic order is
/// chronological order). Files that fail validation — torn by a crash
/// mid-write, corrupted, wrong version, or wrong model type — are
/// skipped, not fatal.
///
/// Returns the model, its metadata and the path it was loaded from.
///
/// # Errors
///
/// * [`CheckpointError::Io`] — `dir` cannot be read.
/// * [`CheckpointError::NoValidCheckpoint`] — no file in `dir` validates.
pub fn load_latest<T: DeserializeOwned + ValidatePayload>(
    dir: impl AsRef<Path>,
) -> Result<(T, CheckpointMeta, PathBuf), CheckpointError> {
    let dir = dir.as_ref();
    let mut names: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == CHECKPOINT_EXT).unwrap_or(false))
        .collect();
    // Newest first: lexicographically descending file name.
    names.sort();
    names.reverse();
    let mut rejected = 0usize;
    for path in names {
        match load_with_meta::<T>(&path) {
            Ok((model, meta)) => return Ok((model, meta, path)),
            Err(_) => rejected += 1,
        }
    }
    Err(CheckpointError::NoValidCheckpoint {
        dir: dir.to_path_buf(),
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkBuilder};
    use ull_tensor::Tensor;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new(1, 4, 3);
        b.conv2d(2, 3, 1, 1);
        b.threshold_relu(1.0);
        b.flatten();
        b.linear(2);
        b.build()
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("ull_nn_ckpt_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_with_meta() {
        let net = tiny();
        let dir = test_dir("round_trip");
        let path = dir.join("net.json");
        let meta = CheckpointMeta {
            phase: "dnn-train".to_string(),
            epoch: 17,
            rng_state: [1, 2, 3, 4],
        };
        save_with_meta(&net, &meta, &path).unwrap();
        let (back, meta2): (Network, _) = load_with_meta(&path).unwrap();
        assert_eq!(meta2, meta);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        assert_eq!(back.forward_eval(&x), net.forward_eval(&x));
        // Bit-exactness of every parameter, not just the forward pass.
        let mut vals_a = Vec::new();
        net.visit_params(|p| vals_a.extend_from_slice(p.value.data()));
        let mut vals_b = Vec::new();
        back.visit_params(|p| vals_b.extend_from_slice(p.value.data()));
        assert!(vals_a
            .iter()
            .zip(&vals_b)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn save_is_pretty_and_human_inspectable() {
        let net = tiny();
        let dir = test_dir("pretty");
        let path = dir.join("net.json");
        save(&net, &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("{\n  \"format_version\": 2"),
            "not pretty-printed: {}",
            &text[..text.len().min(60)]
        );
        assert!(text.contains("\n  \"checksum\":"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let net = tiny();
        let dir = test_dir("tmp");
        let path = dir.join("net.json");
        save(&net, &path).unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_missing_file_errors() {
        let r: Result<Network, _> = load("/nonexistent/definitely/not/here.json");
        assert!(matches!(r, Err(CheckpointError::Io(_))));
    }

    #[test]
    fn load_corrupt_file_errors_typed() {
        let dir = test_dir("corrupt");
        let path = dir.join("bad.json");
        fs::write(&path, "{not json").unwrap();
        let r: Result<Network, _> = load(&path);
        assert!(matches!(r, Err(CheckpointError::Malformed { .. })));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let net = tiny();
        let dir = test_dir("truncate");
        let path = dir.join("net.json");
        save(&net, &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let r: Result<Network, _> = load(&path);
        assert!(r.is_err());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let net = tiny();
        let dir = test_dir("flip");
        let path = dir.join("net.json");
        save(&net, &path).unwrap();
        let mut text = fs::read_to_string(&path).unwrap().into_bytes();
        // Flip a digit inside the payload (search for a "0" after the
        // payload key so the JSON stays parseable).
        let payload_at = text
            .windows(9)
            .position(|w| w == b"\"payload\"")
            .expect("payload key present");
        let digit_at = (payload_at..text.len())
            .find(|&i| text[i] == b'0')
            .expect("some digit in payload");
        text[digit_at] = b'9';
        fs::write(&path, &text).unwrap();
        let r: Result<Network, _> = load(&path);
        assert!(
            matches!(r, Err(CheckpointError::ChecksumMismatch { .. })),
            "{r:?}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn tampered_epoch_fails_checksum() {
        let net = tiny();
        let dir = test_dir("tamper");
        let path = dir.join("net.json");
        let meta = CheckpointMeta {
            phase: "sgl".to_string(),
            epoch: 3,
            rng_state: [9, 9, 9, 9],
        };
        save_with_meta(&net, &meta, &path).unwrap();
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"epoch\": 3", "\"epoch\": 4");
        fs::write(&path, text).unwrap();
        let r: Result<(Network, _), _> = load_with_meta(&path);
        assert!(matches!(r, Err(CheckpointError::ChecksumMismatch { .. })));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let net = tiny();
        let dir = test_dir("version");
        let path = dir.join("net.json");
        save(&net, &path).unwrap();
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"format_version\": 2", "\"format_version\": 99");
        fs::write(&path, text).unwrap();
        let r: Result<Network, _> = load(&path);
        assert!(matches!(
            r,
            Err(CheckpointError::WrongVersion { found: 99 })
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_latest_picks_newest_and_skips_torn_files() {
        let dir = test_dir("latest");
        let meta = |epoch| CheckpointMeta {
            phase: "dnn-train".to_string(),
            epoch,
            rng_state: [1, 1, 1, 1],
        };
        let mut a = tiny();
        a.visit_params_mut(|p| p.value.fill(1.0));
        let mut b = tiny();
        b.visit_params_mut(|p| p.value.fill(2.0));
        save_with_meta(&a, &meta(1), dir.join("ckpt-0-00001.json")).unwrap();
        save_with_meta(&b, &meta(2), dir.join("ckpt-0-00002.json")).unwrap();
        // Simulate a crash mid-write of epoch 3: a torn (truncated) file.
        let mut c = tiny();
        c.visit_params_mut(|p| p.value.fill(3.0));
        let torn = dir.join("ckpt-0-00003.json");
        save_with_meta(&c, &meta(3), &torn).unwrap();
        let text = fs::read_to_string(&torn).unwrap();
        fs::write(&torn, &text[..text.len() / 3]).unwrap();
        // And an unrelated non-checkpoint file.
        fs::write(dir.join("notes.txt"), "hi").unwrap();

        let (model, m, path): (Network, _, _) = load_latest(&dir).unwrap();
        assert_eq!(m.epoch, 2, "should fall back past the torn epoch-3 file");
        assert!(path.ends_with("ckpt-0-00002.json"));
        let mut first = f32::NAN;
        model.visit_params(|p| {
            if first.is_nan() {
                first = p.value.data()[0];
            }
        });
        assert_eq!(first, 2.0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_latest_on_empty_dir_is_typed() {
        let dir = test_dir("empty");
        let r: Result<(Network, _, _), _> = load_latest(&dir);
        assert!(matches!(r, Err(CheckpointError::NoValidCheckpoint { .. })));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn nan_poisoned_checkpoint_is_rejected_typed() {
        // Regression: a model whose weights went NaN before saving must not
        // load back. The NaN serializes to JSON `null` with a *consistent*
        // checksum, so only payload validation can catch it.
        let mut net = tiny();
        net.visit_params_mut(|p| p.value.data_mut()[0] = f32::NAN);
        let dir = test_dir("nan_payload");
        let path = dir.join("net.json");
        save(&net, &path).unwrap();
        let r: Result<Network, _> = load(&path);
        assert!(
            matches!(r, Err(CheckpointError::BadPayload { .. })),
            "{r:?}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    /// Replaces the first float scalar found in a payload `Value` tree.
    fn poison_first_float(v: &mut Value, poison: f64) -> bool {
        match v {
            Value::F64(x) => {
                *x = poison;
                true
            }
            Value::Seq(items) => items.iter_mut().any(|i| poison_first_float(i, poison)),
            Value::Map(entries) => entries
                .iter_mut()
                .any(|(_, i)| poison_first_float(i, poison)),
            _ => false,
        }
    }

    #[test]
    fn overflowing_weight_checkpoint_is_rejected_typed() {
        // Regression: `1e39` is a perfectly finite f64 that the JSON layer
        // accepts and checksums happily — but it overflows to `+inf` when
        // cast to f32 at deserialization. Before payload validation this
        // loaded "successfully" and produced a model whose forward pass is
        // all infinities.
        let net = tiny();
        let mut payload = net.to_value();
        assert!(
            poison_first_float(&mut payload, 1e39),
            "payload should contain at least one float"
        );
        let meta = CheckpointMeta::standalone();
        let checksum = fnv1a(checksum_input(FORMAT_VERSION as u64, &meta, &payload).as_bytes());
        let envelope = Value::Map(vec![
            (
                "format_version".to_string(),
                Value::U64(FORMAT_VERSION as u64),
            ),
            ("phase".to_string(), Value::Str(meta.phase.clone())),
            ("epoch".to_string(), Value::U64(meta.epoch as u64)),
            ("rng_state".to_string(), meta.rng_state.to_value()),
            ("payload".to_string(), payload),
            ("checksum".to_string(), Value::U64(checksum)),
        ]);
        let dir = test_dir("overflow_payload");
        let path = dir.join("net.json");
        fs::write(&path, serde_json::to_string_pretty(&envelope).unwrap()).unwrap();
        let r: Result<Network, _> = load(&path);
        match r {
            Err(CheckpointError::BadPayload { reason }) => {
                assert!(reason.contains("non-finite"), "reason: {reason}");
            }
            other => panic!("expected BadPayload, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn load_latest_skips_nan_poisoned_checkpoint() {
        // A poisoned newest checkpoint must not shadow an older clean one.
        let dir = test_dir("latest_nan");
        let meta = |epoch| CheckpointMeta {
            phase: "dnn-train".to_string(),
            epoch,
            rng_state: [1, 1, 1, 1],
        };
        let clean = tiny();
        save_with_meta(&clean, &meta(1), dir.join("ckpt-0-00001.json")).unwrap();
        let mut poisoned = tiny();
        poisoned.visit_params_mut(|p| p.value.data_mut()[0] = f32::NAN);
        save_with_meta(&poisoned, &meta(2), dir.join("ckpt-0-00002.json")).unwrap();
        let (_, m, path): (Network, _, _) = load_latest(&dir).unwrap();
        assert_eq!(m.epoch, 1, "must fall back past the poisoned epoch-2");
        assert!(path.ends_with("ckpt-0-00001.json"));
        let _ = fs::remove_dir_all(dir);
    }
}
