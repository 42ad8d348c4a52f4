//! The versioned reload manifest: how new model artifacts announce
//! themselves to a running server.
//!
//! A deployer drops a checkpoint artifact (a PR 2 envelope written by
//! `ull_nn::checkpoint::save_with_meta`) into the model directory (the
//! `ServeConfig.lifecycle.model_dir` the caller sets; no environment
//! variable does), then atomically renames a small JSON manifest over
//! [`MANIFEST_NAME`]:
//!
//! ```json
//! {
//!   "format_version": 1,
//!   "version": 7,
//!   "artifact": "model-00007.json",
//!   "checksum": 1234567890
//! }
//! ```
//!
//! * `version` is a monotone model version; the lifecycle only reacts to
//!   versions strictly greater than the one it is serving (or has
//!   quarantined).
//! * `artifact` is a bare file name inside the model directory — path
//!   separators and `..` are rejected so a hostile manifest can never
//!   make the server read outside the model directory.
//! * `checksum` is 64-bit FNV-1a over the canonical compact JSON of the
//!   three fields above it, mirroring the checkpoint envelope: a torn or
//!   bit-flipped manifest is detected even when the damage leaves the
//!   JSON parseable.
//!
//! Reading the manifest never panics on any byte sequence — truncation,
//! flips, wrong types, oversized files all come back as a typed
//! [`ManifestError`] and leave the incumbent model serving (fuzzed in
//! `tests/lifecycle.rs`). [`write_manifest`] writes with
//! [`ull_nn::write_atomic`] (`.tmp` + fsync + rename + directory fsync) so a crashed
//! deployer leaves either the old manifest or the new one, never a torn
//! hybrid at the published name.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use ull_nn::fnv1a;

/// File name of the manifest inside the model directory.
pub const MANIFEST_NAME: &str = "manifest.json";

/// Current manifest format version; anything else is rejected typed.
pub const MANIFEST_FORMAT_VERSION: u32 = 1;

/// Guard against garbage files: a manifest is a few hundred bytes, so a
/// multi-megabyte file at its name is corruption, not configuration.
const MAX_MANIFEST_LEN: u64 = 64 * 1024;

/// A parsed, checksum-verified reload manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version ([`MANIFEST_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Monotone model version this manifest publishes.
    pub version: u64,
    /// Bare file name of the checkpoint artifact in the model directory.
    pub artifact: String,
    /// FNV-1a over the canonical serialization of the fields above.
    pub checksum: u64,
}

/// Why a manifest could not be accepted. None of these are fatal to the
/// server — a rejected manifest simply leaves the incumbent serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// No manifest file exists (the steady state before any reload).
    Missing,
    /// The file exists but cannot be read.
    Io(String),
    /// Not valid JSON, missing fields, wrong types, or oversized.
    Malformed(String),
    /// Parsed but written by an incompatible format version.
    WrongVersion(u32),
    /// Parsed but the stored checksum does not match the content.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the file's fields.
        actual: u64,
    },
    /// The artifact name contains path separators or `..`.
    UnsafeArtifactName(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Missing => write!(f, "no manifest present"),
            ManifestError::Io(e) => write!(f, "manifest i/o error: {e}"),
            ManifestError::Malformed(e) => write!(f, "manifest malformed: {e}"),
            ManifestError::WrongVersion(v) => write!(
                f,
                "manifest format version {v} (expected {MANIFEST_FORMAT_VERSION})"
            ),
            ManifestError::ChecksumMismatch { stored, actual } => write!(
                f,
                "manifest checksum mismatch: stored {stored:#018x}, actual {actual:#018x}"
            ),
            ManifestError::UnsafeArtifactName(name) => {
                write!(f, "artifact name `{name}` is not a bare file name")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Canonical byte sequence the checksum covers: compact JSON of the
/// fields in fixed order, without the checksum itself.
fn checksum_input(format_version: u32, version: u64, artifact: &str) -> String {
    let inner = serde::Value::Map(vec![
        (
            "format_version".to_string(),
            serde::Value::U64(u64::from(format_version)),
        ),
        ("version".to_string(), serde::Value::U64(version)),
        (
            "artifact".to_string(),
            serde::Value::Str(artifact.to_string()),
        ),
    ]);
    serde_json::to_string(&inner).expect("serializing a Value cannot fail")
}

/// True when `name` is a bare file name: non-empty, no path separators,
/// not `.`/`..`.
fn artifact_name_is_safe(name: &str) -> bool {
    !name.is_empty()
        && name != "."
        && name != ".."
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains('\0')
}

impl Manifest {
    /// Builds a manifest (computing its checksum) for `version` pointing
    /// at `artifact`.
    ///
    /// # Panics
    ///
    /// Panics if `artifact` is not a bare file name — writers control
    /// their inputs; only *readers* must tolerate hostile bytes.
    pub fn new(version: u64, artifact: &str) -> Manifest {
        assert!(
            artifact_name_is_safe(artifact),
            "artifact `{artifact}` must be a bare file name"
        );
        Manifest {
            format_version: MANIFEST_FORMAT_VERSION,
            version,
            artifact: artifact.to_string(),
            checksum: fnv1a(checksum_input(MANIFEST_FORMAT_VERSION, version, artifact).as_bytes()),
        }
    }

    /// Full path of the artifact this manifest points at inside `dir`.
    pub(crate) fn artifact_path(&self, dir: &Path) -> PathBuf {
        dir.join(&self.artifact)
    }
}

/// Parses and verifies manifest bytes. Never panics, for any input.
///
/// # Errors
///
/// Any structural or integrity problem comes back as the matching
/// [`ManifestError`] variant.
pub fn parse_manifest(bytes: &[u8]) -> Result<Manifest, ManifestError> {
    if bytes.len() as u64 > MAX_MANIFEST_LEN {
        return Err(ManifestError::Malformed(format!(
            "{} bytes exceeds the {MAX_MANIFEST_LEN}-byte manifest limit",
            bytes.len()
        )));
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ManifestError::Malformed(format!("not UTF-8: {e}")))?;
    let m: Manifest =
        serde_json::from_str(text).map_err(|e| ManifestError::Malformed(e.to_string()))?;
    if m.format_version != MANIFEST_FORMAT_VERSION {
        return Err(ManifestError::WrongVersion(m.format_version));
    }
    let actual = fnv1a(checksum_input(m.format_version, m.version, &m.artifact).as_bytes());
    if m.checksum != actual {
        return Err(ManifestError::ChecksumMismatch {
            stored: m.checksum,
            actual,
        });
    }
    if !artifact_name_is_safe(&m.artifact) {
        return Err(ManifestError::UnsafeArtifactName(m.artifact));
    }
    Ok(m)
}

/// Reads and verifies the manifest in `dir`, distinguishing "no manifest"
/// (the steady state) from a manifest that exists but is damaged.
///
/// # Errors
///
/// [`ManifestError::Missing`] when no file exists; otherwise the same
/// typed errors as [`parse_manifest`].
pub(crate) fn read_manifest(dir: &Path) -> Result<Manifest, ManifestError> {
    let path = dir.join(MANIFEST_NAME);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ManifestError::Missing),
        Err(e) => return Err(ManifestError::Io(e.to_string())),
    };
    parse_manifest(&bytes)
}

/// Atomically publishes `manifest` in `dir` via [`ull_nn::write_atomic`]'s
/// write-tmp / fsync / rename / dir-fsync convention (the deployer half of the protocol;
/// benches and tests use it, real deployments may reimplement it in any
/// language as long as the rename is atomic).
///
/// # Errors
///
/// Returns the underlying I/O error if any filesystem step fails.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> io::Result<()> {
    let json =
        serde_json::to_string_pretty(manifest).map_err(|e| io::Error::other(e.to_string()))?;
    ull_nn::write_atomic(&dir.join(MANIFEST_NAME), json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("ull_serve_manifest_tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = test_dir("round_trip");
        let m = Manifest::new(7, "model-00007.json");
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);
        assert!(!dir.join(format!("{MANIFEST_NAME}.tmp")).exists());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_manifest_is_its_own_state() {
        let dir = test_dir("missing");
        assert_eq!(read_manifest(&dir), Err(ManifestError::Missing));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn tampered_version_fails_checksum() {
        let dir = test_dir("tamper");
        write_manifest(&dir, &Manifest::new(3, "model-00003.json")).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"version\": 3", "\"version\": 4");
        fs::write(&path, text).unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ManifestError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn wrong_format_version_is_typed() {
        let dir = test_dir("version");
        write_manifest(&dir, &Manifest::new(1, "model-00001.json")).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"format_version\": 1", "\"format_version\": 9");
        fs::write(&path, text).unwrap();
        assert_eq!(read_manifest(&dir), Err(ManifestError::WrongVersion(9)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn traversal_artifact_names_are_rejected() {
        for name in ["../escape.json", "a/b.json", "..", "", "a\\b.json"] {
            // Hand-build the envelope (Manifest::new would panic, by
            // design) with a *valid* checksum so only the name check
            // can reject it.
            let m = Manifest {
                format_version: MANIFEST_FORMAT_VERSION,
                version: 1,
                artifact: name.to_string(),
                checksum: fnv1a(checksum_input(MANIFEST_FORMAT_VERSION, 1, name).as_bytes()),
            };
            let bytes = serde_json::to_string(&m).unwrap().into_bytes();
            assert!(
                matches!(
                    parse_manifest(&bytes),
                    Err(ManifestError::UnsafeArtifactName(_))
                ),
                "`{name}` must be rejected"
            );
        }
    }

    #[test]
    fn oversized_manifest_is_rejected_without_parsing() {
        let huge = vec![b' '; (MAX_MANIFEST_LEN + 1) as usize];
        assert!(matches!(
            parse_manifest(&huge),
            Err(ManifestError::Malformed(_))
        ));
    }
}
