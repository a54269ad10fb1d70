//! The typed error of on-disk resume state.
//!
//! A sharded study checkpoints its corpus as spilled segments under
//! `--spill-dir`; a rerun admits every segment whose envelope and
//! fingerprint still match and rebuilds the rest. [`CheckpointError`] says
//! why a segment (or the directory holding it) could not be used, and is
//! also the error of the shared payload decoder in [`crate::codec`], which
//! the study artifact maps variant-for-variant onto
//! [`crate::ArtifactError`].

use std::path::{Path, PathBuf};

/// Why a spilled corpus segment, or the spill directory holding it, could
/// not be used — the error type of the shared payload decoder, which the
/// study artifact maps onto its own [`crate::ArtifactError`].
///
/// Every variant's `Display` ends with the remediation, mirroring the
/// [`crate::RecordError`]-style principle that bad input is diagnosed, not
/// panicked over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing a file.
    Io { path: PathBuf, detail: String },
    /// The file does not start with the expected magic.
    BadMagic { path: PathBuf },
    /// The file was written by a different format version.
    VersionMismatch {
        path: PathBuf,
        found: u32,
        expected: u32,
    },
    /// The file was written under a different study configuration.
    ConfigMismatch {
        path: PathBuf,
        found: u64,
        expected: u64,
    },
    /// Truncated, checksum-mismatched, or undecodable payload.
    Corrupt { path: PathBuf, detail: String },
}

impl CheckpointError {
    pub(crate) fn io(path: &Path, err: std::io::Error) -> Self {
        CheckpointError::Io {
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

pub(crate) const REMEDY: &str = "delete the spill directory (--spill-dir) and rerun";

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "spill I/O error at {}: {detail}", path.display())
            }
            CheckpointError::BadMagic { path } => {
                write!(f, "{} has a bad magic; {REMEDY}", path.display())
            }
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} uses format v{found} but this binary writes v{expected}; {REMEDY}",
                path.display()
            ),
            CheckpointError::ConfigMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} was written under a different study configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x}); {REMEDY}",
                path.display()
            ),
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "{} is corrupt ({detail}); {REMEDY}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{read_segment, segment_path, write_segment, SEGMENT_VERSION};
    use crate::ArtifactError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_spill_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "offnet-checkpoint-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn version_and_config_mismatches_are_typed() {
        let dir = temp_spill_dir();
        let path = segment_path(&dir, 7, 0);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        write_segment(&path, 42, b"segment payload").unwrap();
        assert_eq!(read_segment(&path, 42).unwrap(), b"segment payload");

        // A different fingerprint rejects the segment before decoding.
        let err = read_segment(&path, 43).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::ConfigMismatch {
                    found: 42,
                    expected: 43,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        // ...and stays typed when surfaced as an artifact error.
        assert!(matches!(
            ArtifactError::from(err),
            ArtifactError::ConfigMismatch {
                found: 42,
                expected: 43,
                ..
            }
        ));

        // Patch the version field (before the checksummed payload).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_segment(&path, 42).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::VersionMismatch {
                    found: 99,
                    expected: SEGMENT_VERSION,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
