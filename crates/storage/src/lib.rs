//! Durable storage tier: an append-only write-ahead log plus compacted
//! columnar snapshots (DESIGN.md §12).
//!
//! The streaming seam (PR 3) and the resident server (PR 7) keep all
//! state in RAM and lose it on restart. This crate adds the missing
//! checkpoint/replay discipline:
//!
//! * [`wal`] — length-prefixed, CRC-checksummed records for the
//!   mutation ops (`insert`/`retire`/`compact`/…), appended by the
//!   single-writer path with batched `fsync`. Reading tolerates a torn
//!   final record (a crash mid-append) by truncating it; a corrupt
//!   record **followed by valid data** is a typed
//!   [`StorageError::Corrupt`], never a panic.
//! * [`snapshot`] — periodic compacted column-major snapshots of the
//!   live dataset (the layout [`hos_data::Dataset::to_column_major`]
//!   already defines), written atomically (temp + rename) with the
//!   fitted model embedded. Opening one reads the file onto the heap
//!   and checks its CRC; the matrix is decoded into a dataset only
//!   when recovery asks for it. The padding that 8-byte-aligns the
//!   matrix stays in the format only so existing snapshots still open.
//! * [`store`] — the orchestration: open a directory, recover
//!   (latest valid snapshot + WAL tail replay, skipping records the
//!   snapshot already covers), append, and rotate the WAL under a new
//!   snapshot.
//!
//! The correctness contract is differential: a process killed at an
//! arbitrary WAL offset, restarted, and re-queried answers
//! bit-identically (f64 `to_bits`, ids, eval counts) to a twin that
//! never crashed — pinned by `tests/crash_oracle.rs` and the CLI-level
//! SIGKILL test.

pub mod recover;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use recover::{
    config_fingerprint, miner_from_snapshot, recover_miner, snapshot_miner, snapshot_search_width,
    Folded,
};
pub use snapshot::{Snapshot, SnapshotMeta};
pub use store::{Recovery, Store, StoreConfig};
pub use wal::Op;

use std::fmt;

/// Errors produced by the storage tier. Corruption is always a typed
/// error — the recovery path never panics on hostile bytes.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record or snapshot failed validation at a known byte offset.
    Corrupt {
        /// Which structure failed (e.g. "wal record checksum").
        what: &'static str,
        /// Byte offset of the failure within the file.
        offset: u64,
    },
    /// A file header did not identify a structure this crate wrote.
    BadHeader(String),
    /// The store was written under a different configuration than the
    /// one now opening it (replay would silently diverge).
    MetaMismatch {
        /// Configuration the caller expects.
        expected: String,
        /// Configuration recorded in the store.
        found: String,
    },
    /// Rebuilding a dataset from recovered bytes failed validation.
    Data(hos_data::DataError),
    /// Rebuilding the miner from recovered parts failed (model parse,
    /// engine assembly).
    Model(hos_core::HosError),
    /// A WAL tail holds a streaming op (`compact`, `reestimate`,
    /// `bootstrap`), which only `hos-miner stream --wal` can replay.
    StreamingOp {
        /// Sequence number of the op.
        seq: u64,
        /// The op's [`Op::name`].
        op: &'static str,
    },
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt { what, offset } => {
                write!(f, "corrupt {what} at byte {offset}")
            }
            StorageError::BadHeader(msg) => write!(f, "bad storage header: {msg}"),
            StorageError::MetaMismatch { expected, found } => write!(
                f,
                "store configuration mismatch: opened with {expected:?}, written with {found:?}"
            ),
            StorageError::Data(e) => write!(f, "recovered data invalid: {e}"),
            StorageError::Model(e) => write!(f, "recovered model invalid: {e}"),
            StorageError::StreamingOp { seq, op } => write!(
                f,
                "the WAL tail has a streaming `{op}` op at seq {seq}; \
                 recover the directory with `hos-miner stream --wal DIR` first"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Data(e) => Some(e),
            StorageError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<hos_data::DataError> for StorageError {
    fn from(e: hos_data::DataError) -> Self {
        StorageError::Data(e)
    }
}

/// CRC-32 (IEEE 802.3), table-driven. The table is built at compile
/// time; no dependency needed for a 40-line checksum.
pub(crate) const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

pub(crate) static CRC32_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC-32 state: feed chunks, then finalise. Lets the
/// snapshot writer checksum without buffering the whole file.
pub(crate) fn crc32_feed(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC32_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

pub(crate) const CRC32_INIT: u32 = !0u32;

/// CRC-32 of a byte slice (IEEE polynomial, standard init/final xor).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_feed(CRC32_INIT, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitivity: one flipped bit changes the checksum.
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }

    #[test]
    fn errors_display_and_source() {
        let cases = vec![
            StorageError::Io(std::io::Error::other("boom")),
            StorageError::Corrupt {
                what: "wal record checksum",
                offset: 42,
            },
            StorageError::BadHeader("nope".into()),
            StorageError::MetaMismatch {
                expected: "a".into(),
                found: "b".into(),
            },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
        use std::error::Error;
        let io: StorageError = std::io::Error::other("x").into();
        assert!(io.source().is_some());
    }
}
