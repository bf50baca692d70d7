//! Compacted columnar snapshots.
//!
//! A snapshot is the full durable state at one WAL sequence number:
//! the dataset in the same column-major layout
//! [`hos_data::Dataset::to_column_major`] produces, the fitted model
//! (as [`hos_core::ModelFile`] text, whose `{:?}` float encoding
//! round-trips exactly), and the stream counters needed to resume
//! (`base`, `oldest`, `rows_consumed`).
//!
//! File layout (integers little-endian):
//!
//! ```text
//! "HOSSNAP1" | u32 version
//! u64 seq | u64 base | u64 oldest | u64 rows_consumed
//! u64 search_width | u64 n | u64 d
//! u32 meta_len | meta
//! u32 model_len | model          (0 = no model)
//! u32 names_blob_len | names     (0 = unnamed; names joined by '\n')
//! u8 has_dead | [(n+7)/8 bitmap]
//! zero padding to an 8-byte file offset
//! n·d f64, column-major (d blocks of n values, tombstones in place)
//! u32 crc32 of every preceding byte
//! ```
//!
//! The padding before the matrix is part of the version-1 layout and
//! stays so that existing data directories still open; readers skip
//! it. Snapshots are written to a temp file, fsynced, and renamed into
//! place — a crash mid-write leaves only a `.tmp` that recovery
//! ignores. [`Snapshot::open`] reads the whole file onto the heap and
//! checks its CRC before parsing any field.

use crate::wal::sync_dir;
use crate::{crc32_feed, Result, StorageError, CRC32_INIT};
use hos_data::Dataset;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"HOSSNAP1";
const VERSION: u32 = 1;
/// Magic, version and the seven `u64` counters that precede the
/// variable-length fields.
const FIXED_HEADER: usize = 8 + 4 + 7 * 8;
/// Sanity cap for variable-length header fields.
const MAX_FIELD: u32 = 16 << 20;

/// The canonical file name for the snapshot at sequence `seq`.
pub fn snap_file_name(seq: u64) -> String {
    format!("snap-{seq:016x}.col")
}

/// Parses a `snap-<seq:016x>.col` file name back to its sequence.
pub fn parse_snap_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".col")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Everything a snapshot records besides the matrix itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// WAL sequence this snapshot covers (replay skips records ≤ seq).
    pub seq: u64,
    /// Stream id offset: engine id 0 is global row `base`.
    pub base: u64,
    /// Next engine id the stream's FIFO retirement will evict.
    pub oldest: u64,
    /// Input rows consumed so far — lets a restarted `stream` skip
    /// rows it already processed.
    pub rows_consumed: u64,
    /// Reserved by the v1 layout; written as 0 and ignored on read
    /// (it held an approximate engine's search width, and neither
    /// remaining engine has one).
    pub search_width: u64,
    /// Physical rows (including tombstones) and dimensionality.
    pub n: usize,
    pub d: usize,
    /// Store configuration string (must match on open).
    pub meta: String,
    /// Fitted model as `ModelFile` text, if a fit has happened.
    pub model: Option<String>,
    /// Column names, if the dataset carried any.
    pub names: Option<Vec<String>>,
    /// Tombstone flags, one per physical row (empty = all live).
    pub dead: Vec<bool>,
}

/// Borrowed inputs for [`write_snapshot`].
pub struct SnapshotContents<'a> {
    pub seq: u64,
    pub base: u64,
    pub oldest: u64,
    pub rows_consumed: u64,
    pub search_width: u64,
    pub dataset: &'a Dataset,
    pub model: Option<&'a str>,
    pub meta: &'a str,
}

/// A file writer that maintains a running CRC over everything written.
struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
    written: u64,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: CRC32_INIT,
            written: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_all(bytes)?;
        self.crc = crc32_feed(self.crc, bytes);
        self.written += bytes.len() as u64;
        Ok(())
    }
}

/// Writes a snapshot atomically; returns its final path.
pub fn write_snapshot(dir: &Path, c: &SnapshotContents<'_>) -> Result<PathBuf> {
    let ds = c.dataset;
    let path = dir.join(snap_file_name(c.seq));
    let tmp = dir.join(format!("{}.tmp", snap_file_name(c.seq)));
    let file = File::create(&tmp)?;
    let mut w = CrcWriter::new(BufWriter::new(file));

    w.put(MAGIC)?;
    w.put(&VERSION.to_le_bytes())?;
    for v in [
        c.seq,
        c.base,
        c.oldest,
        c.rows_consumed,
        c.search_width,
        ds.len() as u64,
        ds.dim() as u64,
    ] {
        w.put(&v.to_le_bytes())?;
    }
    let put_blob = |w: &mut CrcWriter<_>, blob: &[u8]| -> Result<()> {
        w.put(&(blob.len() as u32).to_le_bytes())?;
        w.put(blob)
    };
    put_blob(&mut w, c.meta.as_bytes())?;
    put_blob(&mut w, c.model.unwrap_or("").as_bytes())?;
    let names_blob = ds.names().map(|ns| ns.join("\n")).unwrap_or_default();
    put_blob(&mut w, names_blob.as_bytes())?;

    let n = ds.len();
    if ds.dead_count() > 0 {
        w.put(&[1u8])?;
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for i in 0..n {
            if !ds.is_live(i) {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        w.put(&bitmap)?;
    } else {
        w.put(&[0u8])?;
    }

    // Pad so the matrix starts on an 8-byte file offset: the
    // version-1 layout fixes it, so every reader expects it.
    let pad = (8 - (w.written % 8) as usize) % 8;
    w.put(&[0u8; 7][..pad])?;

    // Column-major matrix. `to_column_major` allocates one n·d buffer
    // — the same footprint the engines already pay for fold kernels.
    let cols = ds.to_column_major();
    let mut buf = Vec::with_capacity(8 << 10);
    for chunk in cols.chunks(1 << 10) {
        buf.clear();
        for v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.put(&buf)?;
    }

    let crc = !w.crc;
    let mut inner = w.inner;
    inner.write_all(&crc.to_le_bytes())?;
    inner.flush()?;
    inner.get_ref().sync_all()?;
    drop(inner);
    std::fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(path)
}

/// An opened, validated snapshot: the file's bytes on the heap, with
/// the matrix decoded only when a dataset is materialised.
pub struct Snapshot {
    bytes: Vec<u8>,
    meta: SnapshotMeta,
    /// Byte offset of the column-major matrix within the file.
    data_offset: usize,
}

impl Snapshot {
    /// Reads and fully validates a snapshot file (header, bounds,
    /// checksum over the entire file). Any malformed file is a typed
    /// error, never a panic.
    pub fn open(path: &Path) -> Result<Snapshot> {
        let bytes = std::fs::read(path)?;
        let bad = |msg: &str| StorageError::BadHeader(format!("{}: {msg}", path.display()));
        if bytes.len() < FIXED_HEADER + 4 || &bytes[..8] != MAGIC {
            return Err(bad("not a hos-storage snapshot"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(bad(&format!("unsupported snapshot version {version}")));
        }
        // Whole-file checksum first: every later parse step can then
        // trust lengths it reads.
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crate::crc32(body) != stored {
            return Err(StorageError::Corrupt {
                what: "snapshot checksum",
                offset: bytes.len() as u64 - 4,
            });
        }

        let mut off = 12usize;
        let u64_at = |off: &mut usize| -> u64 {
            let v = u64::from_le_bytes(body[*off..*off + 8].try_into().unwrap());
            *off += 8;
            v
        };
        let seq = u64_at(&mut off);
        let base = u64_at(&mut off);
        let oldest = u64_at(&mut off);
        let rows_consumed = u64_at(&mut off);
        let search_width = u64_at(&mut off);
        let n = u64_at(&mut off) as usize;
        let d = u64_at(&mut off) as usize;

        let corrupt = |what: &'static str, offset: usize| StorageError::Corrupt {
            what,
            offset: offset as u64,
        };
        let blob_at = |off: &mut usize| -> Result<&[u8]> {
            if *off + 4 > body.len() {
                return Err(corrupt("snapshot field length", *off));
            }
            let len = u32::from_le_bytes(body[*off..*off + 4].try_into().unwrap());
            *off += 4;
            if len > MAX_FIELD || *off + len as usize > body.len() {
                return Err(corrupt("snapshot field bounds", *off));
            }
            let blob = &body[*off..*off + len as usize];
            *off += len as usize;
            Ok(blob)
        };
        let meta_s = String::from_utf8(blob_at(&mut off)?.to_vec())
            .map_err(|_| bad("snapshot meta is not utf-8"))?;
        let model_s = String::from_utf8(blob_at(&mut off)?.to_vec())
            .map_err(|_| bad("snapshot model is not utf-8"))?;
        let names_off = off;
        let names_s = String::from_utf8(blob_at(&mut off)?.to_vec())
            .map_err(|_| bad("snapshot names are not utf-8"))?;

        if off >= body.len() {
            return Err(corrupt("snapshot dead-bitmap flag", off));
        }
        let has_dead = body[off];
        off += 1;
        let mut dead = Vec::new();
        if has_dead == 1 {
            let blen = n.div_ceil(8);
            if off + blen > body.len() {
                return Err(corrupt("snapshot dead bitmap", off));
            }
            let bitmap = &body[off..off + blen];
            off += blen;
            dead = (0..n)
                .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
                .collect();
        } else if has_dead != 0 {
            return Err(corrupt("snapshot dead-bitmap flag", off - 1));
        }

        off += (8 - off % 8) % 8; // alignment padding
        let data_len = n
            .checked_mul(d)
            .and_then(|nd| nd.checked_mul(8))
            .ok_or_else(|| corrupt("snapshot matrix size", off))?;
        if off.checked_add(data_len) != Some(body.len()) {
            return Err(corrupt("snapshot matrix bounds", off));
        }

        let names = if names_s.is_empty() {
            None
        } else {
            let ns: Vec<String> = names_s.split('\n').map(str::to_string).collect();
            if ns.len() != d {
                return Err(corrupt("snapshot names arity", names_off));
            }
            Some(ns)
        };

        let meta = SnapshotMeta {
            seq,
            base,
            oldest,
            rows_consumed,
            search_width,
            n,
            d,
            meta: meta_s,
            model: if model_s.is_empty() {
                None
            } else {
                Some(model_s)
            },
            names,
            dead,
        };
        Ok(Snapshot {
            bytes,
            meta,
            data_offset: off,
        })
    }

    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Materialises the dataset exactly as it was written: row-major
    /// transpose, names re-attached, tombstones re-applied in place —
    /// ids are positional, so recovered engine ids match the original
    /// process bit-for-bit.
    pub fn to_dataset(&self) -> Result<Dataset> {
        let (n, d) = (self.meta.n, self.meta.d);
        let matrix = &self.bytes[self.data_offset..self.bytes.len() - 4];
        let mut flat = vec![0.0f64; n * d];
        // Value `c` of the column-major matrix is row `c % n` of
        // column `c / n`.
        for (c, v) in matrix.chunks_exact(8).enumerate() {
            flat[(c % n) * d + c / n] = f64::from_le_bytes(v.try_into().unwrap());
        }
        let mut ds = Dataset::from_flat(flat, d)?;
        if let Some(names) = &self.meta.names {
            ds = ds.with_names(names.clone())?;
        }
        for id in self.dead_ids() {
            ds.remove_row(id)?;
        }
        Ok(ds)
    }

    /// Ids of tombstoned rows, ascending.
    pub fn dead_ids(&self) -> Vec<usize> {
        self.meta
            .dead
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.then_some(i))
            .collect()
    }
}

/// Lists `(seq, path)` of all well-named snapshots in `dir`,
/// ascending. Temp files and foreign names are ignored.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snap_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hos-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_dataset() -> Dataset {
        let rows: Vec<f64> = (0..60).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut ds = Dataset::from_flat(rows, 3)
            .unwrap()
            .with_names(vec!["x".into(), "y".into(), "z".into()])
            .unwrap();
        ds.remove_row(2).unwrap();
        ds.remove_row(17).unwrap();
        ds
    }

    #[test]
    fn snapshot_roundtrips_dataset_bit_for_bit() {
        let dir = temp_dir("roundtrip");
        let ds = sample_dataset();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 42,
                base: 7,
                oldest: 3,
                rows_consumed: 27,
                search_width: 0,
                dataset: &ds,
                model: Some("hos-miner-model v1\nfake"),
                meta: "cfg=test",
            },
        )
        .unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snap_file_name(42)
        );
        let snap = Snapshot::open(&path).unwrap();
        let m = snap.meta();
        assert_eq!((m.seq, m.base, m.oldest, m.rows_consumed), (42, 7, 3, 27));
        assert_eq!((m.n, m.d), (20, 3));
        assert_eq!(m.meta, "cfg=test");
        assert_eq!(m.model.as_deref(), Some("hos-miner-model v1\nfake"));
        let back = snap.to_dataset().unwrap();
        assert_eq!(back, ds);
        // Bit-level check on the raw buffers, beyond PartialEq.
        let a: Vec<u64> = ds.as_flat().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = back.as_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert_eq!(back.names(), ds.names());
        assert_eq!(back.dead_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The version-1 bytes, spelled out field by field: existing data
    /// directories hold files in exactly this layout, padding included.
    #[test]
    fn version_1_layout_is_pinned() {
        let dir = temp_dir("layout");
        let ds = Dataset::from_flat(vec![1.5, -2.0, 0.25, 8.0], 2).unwrap();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 5,
                base: 1,
                oldest: 2,
                rows_consumed: 3,
                search_width: 4,
                dataset: &ds,
                model: None,
                meta: "m",
            },
        )
        .unwrap();
        let mut want = b"HOSSNAP1".to_vec();
        want.extend(1u32.to_le_bytes());
        for v in [5u64, 1, 2, 3, 4, 2, 2] {
            want.extend(v.to_le_bytes());
        }
        want.extend(1u32.to_le_bytes());
        want.push(b'm');
        want.extend(0u32.to_le_bytes()); // no model
        want.extend(0u32.to_le_bytes()); // no names
        want.push(0); // no tombstones
        assert_eq!(want.len(), 82);
        want.extend([0u8; 6]); // pad to offset 88
        for v in [1.5f64, 0.25, -2.0, 8.0] {
            want.extend(v.to_le_bytes());
        }
        want.extend(crate::crc32(&want).to_le_bytes());
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let back = Snapshot::open(&path).unwrap().to_dataset().unwrap();
        assert_eq!(back, ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Seals `body` with its CRC, writes it to `path` and opens it.
    fn open_sealed(path: &Path, mut body: Vec<u8>) -> Result<Snapshot> {
        let crc = crate::crc32(&body);
        body.extend(crc.to_le_bytes());
        std::fs::write(path, &body).unwrap();
        Snapshot::open(path)
    }

    #[test]
    fn short_header_with_valid_crc_is_bad_header() {
        let dir = temp_dir("short");
        let path = dir.join(snap_file_name(0));
        for len in 12..FIXED_HEADER {
            let mut body = MAGIC.to_vec();
            body.extend(VERSION.to_le_bytes());
            body.resize(len, 0);
            match open_sealed(&path, body) {
                Err(StorageError::BadHeader(_)) => {}
                other => panic!(
                    "body of {len} bytes: expected BadHeader, ok={}",
                    other.is_ok()
                ),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_arity_error_reports_the_field_offset() {
        let dir = temp_dir("arity");
        let ds = sample_dataset();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 1,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: 0,
                dataset: &ds,
                model: None,
                meta: "",
            },
        )
        .unwrap();
        let mut body = std::fs::read(&path).unwrap();
        body.truncate(body.len() - 4);
        // Names "x\ny\nz" start after the empty meta and model blobs;
        // renaming 'z' to '\n' gives four names for three columns.
        let names_off = FIXED_HEADER + 4 + 4;
        assert_eq!(&body[names_off + 4..names_off + 9], b"x\ny\nz");
        body[names_off + 8] = b'\n';
        match open_sealed(&path, body) {
            Err(StorageError::Corrupt { what, offset }) => {
                assert_eq!(what, "snapshot names arity");
                assert_eq!(offset, names_off as u64);
            }
            other => panic!("expected Corrupt, ok={}", other.is_ok()),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_typed_error() {
        let dir = temp_dir("corrupt");
        let ds = sample_dataset();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 9,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: 0,
                dataset: &ds,
                model: None,
                meta: "m",
            },
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match Snapshot::open(&path) {
            Err(StorageError::Corrupt { what, .. }) => assert!(what.contains("checksum")),
            other => panic!("expected Corrupt, got ok={}", other.is_ok()),
        }
        // Truncated file: typed error, not a panic.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(Snapshot::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_listing_ignores_foreign_files() {
        let dir = temp_dir("list");
        let ds = sample_dataset();
        for seq in [3u64, 1, 2] {
            write_snapshot(
                &dir,
                &SnapshotContents {
                    seq,
                    base: 0,
                    oldest: 0,
                    rows_consumed: 0,
                    search_width: 0,
                    dataset: &ds,
                    model: None,
                    meta: "",
                },
            )
            .unwrap();
        }
        std::fs::write(dir.join("snap-0000000000000009.col.tmp"), b"half").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        let listed = list_snapshots(&dir).unwrap();
        let seqs: Vec<u64> = listed.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dataset_snapshot_roundtrips() {
        let dir = temp_dir("empty");
        let ds = Dataset::from_flat(Vec::new(), 0).unwrap();
        let path = write_snapshot(
            &dir,
            &SnapshotContents {
                seq: 0,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: 0,
                dataset: &ds,
                model: None,
                meta: "m",
            },
        )
        .unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.meta().n, 0);
        assert_eq!(snap.to_dataset().unwrap(), ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    use proptest::prelude::*;

    /// The valid snapshot the byte soup is cut from, written once.
    fn soup_seed() -> &'static [u8] {
        static SEED: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        SEED.get_or_init(|| {
            let dir = temp_dir("soup-seed");
            let contents = SnapshotContents {
                seq: 3,
                base: 0,
                oldest: 0,
                rows_consumed: 0,
                search_width: 0,
                dataset: &sample_dataset(),
                model: Some("model"),
                meta: "m",
            };
            let bytes = std::fs::read(write_snapshot(&dir, &contents).unwrap()).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Byte soup with a correct trailing CRC: a prefix of a valid
        /// snapshot, random tail bytes and a few flipped bytes, sealed
        /// with the right checksum, opens to `Ok` or a typed error —
        /// never a panic.
        #[test]
        fn byte_soup_with_valid_crc_never_panics(
            keep in 0usize..640,
            tail in prop::collection::vec(0u8..=255, 0..96),
            flips in prop::collection::vec((0usize..1024, 1u8..=255), 0..4),
        ) {
            let mut body = soup_seed().to_vec();
            body.truncate(keep.min(body.len() - 4));
            body.extend(tail);
            for (at, x) in flips {
                if !body.is_empty() {
                    let i = at % body.len();
                    body[i] ^= x;
                }
            }
            let path = std::env::temp_dir().join(format!("hos-snap-soup-{}", std::process::id()));
            if let Ok(snap) = open_sealed(&path, body) {
                let _ = snap.to_dataset();
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
