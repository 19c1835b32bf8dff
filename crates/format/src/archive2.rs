//! Archive v2 — the zero-copy mmap weight container.
//!
//! The v1 [`crate::archive::ModelArchive`] ships the *encoded* streams:
//! loading it means bias-decoding every tensor and re-packing weight
//! panels — exactly the work a cold serving start pays per tensor.
//! Archive v2 stores each tensor's planes **exactly as the kernels
//! consume them**, so a load is pointer arithmetic over an mmapped file:
//!
//! * the [`crate::PackedOperands`] planes — `mag` (`u16` LE), `meta`
//!   (`u8`), the pre-shifted folded-significand `sval` (`i16` LE) — each
//!   at a 64-byte-aligned file offset (the mapping base is ≥ 64-byte
//!   aligned, so file-offset alignment carries into memory and the
//!   32-byte [`crate::plane::SVAL_PLANE_ALIGN`] contract holds);
//! * the K-major, [`crate::packed::PANEL_K_PAD`]-padded weight panels of
//!   [`crate::PackedPanels`], pre-packed on disk;
//! * the sorted outlier `(position, exp)` side tables;
//! * CRC32C digests: one per plane, plus per-[`crate::crc::SVAL_TILE`]
//!   tile tables over the `sval` and panel planes (the same granule
//!   `owlp-integrity` checks at), so corruption localises to a 512-byte
//!   tile.
//!
//! ## Byte layout
//!
//! ```text
//! header   "OWL2" | version u32 | reserved u64                  (16 B)
//! tensor*  mag | meta | sval | panels | outlier_pos | outlier_exp
//!          (each plane starts 64-byte aligned; gaps are zeros)
//! index    per tensor:
//!            name_len u16 | name | elements u64 | k u64 | n u64
//!            | shared_exp u8 | flags u8 | pad[6]
//!            | stored_outliers u64
//!            | 6 × { offset u64 | byte_len u64 | crc u32 | pad u32 }
//!            | sval_tile_count u32 | crc u32 ×count
//!            | panel_tile_count u32 | crc u32 ×count
//! footer   index_offset u64 | index_len u64 | file_len u64
//!          | tensor_count u32 | index_crc u32 | "2LWO"          (36 B)
//! ```
//!
//! All integers are little-endian. The footer sits at the end so the
//! writer streams strictly forward apart from the panel scatter writes.
//!
//! ## Bounded-memory streaming
//!
//! [`ArchiveWriter`] never materialises a whole tensor: it encodes
//! row-aligned chunks sized from a byte budget (`OWLP_STREAM_BUDGET`,
//! default 256 MiB), writes each chunk's plane slices at their
//! precomputed offsets, scatter-writes the panel stripes, and carries
//! only the (sparse) outlier tables and the streaming CRC state across
//! chunks. Chunked encoding against the tensor-wide exponent window is
//! bit-identical to whole-tensor encoding, which the round-trip tests
//! pin down. An [`AllocMeter`] tracks the transient working set so the
//! bench layer can gate on budget conformance.

use crate::bf16::Bf16;
use crate::crc::{crc32c_bytes, Crc32cHasher, SVAL_TILE};
use crate::error::FormatError;
use crate::mmap::MappedFile;
use crate::packed::{PackedOperands, PackedPanels, PANEL_K_PAD, PANEL_NR};
use crate::plane::{Plane, SvalPlane};
use crate::shared_exp::{best_window, exponent_counts};
use crate::NORMAL_WINDOW_WIDTH;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Header magic.
pub const ARCHIVE2_MAGIC: &[u8; 4] = b"OWL2";
/// Footer magic (the header magic reversed — a torn file fails both).
pub const ARCHIVE2_FOOTER_MAGIC: &[u8; 4] = b"2LWO";
/// Format version.
pub const ARCHIVE2_VERSION: u32 = 2;
/// Every plane starts at a multiple of this file offset.
pub const PLANE_ALIGN: u64 = 64;
/// Environment variable naming the streaming byte budget; accepts a
/// plain byte count or a `K`/`M`/`G` suffix (e.g. `64M`).
pub const STREAM_BUDGET_ENV: &str = "OWLP_STREAM_BUDGET";
/// Streaming budget when [`STREAM_BUDGET_ENV`] is unset: 256 MiB.
pub const DEFAULT_STREAM_BUDGET: usize = 256 << 20;

const HEADER_LEN: u64 = 16;
const FOOTER_LEN: usize = 36;
/// Conservative transient bytes per element the chunk sizing divides the
/// budget by (bf16 source + encoded codes + packed planes + LE staging +
/// panel stripes + parallel-decode temporaries).
const CHUNK_BYTES_PER_ELEM: usize = 24;
/// Metered transient estimate per chunk element actually charged.
const CHARGE_BYTES_PER_ELEM: usize = 20;

/// Errors from the archive v2 writer and loader.
#[derive(Debug)]
pub enum ArchiveError {
    /// An underlying file operation failed.
    Io(io::Error),
    /// The archive bytes are malformed (or a plane failed validation).
    Format(FormatError),
    /// A stored CRC32C digest did not match the bytes on disk.
    Digest {
        /// Tensor whose plane failed.
        tensor: String,
        /// Which plane (or tile table) failed.
        plane: &'static str,
    },
    /// The requested tensor is not in the archive.
    MissingTensor {
        /// The name looked up.
        name: String,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive i/o failed: {e}"),
            ArchiveError::Format(e) => write!(f, "{e}"),
            ArchiveError::Digest { tensor, plane } => {
                write!(f, "digest mismatch on tensor {tensor:?} plane {plane}")
            }
            ArchiveError::MissingTensor { name } => {
                write!(f, "tensor {name:?} is not in the archive")
            }
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            ArchiveError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<FormatError> for ArchiveError {
    fn from(e: FormatError) -> Self {
        ArchiveError::Format(e)
    }
}

/// Parses a byte budget with an optional `K`/`M`/`G` (binary) suffix.
pub fn parse_stream_budget(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, shift) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 10u32),
        b'm' | b'M' => (&t[..t.len() - 1], 20),
        b'g' | b'G' => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let v: usize = digits.trim().parse().ok()?;
    Some(v.checked_shl(shift).unwrap_or(usize::MAX))
}

/// The streaming budget from [`STREAM_BUDGET_ENV`], or
/// [`DEFAULT_STREAM_BUDGET`] when unset or unparseable.
pub fn stream_budget_from_env() -> usize {
    std::env::var(STREAM_BUDGET_ENV)
        .ok()
        .and_then(|s| parse_stream_budget(&s))
        .unwrap_or(DEFAULT_STREAM_BUDGET)
}

/// Tracks the writer's transient working set (current and peak bytes) so
/// budget conformance is measurable, not assumed.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllocMeter {
    cur: usize,
    peak: usize,
}

impl AllocMeter {
    fn charge(&mut self, bytes: usize) {
        self.cur += bytes;
        self.peak = self.peak.max(self.cur);
    }

    fn release(&mut self, bytes: usize) {
        self.cur = self.cur.saturating_sub(bytes);
    }

    /// Peak transient bytes observed.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// Streams plane bytes and closes a CRC tile every [`SVAL_TILE`] words
/// (512 bytes), the granule `owlp-integrity` localises faults at.
struct TileDigester {
    filled: usize,
    cur: Crc32cHasher,
    tiles: Vec<u32>,
}

impl TileDigester {
    fn new() -> Self {
        TileDigester {
            filled: 0,
            cur: Crc32cHasher::new(),
            tiles: Vec::new(),
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        let tile_bytes = SVAL_TILE * 2;
        while !bytes.is_empty() {
            let take = (tile_bytes - self.filled).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            self.cur.update(head);
            self.filled += take;
            if self.filled == tile_bytes {
                self.tiles.push(self.cur.finalize());
                self.cur = Crc32cHasher::new();
                self.filled = 0;
            }
            bytes = rest;
        }
    }

    fn finish(mut self) -> Vec<u32> {
        if self.filled > 0 {
            self.tiles.push(self.cur.finalize());
        }
        self.tiles
    }
}

/// One plane's location and whole-plane digest in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneDesc {
    /// Absolute file offset (64-byte aligned for non-empty planes).
    pub offset: u64,
    /// Plane length in bytes.
    pub byte_len: u64,
    /// CRC32C over the plane bytes.
    pub crc: u32,
}

const PLANE_NAMES: [&str; 6] = [
    "mag",
    "meta",
    "sval",
    "panels",
    "outlier_pos",
    "outlier_exp",
];

#[derive(Debug, Clone)]
struct TensorEntry {
    name: String,
    elements: u64,
    k: u64,
    n: u64,
    shared_exp: u8,
    flags: u8,
    stored_outliers: u64,
    planes: [PlaneDesc; 6],
    sval_tiles: Vec<u32>,
    panel_tiles: Vec<u32>,
}

const FLAG_HAS_PANELS: u8 = 1 << 0;

fn align_up(off: u64) -> u64 {
    off.next_multiple_of(PLANE_ALIGN)
}

fn le_bytes_u16(words: &[u16], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(words.len() * 2);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn le_bytes_i16(words: &[i16], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(words.len() * 2);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Summary the writer returns from [`ArchiveWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveSummary {
    /// Tensors written.
    pub tensors: usize,
    /// Final file length in bytes.
    pub file_len: u64,
    /// The streaming byte budget the writer sized its chunks from.
    pub budget: usize,
    /// Peak transient working-set bytes the writer observed.
    pub peak_alloc: usize,
}

/// Streaming archive v2 encoder: packs tensors of any size under a fixed
/// transient-memory budget (see the module docs).
///
/// The archive is written to `<path>.tmp` and renamed over `path` only by
/// [`ArchiveWriter::finish`], after an fsync. Re-packing a path therefore
/// never truncates a file that a live [`MappedArchive`] still maps: the
/// old inode outlives the map. A writer dropped before `finish` (or one
/// whose `finish` fails) removes its temporary file.
#[derive(Debug)]
pub struct ArchiveWriter {
    file: File,
    /// The archive's final name.
    path: PathBuf,
    /// The file being written; `None` once renamed into place.
    tmp: Option<PathBuf>,
    cursor: u64,
    entries: Vec<TensorEntry>,
    budget: usize,
    meter: AllocMeter,
}

impl ArchiveWriter {
    /// Starts an archive that [`ArchiveWriter::finish`] puts at `path`,
    /// with the budget from [`stream_budget_from_env`].
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn create(path: &Path) -> Result<Self, ArchiveError> {
        Self::with_budget(path, stream_budget_from_env())
    }

    /// [`ArchiveWriter::create`] with an explicit byte budget.
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn with_budget(path: &Path, budget: usize) -> Result<Self, ArchiveError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        // Built before the header write so a failed write drops the writer,
        // which removes the temporary file.
        let mut writer = ArchiveWriter {
            file,
            path: path.to_path_buf(),
            tmp: Some(tmp),
            cursor: HEADER_LEN,
            entries: Vec::new(),
            budget: budget.max(1),
            meter: AllocMeter::default(),
        };
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(ARCHIVE2_MAGIC);
        header[4..8].copy_from_slice(&ARCHIVE2_VERSION.to_le_bytes());
        writer.file.write_all(&header)?;
        Ok(writer)
    }

    /// The streaming byte budget in effect.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Peak transient working-set bytes observed so far.
    pub fn peak_alloc(&self) -> usize {
        self.meter.peak()
    }

    /// Rows per streaming chunk for an `n`-column tensor: the budget
    /// divided by the per-element transient cost, floored at one row
    /// (chunks must be row-aligned so panel stripes stay contiguous).
    fn chunk_rows(&self, n: usize) -> usize {
        let max_elems = (self.budget / CHUNK_BYTES_PER_ELEM).max(1);
        (max_elems / n.max(1)).max(1)
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)
    }

    /// Streams a `k×n` row-major tensor into the archive under `name`.
    /// `fill(range, out)` must replace `out`'s contents with elements
    /// `range` of the tensor; it is called with row-aligned, in-order,
    /// non-overlapping ranges — twice per range (window pass, then
    /// encode pass) — and must be deterministic.
    ///
    /// # Errors
    ///
    /// I/O failures, non-finite input ([`FormatError::NonFinite`]), a
    /// duplicate name, or a tensor too large for 32-bit element
    /// positions.
    pub fn add_tensor(
        &mut self,
        name: &str,
        k: usize,
        n: usize,
        fill: impl Fn(Range<usize>, &mut Vec<Bf16>),
    ) -> Result<(), ArchiveError> {
        if self.entries.iter().any(|e| e.name == name) {
            return Err(FormatError::CorruptStream {
                reason: "duplicate tensor name",
            }
            .into());
        }
        let elements = k * n;
        if elements > u32::MAX as usize {
            return Err(FormatError::CorruptStream {
                reason: "packed tensor too large",
            }
            .into());
        }
        let chunk_elems = self.chunk_rows(n) * n;
        let mut buf: Vec<Bf16> = Vec::new();
        self.meter.charge(chunk_elems.min(elements.max(1)) * 2);

        // Pass 1 — the tensor-wide exponent window, accumulated
        // histogram-by-chunk (identical to `select_window` on the whole
        // tensor: histogram addition is order-free).
        let mut hist = [0u64; 256];
        let mut start = 0usize;
        while start < elements {
            let end = (start + chunk_elems).min(elements);
            fill(start..end, &mut buf);
            let h = exponent_counts(&buf);
            for (acc, c) in hist.iter_mut().zip(h) {
                *acc += c;
            }
            start = end;
        }
        let window = best_window(&hist, NORMAL_WINDOW_WIDTH);

        // Precomputed plane offsets (the outlier tables land after the
        // fixed-size regions, at offsets known only once streamed).
        let mag_off = align_up(self.cursor);
        let meta_off = align_up(mag_off + 2 * elements as u64);
        let sval_off = align_up(meta_off + elements as u64);
        let kp = k.next_multiple_of(PANEL_K_PAD);
        let panel_words = n.div_ceil(PANEL_NR).max(1) * kp * PANEL_NR;
        let panels_off = align_up(sval_off + 2 * elements as u64);
        let after_panels = panels_off + 2 * panel_words as u64;

        // Pass 2 — encode, pack and scatter each row chunk.
        let mut mag_hash = Crc32cHasher::new();
        let mut meta_hash = Crc32cHasher::new();
        let mut sval_hash = Crc32cHasher::new();
        let mut sval_tiles = TileDigester::new();
        let mut stored_outliers = 0usize;
        let mut pos_acc: Vec<u32> = Vec::new();
        let mut exp_acc: Vec<u8> = Vec::new();
        let mut stage: Vec<u8> = Vec::new();
        let mut stripe: Vec<u8> = Vec::new();
        let mut start = 0usize;
        while start < elements {
            let end = (start + chunk_elems).min(elements);
            let len = end - start;
            self.meter.charge(len * CHARGE_BYTES_PER_ELEM);
            fill(start..end, &mut buf);
            let enc = crate::encode::encode_tensor(&buf, Some(window))?;
            let packed = enc.decode_packed();
            stored_outliers += enc.outlier_count();

            le_bytes_u16(packed.mags(), &mut stage);
            mag_hash.update(&stage);
            self.write_at(mag_off + 2 * start as u64, &stage)?;
            meta_hash.update(packed.metas());
            self.write_at(meta_off + start as u64, packed.metas())?;
            le_bytes_i16(packed.svals(), &mut stage);
            sval_hash.update(&stage);
            sval_tiles.update(&stage);
            self.write_at(sval_off + 2 * start as u64, &stage)?;

            // Panel stripes: rows r0..r1 of panel `pb` are contiguous at
            // `panels_off + (pb·kp + r0)·NR·2` — one write per panel per
            // chunk.
            let (r0, rows) = (start / n.max(1), len / n.max(1));
            let svals = packed.svals();
            for pb in 0..n.div_ceil(PANEL_NR) {
                let j0 = pb * PANEL_NR;
                stripe.clear();
                stripe.reserve(rows * PANEL_NR * 2);
                for kk in 0..rows {
                    for c in 0..PANEL_NR {
                        let v = if j0 + c < n {
                            svals[kk * n + j0 + c]
                        } else {
                            0
                        };
                        stripe.extend_from_slice(&v.to_le_bytes());
                    }
                }
                self.write_at(
                    panels_off + (pb * kp + r0) as u64 * PANEL_NR as u64 * 2,
                    &stripe,
                )?;
            }

            let before = pos_acc.len();
            pos_acc.extend(packed.outlier_positions().iter().map(|&p| p + start as u32));
            exp_acc.extend_from_slice(packed.outlier_exps());
            self.meter.charge((pos_acc.len() - before) * 5);
            self.meter.release(len * CHARGE_BYTES_PER_ELEM);
            start = end;
        }

        // The panel region's zero padding (depths `k..kp`, edge columns)
        // was never written: extend the file over it so the read-back
        // digest and the mapped views see those zeros even when no later
        // write lands past them.
        let phys = self.file.seek(SeekFrom::End(0))?;
        if phys < after_panels {
            self.file.set_len(after_panels)?;
        }

        // Outlier side tables, streamed last.
        let pos_off = align_up(after_panels);
        le_bytes_u32(&pos_acc, &mut stage);
        let pos_crc = crc32c_bytes(&stage);
        let pos_len = stage.len() as u64;
        self.write_at(pos_off, &stage)?;
        let exp_off = align_up(pos_off + pos_len);
        let exp_crc = crc32c_bytes(&exp_acc);
        self.write_at(exp_off, &exp_acc)?;
        self.cursor = exp_off + exp_acc.len() as u64;
        self.meter.release(pos_acc.len() * 5);
        self.meter.release(chunk_elems.min(elements.max(1)) * 2);

        // The panel plane was scatter-written: digest it with a bounded
        // read-back sweep (zero-fill holes — depths `k..kp` and edge
        // columns — were never written and read back as zeros).
        let (panel_crc, panel_tiles) = self.digest_region(panels_off, 2 * panel_words as u64)?;

        self.entries.push(TensorEntry {
            name: name.to_string(),
            elements: elements as u64,
            k: k as u64,
            n: n as u64,
            shared_exp: window.base(),
            flags: FLAG_HAS_PANELS,
            stored_outliers: stored_outliers as u64,
            planes: [
                PlaneDesc {
                    offset: mag_off,
                    byte_len: 2 * elements as u64,
                    crc: mag_hash.finalize(),
                },
                PlaneDesc {
                    offset: meta_off,
                    byte_len: elements as u64,
                    crc: meta_hash.finalize(),
                },
                PlaneDesc {
                    offset: sval_off,
                    byte_len: 2 * elements as u64,
                    crc: sval_hash.finalize(),
                },
                PlaneDesc {
                    offset: panels_off,
                    byte_len: 2 * panel_words as u64,
                    crc: panel_crc,
                },
                PlaneDesc {
                    offset: pos_off,
                    byte_len: pos_len,
                    crc: pos_crc,
                },
                PlaneDesc {
                    offset: exp_off,
                    byte_len: exp_acc.len() as u64,
                    crc: exp_crc,
                },
            ],
            sval_tiles: sval_tiles.finish(),
            panel_tiles,
        });
        Ok(())
    }

    /// [`ArchiveWriter::add_tensor`] over an in-memory slice.
    ///
    /// # Errors
    ///
    /// As [`ArchiveWriter::add_tensor`]; additionally
    /// [`FormatError::ShapeMismatch`] when `data` is not `k·n` long.
    pub fn add_tensor_slice(
        &mut self,
        name: &str,
        k: usize,
        n: usize,
        data: &[Bf16],
    ) -> Result<(), ArchiveError> {
        if data.len() != k * n {
            return Err(FormatError::ShapeMismatch {
                expected: k * n,
                actual: data.len(),
            }
            .into());
        }
        self.add_tensor(name, k, n, |r, out| {
            out.clear();
            out.extend_from_slice(&data[r]);
        })
    }

    /// Whole-plane CRC plus per-tile CRCs of an already-written file
    /// region, read back in budget-bounded sweeps.
    fn digest_region(&mut self, offset: u64, byte_len: u64) -> io::Result<(u32, Vec<u32>)> {
        let tile_bytes = SVAL_TILE * 2;
        let sweep = (self.budget / 4)
            .next_multiple_of(tile_bytes)
            .min(byte_len as usize)
            .max(tile_bytes);
        let mut read_buf = vec![0u8; sweep.min(byte_len as usize).max(1)];
        self.meter.charge(read_buf.len());
        let mut whole = Crc32cHasher::new();
        let mut tiles = TileDigester::new();
        let mut done = 0u64;
        self.file.seek(SeekFrom::Start(offset))?;
        while done < byte_len {
            let take = ((byte_len - done) as usize).min(read_buf.len());
            self.file.read_exact(&mut read_buf[..take])?;
            whole.update(&read_buf[..take]);
            tiles.update(&read_buf[..take]);
            done += take as u64;
        }
        self.meter.release(read_buf.len());
        Ok((whole.finalize(), tiles.finish()))
    }

    /// Writes the index and footer, syncs the file, and renames it over
    /// the target path.
    ///
    /// # Errors
    ///
    /// Propagates write/sync/rename failures (the temporary file is
    /// removed).
    pub fn finish(mut self) -> Result<ArchiveSummary, ArchiveError> {
        let mut index = Vec::new();
        for e in &self.entries {
            index.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            index.extend_from_slice(e.name.as_bytes());
            index.extend_from_slice(&e.elements.to_le_bytes());
            index.extend_from_slice(&e.k.to_le_bytes());
            index.extend_from_slice(&e.n.to_le_bytes());
            index.push(e.shared_exp);
            index.push(e.flags);
            index.extend_from_slice(&[0u8; 6]);
            index.extend_from_slice(&e.stored_outliers.to_le_bytes());
            for p in &e.planes {
                index.extend_from_slice(&p.offset.to_le_bytes());
                index.extend_from_slice(&p.byte_len.to_le_bytes());
                index.extend_from_slice(&p.crc.to_le_bytes());
                index.extend_from_slice(&0u32.to_le_bytes());
            }
            for table in [&e.sval_tiles, &e.panel_tiles] {
                index.extend_from_slice(&(table.len() as u32).to_le_bytes());
                for crc in table {
                    index.extend_from_slice(&crc.to_le_bytes());
                }
            }
        }
        self.meter.charge(index.len());
        let index_off = align_up(self.cursor);
        self.write_at(index_off, &index)?;
        let index_crc = crc32c_bytes(&index);
        let file_len = index_off + index.len() as u64 + FOOTER_LEN as u64;
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index.len() as u64).to_le_bytes());
        footer.extend_from_slice(&file_len.to_le_bytes());
        footer.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        footer.extend_from_slice(&index_crc.to_le_bytes());
        footer.extend_from_slice(ARCHIVE2_FOOTER_MAGIC);
        self.write_at(index_off + index.len() as u64, &footer)?;
        self.file.sync_all()?;
        if let Some(tmp) = &self.tmp {
            std::fs::rename(tmp, &self.path)?;
            self.tmp = None;
            // The rename itself is durable only once the directory is.
            #[cfg(unix)]
            {
                let dir = match self.path.parent() {
                    Some(d) if !d.as_os_str().is_empty() => d,
                    _ => Path::new("."),
                };
                File::open(dir)?.sync_all()?;
            }
        }
        self.meter.release(index.len());
        Ok(ArchiveSummary {
            tensors: self.entries.len(),
            file_len,
            budget: self.budget,
            peak_alloc: self.meter.peak(),
        })
    }
}

impl Drop for ArchiveWriter {
    fn drop(&mut self) {
        if let Some(tmp) = self.tmp.take() {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

fn le_bytes_u32(words: &[u32], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(words.len() * 4);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A loaded tensor borrowing its planes from the mapped archive (owned
/// decoded copies on big-endian targets — same API either way).
#[derive(Debug, Clone)]
pub struct MappedTensor {
    name: String,
    k: usize,
    n: usize,
    operands: PackedOperands,
    panels: Option<PackedPanels>,
}

impl MappedTensor {
    /// The tensor's archive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rows (reduction depth when used as a GEMM weight).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed operand planes.
    pub fn operands(&self) -> &PackedOperands {
        &self.operands
    }

    /// The pre-packed weight panels, when the archive stored them.
    pub fn panels(&self) -> Option<&PackedPanels> {
        self.panels.as_ref()
    }

    /// Decomposes into the operand planes and panels (the arith layer's
    /// `PreparedTensor::from_mapped` input).
    pub fn into_parts(self) -> (PackedOperands, Option<PackedPanels>) {
        (self.operands, self.panels)
    }

    /// Whether any plane is a zero-copy view into the mapped file.
    pub fn is_mapped(&self) -> bool {
        self.operands.is_mapped() || self.panels.as_ref().is_some_and(PackedPanels::is_mapped)
    }

    /// Reconstructs the tensor's BF16 values exactly.
    pub fn to_bf16_vec(&self) -> Vec<Bf16> {
        self.operands.to_bf16_vec()
    }
}

/// Per-tensor digest summary from [`MappedArchive::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Tensors scrubbed.
    pub tensors: usize,
    /// Whole-plane digests checked.
    pub planes: usize,
    /// 512-byte tile digests checked (sval + panel tables).
    pub tiles: usize,
}

/// A read-only archive v2, mmapped: opening validates only the header,
/// footer and index digest (O(index)); plane digests are verified per
/// tensor on [`MappedArchive::tensor`] or all at once by
/// [`MappedArchive::verify`].
#[derive(Debug)]
pub struct MappedArchive {
    file: Arc<MappedFile>,
    entries: Vec<TensorEntry>,
    by_name: BTreeMap<String, usize>,
}

impl MappedArchive {
    /// Maps and indexes the archive at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`FormatError::CorruptStream`] when the header,
    /// footer, index digest or index structure is malformed.
    pub fn open(path: &Path) -> Result<Self, ArchiveError> {
        let file = Arc::new(MappedFile::open(path)?);
        let bytes = file.bytes();
        let corrupt =
            |reason: &'static str| -> ArchiveError { FormatError::CorruptStream { reason }.into() };
        if bytes.len() < HEADER_LEN as usize + FOOTER_LEN {
            return Err(corrupt("archive shorter than header and footer"));
        }
        if &bytes[..4] != ARCHIVE2_MAGIC {
            return Err(corrupt("bad archive magic"));
        }
        if u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) != ARCHIVE2_VERSION {
            return Err(corrupt("unsupported archive version"));
        }
        let foot = &bytes[bytes.len() - FOOTER_LEN..];
        if &foot[32..36] != ARCHIVE2_FOOTER_MAGIC {
            return Err(corrupt("bad footer magic"));
        }
        let index_off = u64::from_le_bytes(foot[0..8].try_into().expect("8 bytes"));
        let index_len = u64::from_le_bytes(foot[8..16].try_into().expect("8 bytes"));
        let file_len = u64::from_le_bytes(foot[16..24].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(foot[24..28].try_into().expect("4 bytes")) as usize;
        let index_crc = u32::from_le_bytes(foot[28..32].try_into().expect("4 bytes"));
        if file_len != bytes.len() as u64 {
            return Err(corrupt("archive truncated or extended"));
        }
        let index_end = index_off
            .checked_add(index_len)
            .filter(|&e| e + FOOTER_LEN as u64 == file_len)
            .ok_or_else(|| corrupt("index does not abut the footer"))?;
        let index = &bytes[index_off as usize..index_end as usize];
        if crc32c_bytes(index) != index_crc {
            return Err(corrupt("index digest mismatch"));
        }
        let entries = parse_index(index, count, file_len)?;
        let mut by_name = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            if by_name.insert(e.name.clone(), i).is_some() {
                return Err(corrupt("duplicate tensor name"));
            }
        }
        Ok(MappedArchive {
            file,
            entries,
            by_name,
        })
    }

    /// Tensor names in archive (insertion) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Archive file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file.len() as u64
    }

    /// Whether the bytes are served by a real `mmap` (vs the aligned
    /// heap-read fallback).
    pub fn was_mapped(&self) -> bool {
        self.file.was_mapped()
    }

    /// `(k, n)` of tensor `name`, if present.
    pub fn shape(&self, name: &str) -> Option<(usize, usize)> {
        self.entry(name).ok().map(|e| (e.k as usize, e.n as usize))
    }

    fn entry(&self, name: &str) -> Result<&TensorEntry, ArchiveError> {
        let &i = self
            .by_name
            .get(name)
            .ok_or_else(|| ArchiveError::MissingTensor {
                name: name.to_string(),
            })?;
        Ok(&self.entries[i])
    }

    /// Loads `name` after verifying each plane's whole-plane CRC32C
    /// digest against the mapped bytes — the default integrity posture.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MissingTensor`], [`ArchiveError::Digest`], or
    /// plane-validation failures.
    pub fn tensor(&self, name: &str) -> Result<MappedTensor, ArchiveError> {
        let e = self.entry(name)?;
        for (p, plane_name) in e.planes.iter().zip(PLANE_NAMES) {
            let bytes = self.plane_bytes(p);
            if crc32c_bytes(bytes) != p.crc {
                return Err(ArchiveError::Digest {
                    tensor: e.name.clone(),
                    plane: plane_name,
                });
            }
        }
        self.build_tensor(e)
    }

    /// Loads `name` without digest verification — pure pointer work, for
    /// callers that scrub separately (or measure cold-load floors).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::MissingTensor`] or plane-validation failures.
    pub fn tensor_unverified(&self, name: &str) -> Result<MappedTensor, ArchiveError> {
        self.build_tensor(self.entry(name)?)
    }

    /// Scrubs every tensor: whole-plane digests plus the per-tile tables
    /// over the `sval` and panel planes.
    ///
    /// # Errors
    ///
    /// The first [`ArchiveError::Digest`] mismatch found.
    pub fn verify(&self) -> Result<VerifyReport, ArchiveError> {
        let mut report = VerifyReport::default();
        for e in &self.entries {
            for (p, plane_name) in e.planes.iter().zip(PLANE_NAMES) {
                if crc32c_bytes(self.plane_bytes(p)) != p.crc {
                    return Err(ArchiveError::Digest {
                        tensor: e.name.clone(),
                        plane: plane_name,
                    });
                }
                report.planes += 1;
            }
            for (desc, table, plane_name) in [
                (&e.planes[2], &e.sval_tiles, "sval tiles"),
                (&e.planes[3], &e.panel_tiles, "panel tiles"),
            ] {
                let bytes = self.plane_bytes(desc);
                let tile_bytes = SVAL_TILE * 2;
                if table.len() != bytes.len().div_ceil(tile_bytes) {
                    return Err(ArchiveError::Digest {
                        tensor: e.name.clone(),
                        plane: plane_name,
                    });
                }
                for (i, chunk) in bytes.chunks(tile_bytes).enumerate() {
                    if crc32c_bytes(chunk) != table[i] {
                        return Err(ArchiveError::Digest {
                            tensor: e.name.clone(),
                            plane: plane_name,
                        });
                    }
                    report.tiles += 1;
                }
            }
            report.tensors += 1;
        }
        Ok(report)
    }

    fn plane_bytes(&self, p: &PlaneDesc) -> &[u8] {
        &self.file.bytes()[p.offset as usize..(p.offset + p.byte_len) as usize]
    }

    fn build_tensor(&self, e: &TensorEntry) -> Result<MappedTensor, ArchiveError> {
        let elements = e.elements as usize;
        let tagged = (e.planes[4].byte_len / 4) as usize;
        let mag = Plane::<u16>::from_mapped(&self.file, e.planes[0].offset as usize, elements)?;
        let meta = Plane::<u8>::from_mapped(&self.file, e.planes[1].offset as usize, elements)?;
        let sval = SvalPlane::from_mapped(&self.file, e.planes[2].offset as usize, elements)?;
        let pos = Plane::<u32>::from_mapped(&self.file, e.planes[4].offset as usize, tagged)?;
        let exp = Plane::<u8>::from_mapped(&self.file, e.planes[5].offset as usize, tagged)?;
        let operands = PackedOperands::from_planes(
            e.shared_exp,
            e.stored_outliers as usize,
            mag,
            meta,
            sval,
            pos,
            exp,
        )?;
        let panels = if e.flags & FLAG_HAS_PANELS != 0 {
            let words = (e.planes[3].byte_len / 2) as usize;
            let plane = SvalPlane::from_mapped(&self.file, e.planes[3].offset as usize, words)?;
            Some(PackedPanels::from_plane(e.k as usize, e.n as usize, plane)?)
        } else {
            None
        };
        Ok(MappedTensor {
            name: e.name.clone(),
            k: e.k as usize,
            n: e.n as usize,
            operands,
            panels,
        })
    }
}

fn parse_index(
    index: &[u8],
    count: usize,
    file_len: u64,
) -> Result<Vec<TensorEntry>, ArchiveError> {
    fn take<'a>(index: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], ArchiveError> {
        let end = pos.checked_add(len).filter(|&e| e <= index.len()).ok_or(
            FormatError::CorruptStream {
                reason: "index entry extends past index end",
            },
        )?;
        let s = &index[*pos..end];
        *pos = end;
        Ok(s)
    }
    let corrupt =
        |reason: &'static str| -> ArchiveError { FormatError::CorruptStream { reason }.into() };
    let mut pos = 0usize;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len =
            u16::from_le_bytes(take(index, &mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(take(index, &mut pos, name_len)?)
            .map_err(|_| corrupt("tensor name is not utf-8"))?
            .to_string();
        let elements = u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        let k = u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        let n = u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        let head = take(index, &mut pos, 8)?;
        let (shared_exp, flags) = (head[0], head[1]);
        let stored_outliers =
            u64::from_le_bytes(take(index, &mut pos, 8)?.try_into().expect("8 bytes"));
        if k.checked_mul(n) != Some(elements) || elements > u32::MAX as u64 {
            return Err(corrupt("tensor shape disagrees with element count"));
        }
        let mut planes = [PlaneDesc {
            offset: 0,
            byte_len: 0,
            crc: 0,
        }; 6];
        for p in &mut planes {
            let d = take(index, &mut pos, 24)?;
            p.offset = u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"));
            p.byte_len = u64::from_le_bytes(d[8..16].try_into().expect("8 bytes"));
            p.crc = u32::from_le_bytes(d[16..20].try_into().expect("4 bytes"));
            let end = p
                .offset
                .checked_add(p.byte_len)
                .ok_or_else(|| corrupt("plane range overflows"))?;
            if end > file_len {
                return Err(corrupt("plane extends past end of file"));
            }
        }
        if planes[4].byte_len % 4 != 0 || planes[4].byte_len / 4 != planes[5].byte_len {
            return Err(corrupt("outlier side tables disagree in length"));
        }
        let mut tables = [Vec::new(), Vec::new()];
        for table in &mut tables {
            let tile_count =
                u32::from_le_bytes(take(index, &mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            table.reserve(tile_count);
            for _ in 0..tile_count {
                table.push(u32::from_le_bytes(
                    take(index, &mut pos, 4)?.try_into().expect("4 bytes"),
                ));
            }
        }
        let [sval_tiles, panel_tiles] = tables;
        entries.push(TensorEntry {
            name,
            elements,
            k,
            n,
            shared_exp,
            flags,
            stored_outliers,
            planes,
            sval_tiles,
            panel_tiles,
        });
    }
    if pos != index.len() {
        return Err(corrupt("trailing bytes after last index entry"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_tensor;

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    fn mixed(len: usize) -> Vec<Bf16> {
        (0..len)
            .map(|i| {
                let v = ((i % 37) as f32 - 18.0) * 0.11;
                match i % 23 {
                    0 => bf(v * 1e26),
                    1 => Bf16::ZERO,
                    _ => bf(v),
                }
            })
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "owlp-archive2-test-{}-{name}.owl2",
            std::process::id()
        ));
        p
    }

    fn write_archive(
        path: &Path,
        budget: usize,
        tensors: &[(&str, usize, usize)],
    ) -> ArchiveSummary {
        let mut w = ArchiveWriter::with_budget(path, budget).unwrap();
        for &(name, k, n) in tensors {
            let data = mixed(k * n);
            w.add_tensor_slice(name, k, n, &data).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical_to_the_in_memory_path() {
        let path = temp_path("roundtrip");
        // Shapes with panel edge (NR ∤ n), tile remainders, several chunks
        // under a tiny budget.
        let shapes = [("a", 13usize, 11usize), ("b", 64, 32), ("c", 7, 130)];
        let summary = write_archive(&path, 16 << 10, &shapes);
        assert_eq!(summary.tensors, 3);
        let ar = MappedArchive::open(&path).unwrap();
        assert_eq!(ar.len(), 3);
        for &(name, k, n) in &shapes {
            let data = mixed(k * n);
            let enc = encode_tensor(&data, None).unwrap();
            let expect = enc.decode_packed();
            let t = ar.tensor(name).unwrap();
            assert_eq!(t.k(), k);
            assert_eq!(t.n(), n);
            assert_eq!(t.operands(), &expect, "{name}: operand planes");
            assert_eq!(
                t.operands().stored_outlier_count(),
                enc.outlier_count(),
                "{name}: stored outliers"
            );
            assert_eq!(
                t.panels().unwrap(),
                &expect.pack_panels(k, n),
                "{name}: panels"
            );
            assert_eq!(t.to_bf16_vec(), data, "{name}: lossless");
            if cfg!(all(
                unix,
                target_pointer_width = "64",
                target_endian = "little"
            )) {
                assert!(t.is_mapped(), "{name}: expected zero-copy planes");
            }
        }
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_streaming_matches_one_chunk_exactly() {
        // The same tensor written under a budget forcing many chunks and
        // one large enough for a single chunk must produce byte-identical
        // plane contents (the index differs only in nothing — compare the
        // loaded tensors).
        let (k, n) = (37, 19);
        let data = mixed(k * n);
        let small = temp_path("chunked-small");
        let big = temp_path("chunked-big");
        for (path, budget) in [(&small, 2 << 10), (&big, 64 << 20)] {
            let mut w = ArchiveWriter::with_budget(path, budget).unwrap();
            w.add_tensor_slice("w", k, n, &data).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(
            std::fs::read(&small).unwrap(),
            std::fs::read(&big).unwrap(),
            "streaming chunk size must not leak into the bytes"
        );
        std::fs::remove_file(&small).unwrap();
        std::fs::remove_file(&big).unwrap();
    }

    #[test]
    fn peak_alloc_stays_within_the_budget() {
        let path = temp_path("budget");
        let budget = 64 << 10;
        let summary = write_archive(&path, budget, &[("w", 200, 96)]);
        assert!(
            summary.peak_alloc <= budget,
            "peak {} exceeds budget {budget}",
            summary.peak_alloc
        );
        assert_eq!(summary.budget, budget);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_scrubs_and_detects_plane_corruption() {
        let path = temp_path("scrub");
        write_archive(&path, 8 << 10, &[("w", 40, 24)]);
        let ar = MappedArchive::open(&path).unwrap();
        let report = ar.verify().unwrap();
        assert_eq!(report.tensors, 1);
        assert_eq!(report.planes, 6);
        assert!(report.tiles > 0);
        // Corrupt one sval byte on disk: open still succeeds (index is
        // clean), the digested load and the scrub both refuse.
        let entry_off = ar.entries[0].planes[2].offset as usize;
        drop(ar);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[entry_off + 7] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let ar = MappedArchive::open(&path).unwrap();
        assert!(matches!(
            ar.tensor("w"),
            Err(ArchiveError::Digest { plane: "sval", .. })
        ));
        assert!(ar.verify().is_err());
        // The unverified path still loads (caller opted out of the check).
        assert!(ar.tensor_unverified("w").is_ok());
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_malformed_archives_are_rejected() {
        let path = temp_path("torn");
        write_archive(&path, 8 << 10, &[("w", 16, 16)]);
        let bytes = std::fs::read(&path).unwrap();
        let truncated = temp_path("torn-cut");
        std::fs::write(&truncated, &bytes[..bytes.len() - 10]).unwrap();
        assert!(MappedArchive::open(&truncated).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        std::fs::write(&truncated, &bad_magic).unwrap();
        assert!(MappedArchive::open(&truncated).is_err());
        // A flipped index byte breaks the index digest.
        let mut bad_index = bytes.clone();
        let idx = bad_index.len() - FOOTER_LEN - 4;
        bad_index[idx] ^= 1;
        std::fs::write(&truncated, &bad_index).unwrap();
        assert!(MappedArchive::open(&truncated).is_err());
        std::fs::remove_file(&truncated).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_and_duplicate_tensors_error() {
        let path = temp_path("names");
        let mut w = ArchiveWriter::with_budget(&path, 8 << 10).unwrap();
        w.add_tensor_slice("w", 4, 4, &mixed(16)).unwrap();
        assert!(w.add_tensor_slice("w", 4, 4, &mixed(16)).is_err());
        w.finish().unwrap();
        let ar = MappedArchive::open(&path).unwrap();
        assert!(matches!(
            ar.tensor("nope"),
            Err(ArchiveError::MissingTensor { .. })
        ));
        assert_eq!(ar.names().collect::<Vec<_>>(), ["w"]);
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_archive_roundtrips() {
        let path = temp_path("empty");
        let summary = write_archive(&path, 8 << 10, &[]);
        assert_eq!(summary.tensors, 0);
        let ar = MappedArchive::open(&path).unwrap();
        assert!(ar.is_empty());
        assert_eq!(ar.verify().unwrap(), VerifyReport::default());
        drop(ar);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repacking_a_live_mapped_path_leaves_the_old_map_intact() {
        let path = temp_path("repack-live");
        write_archive(&path, 8 << 10, &[("w", 40, 24)]);
        let old = MappedArchive::open(&path).unwrap();
        let before = old.file.bytes().to_vec();
        // Re-pack the same path with different contents while the old
        // map is live: the old inode must survive untouched.
        write_archive(&path, 8 << 10, &[("w", 64, 32), ("v", 8, 8)]);
        assert_eq!(old.file.bytes(), before.as_slice(), "old map changed");
        assert!(old.verify().is_ok());
        assert_eq!(old.tensor("w").unwrap().to_bf16_vec(), mixed(40 * 24));
        let new = MappedArchive::open(&path).unwrap();
        assert_eq!(new.len(), 2);
        assert_eq!(new.tensor("w").unwrap().k(), 64);
        // An abandoned writer leaves neither a temporary file nor a change
        // to the finished archive.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut w = ArchiveWriter::with_budget(&path, 8 << 10).unwrap();
        w.add_tensor_slice("x", 4, 4, &mixed(16)).unwrap();
        assert!(std::path::Path::new(&tmp).exists());
        drop(w);
        assert!(!std::path::Path::new(&tmp).exists());
        assert_eq!(MappedArchive::open(&path).unwrap().len(), 2);
        drop((old, new));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn budget_parsing_accepts_suffixes() {
        assert_eq!(parse_stream_budget("1024"), Some(1024));
        assert_eq!(parse_stream_budget("64K"), Some(64 << 10));
        assert_eq!(parse_stream_budget(" 8m "), Some(8 << 20));
        assert_eq!(parse_stream_budget("2G"), Some(2 << 30));
        assert_eq!(parse_stream_budget("x"), None);
        assert_eq!(parse_stream_budget(""), None);
    }

    #[test]
    fn mapped_planes_share_the_file_not_copies() {
        let path = temp_path("zero-copy");
        write_archive(&path, 8 << 10, &[("w", 32, 16)]);
        let ar = MappedArchive::open(&path).unwrap();
        let t = ar.tensor_unverified("w").unwrap();
        if cfg!(all(
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        )) {
            let base = ar.file.bytes().as_ptr() as usize;
            let end = base + ar.file.len();
            for ptr in [
                t.operands().svals().as_ptr() as usize,
                t.operands().mags().as_ptr() as usize,
                t.panels().unwrap().data().as_ptr() as usize,
            ] {
                assert!((base..end).contains(&ptr), "plane must point into the map");
            }
            assert_eq!(t.operands().svals().as_ptr() as usize % 32, 0);
            assert_eq!(t.panels().unwrap().data().as_ptr() as usize % 32, 0);
        }
        drop((t, ar));
        std::fs::remove_file(&path).unwrap();
    }
}
