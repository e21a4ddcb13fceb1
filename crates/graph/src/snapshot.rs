//! Versioned binary graph snapshots.
//!
//! Rebuilding a million-node stand-in network costs tens of seconds of
//! generator time per process; a snapshot load is a handful of bulk
//! reads. This module defines the on-disk format and the typed errors a
//! loader needs to reject foreign, corrupt, or future files without
//! panicking.
//!
//! ## Byte layout (version 2)
//!
//! All integers are **little-endian**; offsets are stored as `u64`
//! regardless of the host's `usize`. Every section is zero-padded to a
//! **16-byte boundary** and the header records each section's byte
//! offset (relative to the payload start at byte 152, itself 8-byte
//! aligned in the file), so a loader can verify the checksum and then
//! *pointer-cast* section views straight out of one mapped or owned
//! aligned buffer — the zero-copy load path ([`load_snapshot`]).
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"UICGSNP1"
//! 8       4     format version (u32, currently 2)
//! 12      8     checksum of every byte that follows (4-lane 64-bit
//!               multiply-xor word fold, see the module source)
//! 20      4     weight representation tag (0 per-edge, 1 in-degree,
//!               2 constant)
//! 24      4     constant probability bits (f32; 0 unless tag = 2)
//! 28      4     n = node count (u32)
//! 32      8     m = edge count (u64)
//! 40      7×8   section byte lengths (u64 each), unpadded
//! 96      7×8   section byte offsets (u64 each) relative to byte 152;
//!               offset[i+1] = offset[i] + pad16(length[i])
//! 152     …     sections, each zero-padded to 16 bytes:
//!               out_off  (n+1) × u64     forward CSR offsets
//!               out_to   m × u32         forward CSR targets
//!               in_off   (n+1) × u64     reverse CSR offsets
//!               in_from  m × u32         reverse CSR sources
//!               in_eid   m × u32         reverse slot → out-edge id
//!               out_p    m × f32         only when tag = 0, else empty
//!               in_p     m × f32         only when tag = 0, else empty
//! ```
//!
//! ## Versioning policy
//!
//! The version is bumped whenever the header or section layout changes.
//! This reader knows exactly one version and rejects every other one,
//! older ones included, with [`SnapshotError::UnsupportedVersion`]
//! rather than guessing. Snapshots are regenerable cache entries, so
//! the dataset cache treats such a file as a miss and rebuilds it. The
//! checksum covers everything after itself (padding included), so a
//! single flipped bit anywhere in the file surfaces as a typed error
//! ([`SnapshotError::ChecksumMismatch`]) instead of a corrupt graph.
//! Section lengths and offsets are validated against `n`, `m`, and the
//! weight tag **before** any section is interpreted (so corrupt counts
//! can never drive an absurd allocation, and a misaligned offset table
//! can never reach a pointer cast), and truncated or resized files fail
//! with [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`].
//! The zero-copy loader's verify is one fused cache-blocked pass:
//! checksum lanes and the structural aggregates (offset monotonicity,
//! id ranges, probability unit-range) are folded per 256 KB block while
//! it is L2-resident, then the only "decode" is casting section views.

use crate::graph::{EdgeWeights, Graph};
use crate::storage::{SectionStorage, SnapshotBuf};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"UICGSNP1";
/// The one format version this module reads and writes.
pub const FORMAT_VERSION: u32 = 2;

const TAG_PER_EDGE: u32 = 0;
const TAG_IN_DEGREE: u32 = 1;
const TAG_CONSTANT: u32 = 2;
const NUM_SECTIONS: usize = 7;

/// Typed snapshot load failures.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file declares a format version this reader does not know.
    UnsupportedVersion(u32),
    /// The stream ended before the declared sections were read.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// Stored and recomputed checksums disagree.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// Internally inconsistent header or section contents.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a uic graph snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader knows version {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated snapshot: expected {expected} payload bytes, got {got}"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The integrity (not cryptographic) checksum of the format: a 64-bit
/// multiply-xor word fold (FxHash-style) over **four** independent
/// lanes consuming 32 bytes per round. The odd-multiplier bijections
/// propagate every single-bit flip into the final value, and four lanes
/// keep the serial multiply chains from capping throughput, which
/// matters because the zero-copy load's wall-clock *is* essentially
/// this hash (there is no decode left to hide it behind).
///
/// Run boundaries are part of the definition: writer and reader feed
/// the header tail, then each **padded** section as one run. Padded
/// runs are multiples of 16 bytes, so at most one 16-byte remainder
/// reaches `fold_tail` per run.
#[derive(Clone, Copy)]
struct SnapshotHash([u64; 4]);

impl SnapshotHash {
    const MULS: [u64; 4] = [
        0x517c_c1b7_2722_0a95,
        0x2545_f491_4f6c_dd1d,
        0x9e6c_63d0_985b_4c63,
        0xff51_afd7_ed55_8ccd,
    ];

    fn new() -> Self {
        SnapshotHash([
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x6a09_e667_f3bc_c909,
            0xbb67_ae85_84ca_a73b,
        ])
    }

    /// Folds one 32-byte round, one word per lane. All multipliers are
    /// odd (bijective), so any flipped bit survives into
    /// [`SnapshotHash::finish`].
    #[inline]
    fn fold32(&mut self, c: &[u8; 32]) {
        const ROTS: [u32; 4] = [5, 7, 11, 13];
        for i in 0..4 {
            let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("chunk of 8"));
            self.0[i] = (self.0[i].rotate_left(ROTS[i]) ^ w).wrapping_mul(Self::MULS[i]);
        }
    }

    /// Folds a short (< 32 byte) run tail: zero-padded plus a length
    /// tag, so padding cannot collide with real zeros.
    #[inline]
    fn fold_tail(&mut self, rem: &[u8]) {
        if rem.is_empty() {
            return;
        }
        let mut tail = [0u8; 32];
        tail[..rem.len()].copy_from_slice(rem);
        self.fold32(&tail);
        self.0[0] = self.0[0].wrapping_add(rem.len() as u64);
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(32);
        for c in &mut words {
            self.fold32(c.try_into().expect("chunk of 32"));
        }
        self.fold_tail(words.remainder());
    }

    fn finish(self) -> u64 {
        let a = (self.0[0] ^ self.0[1].rotate_left(32)).wrapping_mul(Self::MULS[0]);
        let b = (self.0[2] ^ self.0[3].rotate_left(32)).wrapping_mul(Self::MULS[1]);
        a ^ b.rotate_left(32)
    }
}

/// Rounds a section length up to the 16-byte padding boundary.
#[inline]
fn pad16(len: u64) -> u64 {
    len.div_ceil(16) * 16
}

/// Section byte lengths, unpadded, as fully determined by `(n, m, tag)`.
fn section_lens(n: u64, m: u64, tag: u32) -> [u64; NUM_SECTIONS] {
    let (off_len, ids_len) = ((n + 1) * 8, m * 4);
    let weights_len = if tag == TAG_PER_EDGE { ids_len } else { 0 };
    [
        off_len,
        ids_len,
        off_len,
        ids_len,
        ids_len,
        weights_len,
        weights_len,
    ]
}

/// The canonical padded layout of sections with lengths `lens`: each
/// section's byte offset relative to the payload start, and the total
/// padded payload length.
fn padded_offsets(lens: &[u64; NUM_SECTIONS]) -> ([u64; NUM_SECTIONS], u64) {
    let mut offs = [0u64; NUM_SECTIONS];
    let mut at = 0u64;
    for (o, &len) in offs.iter_mut().zip(lens) {
        *o = at;
        at += pad16(len);
    }
    (offs, at)
}

/// Streaming little-endian section encoders: each converts its source
/// array through a fixed buffer and hands every filled chunk to `sink`
/// with a final-chunk flag. Non-final chunks are multiples of the
/// 32-byte hash round (the buffer length is), so a hash sink built on
/// `fold32` sees the same rounds as [`SnapshotHash::update`] of the
/// whole section — and a write sink streams the same bytes to disk
/// with O(buffer) extra memory instead of materializing hundreds of
/// megabytes of section copies.
type EmitSink<'a> = dyn FnMut(&[u8], bool) -> std::io::Result<()> + 'a;

fn emit_u32s(xs: &[u32], buf: &mut [u8], sink: &mut EmitSink<'_>) -> std::io::Result<()> {
    let per = buf.len() / 4;
    let mut it = xs.chunks(per).peekable();
    while let Some(chunk) = it.next() {
        let bytes = &mut buf[..chunk.len() * 4];
        for (c, x) in bytes.chunks_exact_mut(4).zip(chunk) {
            c.copy_from_slice(&x.to_le_bytes());
        }
        let last = it.peek().is_none();
        sink(bytes, last)?;
    }
    Ok(())
}

fn emit_f32s(xs: &[f32], buf: &mut [u8], sink: &mut EmitSink<'_>) -> std::io::Result<()> {
    let per = buf.len() / 4;
    let mut it = xs.chunks(per).peekable();
    while let Some(chunk) = it.next() {
        let bytes = &mut buf[..chunk.len() * 4];
        for (c, x) in bytes.chunks_exact_mut(4).zip(chunk) {
            c.copy_from_slice(&x.to_le_bytes());
        }
        let last = it.peek().is_none();
        sink(bytes, last)?;
    }
    Ok(())
}

fn emit_usizes(xs: &[usize], buf: &mut [u8], sink: &mut EmitSink<'_>) -> std::io::Result<()> {
    let per = buf.len() / 8;
    let mut it = xs.chunks(per).peekable();
    while let Some(chunk) = it.next() {
        let bytes = &mut buf[..chunk.len() * 8];
        for (c, &x) in bytes.chunks_exact_mut(8).zip(chunk) {
            c.copy_from_slice(&(x as u64).to_le_bytes());
        }
        let last = it.peek().is_none();
        sink(bytes, last)?;
    }
    Ok(())
}

/// Runs all seven sections of `g` through `sink` in snapshot order.
fn emit_sections(g: &Graph, buf: &mut [u8], sink: &mut EmitSink<'_>) -> std::io::Result<()> {
    let (out_off, out_to, in_off, in_from, in_eid, weights) = g.raw_csr();
    let (out_p, in_p): (&[f32], &[f32]) = match weights {
        EdgeWeights::PerEdge { out_p, in_p } => (&out_p[..], &in_p[..]),
        _ => (&[], &[]),
    };
    emit_usizes(out_off, buf, sink)?;
    emit_u32s(out_to, buf, sink)?;
    emit_usizes(in_off, buf, sink)?;
    emit_u32s(in_from, buf, sink)?;
    emit_u32s(in_eid, buf, sink)?;
    emit_f32s(out_p, buf, sink)?;
    emit_f32s(in_p, buf, sink)
}

/// Writes `g` as a snapshot: sections padded to 16-byte boundaries,
/// section offsets recorded in the header — the layout
/// [`load_snapshot`] maps and pointer-casts without any decode.
///
/// Two streaming passes over the CSR arrays through one fixed 256 KB
/// buffer: the first computes the checksum, the second writes the
/// bytes. The checksum precedes the sections in the header and `W` is
/// not seekable, so it must be known before the first section byte is
/// written; streaming keeps the extra memory at O(buffer) even for
/// hundred-megabyte graphs.
pub fn write_snapshot<W: Write>(g: &Graph, w: W) -> std::io::Result<()> {
    let (_, _, _, _, _, weights) = g.raw_csr();
    let (tag, constant): (u32, f32) = match weights {
        EdgeWeights::PerEdge { .. } => (TAG_PER_EDGE, 0.0),
        EdgeWeights::InDegree => (TAG_IN_DEGREE, 0.0),
        EdgeWeights::Constant(c) => (TAG_CONSTANT, *c),
    };
    let m = g.num_edges() as u64;
    let lens = section_lens(g.num_nodes() as u64, m, tag);
    let (offs, _) = padded_offsets(&lens);

    // Checksum covers everything after the checksum field itself,
    // padding included.
    let mut tail = Vec::with_capacity(TAIL_LEN_V2);
    tail.extend_from_slice(&tag.to_le_bytes());
    tail.extend_from_slice(&constant.to_le_bytes());
    tail.extend_from_slice(&g.num_nodes().to_le_bytes());
    tail.extend_from_slice(&m.to_le_bytes());
    for len in lens {
        tail.extend_from_slice(&len.to_le_bytes());
    }
    for off in offs {
        tail.extend_from_slice(&off.to_le_bytes());
    }
    debug_assert_eq!(tail.len(), TAIL_LEN_V2);

    // Pass 1: checksum. Non-final emitted chunks are multiples of the
    // 32-byte round (the buffer length is), so only each section's
    // final chunk carries a sub-round remainder — which is folded
    // *padded to the 16-byte boundary*, exactly as the reader hashes
    // the padded run.
    let mut buf = vec![0u8; 1 << 18];
    let mut hash = SnapshotHash::new();
    hash.update(&tail);
    emit_sections(g, &mut buf, &mut |bytes, last| {
        let mut chunks = bytes.chunks_exact(32);
        for c in &mut chunks {
            hash.fold32(c.try_into().expect("chunk of 32"));
        }
        let rem = chunks.remainder();
        debug_assert!(
            last || rem.is_empty(),
            "non-final chunks must be 32-aligned"
        );
        if last && !rem.is_empty() {
            let padded = pad16(rem.len() as u64) as usize;
            let mut tailbuf = [0u8; 32];
            tailbuf[..rem.len()].copy_from_slice(rem);
            if padded == 32 {
                hash.fold32(&tailbuf);
            } else {
                hash.fold_tail(&tailbuf[..padded]);
            }
        }
        Ok(())
    })?;

    // Pass 2: bytes, with zero padding after each section.
    let mut w = BufWriter::new(w);
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&hash.finish().to_le_bytes())?;
    w.write_all(&tail)?;
    emit_sections(g, &mut buf, &mut |bytes, last| {
        w.write_all(bytes)?;
        if last {
            let rem = bytes.len() % 16;
            if rem != 0 {
                w.write_all(&[0u8; 16][..16 - rem])?;
            }
        }
        Ok(())
    })?;
    w.flush()
}

/// Header sizes of format version 2: the checksummed tail after the
/// checksum field, and the whole header (the payload starts here).
const TAIL_LEN_V2: usize = 4 + 4 + 4 + 8 + 2 * NUM_SECTIONS * 8;
const HEADER_LEN_V2: usize = 8 + 4 + 8 + TAIL_LEN_V2;

/// The header fields of a snapshot, parsed and cross-validated: magic,
/// version, weight tag, section lengths against `(n, m, tag)`, and the
/// offset table against the canonical padded layout — so a corrupt or
/// hand-misaligned offset table is a typed [`SnapshotError::Malformed`]
/// long before any pointer cast.
struct Header {
    stored_checksum: u64,
    tag: u32,
    constant: f32,
    n: u32,
    m: u64,
    lens: [u64; NUM_SECTIONS],
    offs: [u64; NUM_SECTIONS],
    /// Total padded payload length.
    total_padded: u64,
}

/// Parses and validates the fixed-size header prefix — the one place
/// that checks magic, version and header truncation. `bytes` may be
/// shorter than a full header (truncated file): that reports
/// [`SnapshotError::Truncated`], after the magic and (when its bytes
/// are present) the version have been checked.
fn parse_header(bytes: &[u8]) -> Result<Header, SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN_V2 as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() >= 12 {
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("fixed slice"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
    }
    if bytes.len() < HEADER_LEN_V2 {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN_V2 as u64,
            got: bytes.len() as u64,
        });
    }
    let stored_checksum = u64::from_le_bytes(bytes[12..20].try_into().expect("fixed slice"));
    let tail = &bytes[20..HEADER_LEN_V2];
    let tag = u32::from_le_bytes(tail[0..4].try_into().expect("fixed slice"));
    let constant = f32::from_le_bytes(tail[4..8].try_into().expect("fixed slice"));
    let n = u32::from_le_bytes(tail[8..12].try_into().expect("fixed slice"));
    let m = u64::from_le_bytes(tail[12..20].try_into().expect("fixed slice"));
    let mut lens = [0u64; NUM_SECTIONS];
    for (i, l) in lens.iter_mut().enumerate() {
        let at = 20 + i * 8;
        *l = u64::from_le_bytes(tail[at..at + 8].try_into().expect("fixed slice"));
    }
    let mut offs = [0u64; NUM_SECTIONS];
    for (i, o) in offs.iter_mut().enumerate() {
        let at = 20 + (NUM_SECTIONS + i) * 8;
        *o = u64::from_le_bytes(tail[at..at + 8].try_into().expect("fixed slice"));
    }

    // Edge ids are u32 by construction (try_from_arcs rejects larger
    // inputs), so any m beyond that is corrupt — and rejecting it here
    // also keeps the `m * 4` length arithmetic from wrapping.
    if m >= u32::MAX as u64 {
        return Err(SnapshotError::Malformed(format!(
            "edge count {m} must fit in u32 ids"
        )));
    }
    if tag > TAG_CONSTANT {
        return Err(SnapshotError::Malformed(format!(
            "unknown weight representation tag {tag}"
        )));
    }
    // Lengths are fully determined by (n, m, tag); enforce before
    // interpreting anything, so corrupt counts can never drive an
    // absurd allocation.
    if lens != section_lens(n as u64, m, tag) {
        return Err(SnapshotError::Malformed(format!(
            "section lengths {lens:?} do not match n={n}, m={m}, tag={tag}"
        )));
    }
    if tag != TAG_CONSTANT && constant != 0.0 {
        return Err(SnapshotError::Malformed(
            "constant probability set on a non-constant representation".to_string(),
        ));
    }
    // The offset table must be exactly the canonical padded layout —
    // anything else (including an unaligned offset) can never reach the
    // section views.
    let (expect, total_padded) = padded_offsets(&lens);
    if let Some(i) = (0..NUM_SECTIONS).find(|&i| offs[i] != expect[i]) {
        return Err(SnapshotError::Malformed(format!(
            "section {i} offset {} breaks the padded layout (expected {})",
            offs[i], expect[i]
        )));
    }
    Ok(Header {
        stored_checksum,
        tag,
        constant,
        n,
        m,
        lens,
        offs,
        total_padded,
    })
}

/// Running structural aggregates of one section kind, fed incrementally
/// (any chunking whose boundaries land on element boundaries) by the
/// fused verify pass. Alignment-agnostic: elements are decoded with
/// `from_le_bytes`, which on little-endian hosts compiles to plain
/// loads the vectorizer handles.
enum SectionScan {
    /// `u64` CSR offsets: monotonic non-decrease, first and last value.
    Offsets {
        monotonic: bool,
        first: Option<u64>,
        prev: u64,
    },
    /// `u32` id sections: running maximum.
    Ids { max: u32 },
    /// `f32` probability sections: all values in `[0, 1]` (NaN fails).
    Probs { in_unit: bool },
}

impl SectionScan {
    fn feed(&mut self, bytes: &[u8]) {
        match self {
            SectionScan::Offsets {
                monotonic,
                first,
                prev,
            } => {
                // Four comparisons per 32-byte round are independent of
                // each other (only `prev` carries across rounds), so the
                // checks pipeline instead of serializing per element.
                let mut rounds = bytes.chunks_exact(32);
                for c in &mut rounds {
                    let w = |i: usize| {
                        u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("chunk of 8"))
                    };
                    let (w0, w1, w2, w3) = (w(0), w(1), w(2), w(3));
                    if first.is_none() {
                        *first = Some(w0);
                    }
                    *monotonic &= w0 >= *prev && w1 >= w0 && w2 >= w1 && w3 >= w2;
                    *prev = w3;
                }
                for e in rounds.remainder().chunks_exact(8) {
                    let x = u64::from_le_bytes(e.try_into().expect("chunk of 8"));
                    if first.is_none() {
                        *first = Some(x);
                    }
                    *monotonic &= x >= *prev;
                    *prev = x;
                }
            }
            SectionScan::Ids { max } => {
                // Eight independent max accumulators per 32-byte round —
                // the shape LLVM turns into packed SIMD max.
                let mut rounds = bytes.chunks_exact(32);
                let mut lanes = [0u32; 8];
                for c in &mut rounds {
                    for (i, lane) in lanes.iter_mut().enumerate() {
                        let x =
                            u32::from_le_bytes(c[i * 4..i * 4 + 4].try_into().expect("chunk of 4"));
                        *lane = (*lane).max(x);
                    }
                }
                *max = (*max).max(lanes.into_iter().max().expect("eight lanes"));
                for e in rounds.remainder().chunks_exact(4) {
                    *max = (*max).max(u32::from_le_bytes(e.try_into().expect("chunk of 4")));
                }
            }
            SectionScan::Probs { in_unit } => {
                // Eight independent range-check accumulators; NaN fails
                // both comparisons, exactly like the scalar contains().
                let mut rounds = bytes.chunks_exact(32);
                let mut lanes = [true; 8];
                for c in &mut rounds {
                    for (i, lane) in lanes.iter_mut().enumerate() {
                        let x =
                            f32::from_le_bytes(c[i * 4..i * 4 + 4].try_into().expect("chunk of 4"));
                        *lane &= (0.0..=1.0).contains(&x);
                    }
                }
                *in_unit &= lanes.into_iter().all(|ok| ok);
                for e in rounds.remainder().chunks_exact(4) {
                    let x = f32::from_le_bytes(e.try_into().expect("chunk of 4"));
                    *in_unit &= (0.0..=1.0).contains(&x);
                }
            }
        }
    }
}

/// The single fused verify pass of the reader: walks the payload once
/// in ~256 KB blocks, folding the 4-lane checksum over each padded
/// section run and the structural aggregates over the unpadded data
/// while the block is cache-resident. Checksum disagreement wins over
/// structural complaints: corrupt bytes report as corruption, not as
/// whatever nonsense they decode to.
fn verify(header: &Header, header_tail: &[u8], payload: &[u8]) -> Result<(), SnapshotError> {
    const BLOCK: usize = 1 << 18; // multiple of the 32-byte hash round
    let mut hash = SnapshotHash::new();
    hash.update(header_tail);
    let mut scans = [
        SectionScan::Offsets {
            monotonic: true,
            first: None,
            prev: 0,
        },
        SectionScan::Ids { max: 0 },
        SectionScan::Offsets {
            monotonic: true,
            first: None,
            prev: 0,
        },
        SectionScan::Ids { max: 0 },
        SectionScan::Ids { max: 0 },
        SectionScan::Probs { in_unit: true },
        SectionScan::Probs { in_unit: true },
    ];
    for (i, scan) in scans.iter_mut().enumerate() {
        let (off, len) = (header.offs[i] as usize, header.lens[i] as usize);
        let padded = &payload[off..off + pad16(header.lens[i]) as usize];
        let mut chunks = padded.chunks(BLOCK).peekable();
        let mut at = 0usize;
        while let Some(block) = chunks.next() {
            // Hash the padded run: full rounds for every non-final
            // block (BLOCK is a multiple of 32), tail fold at the end.
            let mut rounds = block.chunks_exact(32);
            for c in &mut rounds {
                hash.fold32(c.try_into().expect("chunk of 32"));
            }
            let rem = rounds.remainder();
            debug_assert!(chunks.peek().is_none() || rem.is_empty());
            hash.fold_tail(rem);
            // Validate the unpadded intersection of the block.
            let data_hi = len.saturating_sub(at).min(block.len());
            scan.feed(&block[..data_hi]);
            at += block.len();
        }
    }
    let computed = hash.finish();
    if computed != header.stored_checksum {
        return Err(SnapshotError::ChecksumMismatch {
            stored: header.stored_checksum,
            computed,
        });
    }
    let (n, m) = (header.n, header.m);
    for i in [0, 2] {
        let SectionScan::Offsets {
            monotonic,
            first,
            prev,
        } = &scans[i]
        else {
            unreachable!("section {i} is an offsets section");
        };
        if !monotonic || *first != Some(0) || *prev != m {
            return Err(SnapshotError::Malformed(
                "offsets must rise monotonically from 0 to m".to_string(),
            ));
        }
    }
    for (i, bound, what) in [
        (1, n as u64, "adjacency entry out of node range"),
        (3, n as u64, "adjacency entry out of node range"),
        (4, m, "edge id out of range"),
    ] {
        let SectionScan::Ids { max } = &scans[i] else {
            unreachable!("section {i} is an id section");
        };
        if m > 0 && (*max as u64) >= bound {
            return Err(SnapshotError::Malformed(what.to_string()));
        }
    }
    for scan in &scans[5..] {
        let SectionScan::Probs { in_unit } = scan else {
            unreachable!("trailing sections are probability sections");
        };
        if !in_unit {
            return Err(SnapshotError::Malformed(
                "per-edge probability out of [0,1]".to_string(),
            ));
        }
    }
    Ok(())
}

/// Everything a reader must establish before it may interpret a
/// section: the header parses, the payload holds exactly the padded
/// sections, and the fused verify pass succeeds.
fn verified_header(bytes: &[u8]) -> Result<Header, SnapshotError> {
    let header = parse_header(bytes)?;
    let payload = &bytes[HEADER_LEN_V2..];
    let payload_len = payload.len() as u64;
    if payload_len < header.total_padded {
        return Err(SnapshotError::Truncated {
            expected: header.total_padded,
            got: payload_len,
        });
    }
    if payload_len > header.total_padded {
        // Trailing bytes are outside the sections; refusing them keeps
        // "every byte is checked" true.
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after the last section",
            payload_len - header.total_padded
        )));
    }
    verify(&header, &bytes[20..HEADER_LEN_V2], payload)?;
    Ok(header)
}

/// Builds the [`EdgeWeights`] for a verified header given the two
/// probability sections (empty unless the tag is per-edge).
fn edge_weights(
    header: &Header,
    out_p: SectionStorage<f32>,
    in_p: SectionStorage<f32>,
) -> EdgeWeights {
    match header.tag {
        TAG_PER_EDGE => EdgeWeights::PerEdge { out_p, in_p },
        TAG_IN_DEGREE => EdgeWeights::InDegree,
        _ => EdgeWeights::Constant(header.constant),
    }
}

/// Zero-copy assembly: borrows every section straight out of the shared
/// buffer. Only compiled where the cast is the identity — little-endian
/// with 64-bit `usize` (the stored `u64` offsets *are* host `usize`s).
#[cfg(all(target_endian = "little", target_pointer_width = "64"))]
fn attach_sections(buf: &Arc<SnapshotBuf>, h: &Header) -> Graph {
    let off = |i: usize| HEADER_LEN_V2 + h.offs[i] as usize;
    let n4 = |i: usize| (h.lens[i] / 4) as usize;
    let n8 = |i: usize| (h.lens[i] / 8) as usize;
    let weights = edge_weights(
        h,
        SectionStorage::view(buf, off(5), n4(5)),
        SectionStorage::view(buf, off(6), n4(6)),
    );
    Graph::from_validated_sections(
        h.n,
        SectionStorage::view(buf, off(0), n8(0)),
        SectionStorage::view(buf, off(1), n4(1)),
        SectionStorage::view(buf, off(2), n8(2)),
        SectionStorage::view(buf, off(3), n4(3)),
        SectionStorage::view(buf, off(4), n4(4)),
        weights,
    )
}

/// Owned assembly: decodes every section into fresh arrays. The
/// portable fallback (and the [`read_snapshot_bytes`] path, which has
/// no buffer to borrow from) — pure copy, no validation: `verify` has
/// already established every invariant.
fn decode_owned(header: &Header, payload: &[u8]) -> Graph {
    let section =
        |i: usize| &payload[header.offs[i] as usize..(header.offs[i] + header.lens[i]) as usize];
    let u32s = |i: usize| -> Vec<u32> {
        section(i)
            .chunks_exact(4)
            .map(|e| u32::from_le_bytes(e.try_into().expect("chunk of 4")))
            .collect()
    };
    let f32s = |i: usize| -> Vec<f32> {
        section(i)
            .chunks_exact(4)
            .map(|e| f32::from_le_bytes(e.try_into().expect("chunk of 4")))
            .collect()
    };
    let usizes = |i: usize| -> Vec<usize> {
        section(i)
            .chunks_exact(8)
            .map(|e| {
                let x = u64::from_le_bytes(e.try_into().expect("chunk of 8"));
                usize::try_from(x).expect("verified offset fits usize: offsets are bounded by m")
            })
            .collect()
    };
    let weights = edge_weights(header, f32s(5).into(), f32s(6).into());
    Graph::from_validated_raw_csr(
        header.n,
        usizes(0),
        u32s(1),
        usizes(2),
        u32s(3),
        u32s(4),
        weights,
    )
}

/// Parses a snapshot from an in-memory byte slice. The graph owns fresh
/// CSR arrays (no borrowing from `bytes`; callers wanting the zero-copy
/// representation go through [`load_snapshot`]).
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let header = verified_header(bytes)?;
    Ok(decode_owned(&header, &bytes[HEADER_LEN_V2..]))
}

/// Reads a snapshot from any reader (the whole stream is consumed and
/// parsed via [`read_snapshot_bytes`]).
pub fn read_snapshot<R: Read>(mut r: R) -> Result<Graph, SnapshotError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    read_snapshot_bytes(&bytes)
}

/// Writes a snapshot to a file at `path`.
pub fn save_snapshot<P: AsRef<Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    write_snapshot(g, std::fs::File::create(path)?)
}

/// Loads a snapshot from a file at `path` on the **zero-copy** path:
/// the file is mapped (private, read-only; owned aligned read as
/// fallback), verified by the single fused checksum+validation pass,
/// and the graph's sections are pointer-cast views into the mapped
/// buffer — no per-section copies, no decode. On targets where the cast
/// is not the identity (big-endian or 32-bit), the verified sections
/// are decoded into owned arrays instead.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Graph, SnapshotError> {
    let mut file = std::fs::File::open(path)?;
    #[cfg(all(unix, target_pointer_width = "64"))]
    let buf = match SnapshotBuf::map_file(&file)? {
        Some(mapped) => mapped,
        None => SnapshotBuf::read_file(&mut file)?,
    };
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let buf = SnapshotBuf::read_file(&mut file)?;
    let buf = Arc::new(buf);
    let header = verified_header(buf.bytes())?;
    #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
    {
        Ok(attach_sections(&buf, &header))
    }
    #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
    {
        Ok(decode_owned(&header, &buf.bytes()[HEADER_LEN_V2..]))
    }
}

/// Loads a snapshot into **owned** CSR arrays — the non-zero-copy twin
/// of [`load_snapshot`], kept as an explicit entry point so tests and
/// benches can pin the two representations against each other.
pub fn load_snapshot_owned<P: AsRef<Path>>(path: P) -> Result<Graph, SnapshotError> {
    let bytes = std::fs::read(path)?;
    read_snapshot_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeId, WeightSpec};

    #[test]
    #[ignore = "perf probe, run manually"]
    fn probe_verify_phases() {
        // Breakdown of the v2 load: hash fold vs structural scan vs
        // whole verify, on a ~128 MB payload.
        let bytes = vec![0x5au8; 128 << 20];
        for round in 0..2 {
            let t = std::time::Instant::now();
            let mut h = SnapshotHash::new();
            h.update(&bytes);
            std::hint::black_box(h.finish());
            eprintln!("round {round}: hash only {:?}", t.elapsed());

            let t = std::time::Instant::now();
            let mut scan = SectionScan::Ids { max: 0 };
            scan.feed(&bytes);
            std::hint::black_box(&scan);
            eprintln!("round {round}: ids scan only {:?}", t.elapsed());

            let t = std::time::Instant::now();
            let mut scan = SectionScan::Offsets {
                monotonic: true,
                first: None,
                prev: 0,
            };
            scan.feed(&bytes);
            std::hint::black_box(&scan);
            eprintln!("round {round}: offsets scan only {:?}", t.elapsed());

            // L2-resident variants: same total bytes, 256 KB working set
            // — the conditions the fused verify loop's scan runs under.
            let block = &bytes[..1 << 18];
            let t = std::time::Instant::now();
            let mut h = SnapshotHash::new();
            for _ in 0..512 {
                h.update(block);
            }
            std::hint::black_box(h.finish());
            eprintln!("round {round}: hash L2 {:?}", t.elapsed());
            let t = std::time::Instant::now();
            let mut scan = SectionScan::Ids { max: 0 };
            for _ in 0..512 {
                scan.feed(block);
            }
            std::hint::black_box(&scan);
            eprintln!("round {round}: ids scan L2 {:?}", t.elapsed());
        }
    }

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_snapshot(g, &mut buf).unwrap();
        read_snapshot(&buf[..]).unwrap()
    }

    fn sample_arcs() -> Vec<(NodeId, NodeId)> {
        vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 1), (1, 3)]
    }

    #[test]
    fn roundtrip_all_representations() {
        let arcs = sample_arcs();
        let per_edge = Graph::from_edges(4, &[(0, 1, 0.5), (0, 2, 0.25), (1, 2, 1.0), (2, 0, 0.0)]);
        let wc = Graph::try_from_arcs(4, &arcs, WeightSpec::InDegree).unwrap();
        let cp = Graph::try_from_arcs(4, &arcs, WeightSpec::Constant(0.125)).unwrap();
        for g in [&per_edge, &wc, &cp] {
            let back = roundtrip(g);
            assert_eq!(&back, g, "snapshot round-trip must be exact");
            assert_eq!(back.weight_class(), g.weight_class());
            assert_eq!(back.memory_footprint(), g.memory_footprint());
        }
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&Graph::from_edges(2, &[(0, 1, 0.5)]), &mut buf).unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_snapshot(&buf[..]),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&Graph::from_edges(2, &[(0, 1, 0.5)]), &mut buf).unwrap();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_snapshot(&buf[..]),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let mut buf = Vec::new();
        write_snapshot(
            &Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25)]),
            &mut buf,
        )
        .unwrap();
        for len in 0..buf.len() {
            let err = read_snapshot(&buf[..len]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "truncation at {len} gave {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let g = Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)]);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert!(
                read_snapshot(&bad[..]).is_err(),
                "flip at byte {at} went unnoticed"
            );
        }
    }

    #[test]
    fn absurd_section_lengths_do_not_allocate() {
        let mut buf = Vec::new();
        write_snapshot(&Graph::from_edges(2, &[(0, 1, 0.5)]), &mut buf).unwrap();
        // Claim 2^60 edges: the reader must fail on the length check or
        // run out of stream, never attempt the allocation.
        buf[32..40].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(read_snapshot(&buf[..]).is_err());
    }

    #[test]
    fn file_loader_detects_truncation_flips_and_trailing_bytes() {
        // The file loader shares parse/verify logic with the in-memory
        // path but maps the file (or reads it into an aligned buffer);
        // exercise its error handling end to end on a real file.
        let dir = std::env::temp_dir().join("uic_graph_snapshot_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.uicg");
        let g = Graph::from_edges(5, &[(0, 1, 0.5), (1, 2, 0.25), (3, 4, 0.75)]);
        save_snapshot(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncated file.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        // Flipped payload byte.
        let mut bad = bytes.clone();
        let at = bad.len() - 5;
        bad[at] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Trailing junk.
        let mut long = bytes.clone();
        long.extend_from_slice(b"junk");
        std::fs::write(&path, &long).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        // Not a snapshot at all.
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(matches!(load_snapshot(&path), Err(SnapshotError::BadMagic)));
        // Pristine file still loads.
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("uic_graph_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.uicg");
        let g = Graph::try_from_arcs(4, &sample_arcs(), WeightSpec::InDegree).unwrap();
        save_snapshot(&g, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_layout_is_padded_and_offset_tabled() {
        let g = Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        assert_eq!(&buf[0..8], &MAGIC);
        assert_eq!(&buf[8..12], &2u32.to_le_bytes());
        // n=3, m=2, per-edge: lens [32, 8, 32, 8, 8, 8, 8], each padded
        // to 16 → offsets [0, 32, 48, 80, 96, 112, 128], total 144.
        assert_eq!(buf.len(), HEADER_LEN_V2 + 144);
        let off_at = |i: usize| {
            let at = 96 + i * 8;
            u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
        };
        assert_eq!(
            (0..7).map(off_at).collect::<Vec<_>>(),
            vec![0, 32, 48, 80, 96, 112, 128]
        );
        // Every recorded offset is 8-byte aligned in the file.
        assert!((0..7).all(|i| (HEADER_LEN_V2 as u64 + off_at(i)).is_multiple_of(8)));
    }

    #[test]
    fn v2_file_load_is_zero_copy_and_bit_identical() {
        let dir = std::env::temp_dir().join("uic_graph_snapshot_v2_zero_copy");
        std::fs::create_dir_all(&dir).unwrap();
        let arcs = sample_arcs();
        let graphs = [
            Graph::from_edges(4, &[(0, 1, 0.5), (0, 2, 0.25), (1, 2, 1.0), (2, 0, 0.0)]),
            Graph::try_from_arcs(4, &arcs, WeightSpec::InDegree).unwrap(),
            Graph::try_from_arcs(4, &arcs, WeightSpec::Constant(0.125)).unwrap(),
            Graph::from_edges(0, &[]),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let path = dir.join(format!("g{i}.uicg"));
            save_snapshot(g, &path).unwrap();
            let zc = load_snapshot(&path).unwrap();
            assert_eq!(&zc, g, "zero-copy load must be exact");
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            assert!(zc.is_zero_copy(), "v2 loads borrow from the buffer");
            let owned = load_snapshot_owned(&path).unwrap();
            assert!(!owned.is_zero_copy());
            assert_eq!(zc, owned, "representations must be equal");
            // The clone of a view-backed graph keeps working after the
            // original is dropped (Arc-shared buffer).
            let c = zc.clone();
            drop(zc);
            assert_eq!(&c, g);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn v2_misaligned_offset_table_is_a_typed_error() {
        let g = Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf).unwrap();
        // Shift section 1's recorded offset by 4 bytes: no longer the
        // canonical padded layout → Malformed, never a cast.
        let at = 96 + 8;
        let mut off = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        off += 4;
        buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
        assert!(matches!(
            read_snapshot_bytes(&buf),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
