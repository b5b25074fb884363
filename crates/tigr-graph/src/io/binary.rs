//! Binary CSR containers: the legacy single-graph `TIGRCSR1` layout and
//! the versioned, sectioned `TIGRCSR2` artifact container.
//!
//! ## `TIGRCSR1` (legacy, read-only compatibility)
//!
//! ```text
//! [0..8)   magic  b"TIGRCSR1"
//! [8..9)   flags  bit 0: weighted
//! [9..17)  num_nodes  (u64)
//! [17..25) num_edges  (u64)
//! then     (num_nodes + 1) x u64  row_ptr
//! then     num_edges x u32        col_idx
//! then     num_edges x u32        weights (iff weighted)
//! ```
//!
//! ## `TIGRCSR2` (current)
//!
//! A generic container of typed sections, designed for the prepared-graph
//! artifact cache: one file can carry a CSR plus its derived views
//! (transpose, virtual overlay, physical transform map) so repeated runs
//! skip re-deriving them.
//!
//! ```text
//! [0..8)    magic  b"TIGRCSR2"
//! [8..12)   format version (u32, = 2)
//! [12..16)  section count  (u32)
//! then per section, 32 bytes:
//!   [+0..4)   section id (u32)
//!   [+4..8)   reserved (u32, 0)
//!   [+8..16)  payload offset from file start (u64, 8-byte aligned)
//!   [+16..24) payload length in bytes (u64)
//!   [+24..32) FNV-1a-64 checksum of the payload (u64)
//! then the payloads, each starting at its 8-byte-aligned offset
//! (zero padding in the gaps), in table order.
//! ```
//!
//! Payload offsets are 8-byte aligned so a future loader can map the file
//! and reinterpret integer arrays in place (zero-copy load). Checksums
//! are validated on every read; corruption surfaces as a typed
//! [`GraphError::Checksum`] rather than a wrong graph.
//!
//! Section ids are allocated here ([`SECTION_CSR`] and friends) so every
//! crate serializing into the container agrees on the namespace; payload
//! encodings for overlay/transform sections live next to their types in
//! `tigr-core`.
//!
//! Writing is deterministic: the same sections always produce
//! byte-identical files, which the artifact cache relies on. There is
//! one writer, [`write_sections`]: a section goes to it as
//! [`SectionParts`] — its header bytes and its arrays borrowed as they
//! sit in memory — so nothing is copied into a payload buffer on the way
//! to disk, and [`checksums`] hashes the sections on every core first.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::chunked;
use crate::csr::Csr;
use crate::edge::NodeId;
use crate::error::GraphError;
use crate::segment::{ArcSlice, Plain, Segment};
use crate::Result;

const MAGIC_V1: &[u8; 8] = b"TIGRCSR1";
const MAGIC_V2: &[u8; 8] = b"TIGRCSR2";
const FLAG_WEIGHTED: u8 = 1;
const FORMAT_VERSION: u32 = 2;
const SECTION_ENTRY_LEN: usize = 32;
const HEADER_LEN: usize = 16;
/// Bytes of a CSR section's header: flags, node count, edge count.
const CSR_HEADER_LEN: usize = 24;
/// Upper bound on the section count a reader will accept; a corrupted
/// header cannot make us allocate unboundedly.
const MAX_SECTIONS: u32 = 1024;
/// Sections smaller than this are hashed on the calling thread: a
/// thread costs more to start than hashing a megabyte saves.
const MIN_SPAWN_BYTES: usize = 1 << 20;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Section id: the primary CSR (always present).
pub const SECTION_CSR: u32 = 1;
/// Section id: the transpose CSR (pull/auto direction support).
pub const SECTION_TRANSPOSE: u32 = 2;
/// Section id: the forward virtual-node overlay (`Tigr-V`/`V+`).
pub const SECTION_OVERLAY: u32 = 3;
/// Section id: the overlay mirrored onto the transpose.
pub const SECTION_REV_OVERLAY: u32 = 4;
/// Section id: a physical split transform (embedded CSR + UDT split map).
pub const SECTION_TRANSFORM: u32 = 5;
/// Section id: the canonical prepare-spec echo used as a cache-key
/// collision guard.
pub const SECTION_SPEC: u32 = 6;

/// One typed section of a `TIGRCSR2` container as read back: a payload
/// and the FNV-1a-64 checksum the section table records for it, checked
/// once when it is read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section type tag (`SECTION_*`).
    pub id: u32,
    /// Raw payload bytes. Changing them after construction leaves a
    /// stale checksum behind, which every reader rejects.
    pub payload: Vec<u8>,
    checksum: u64,
}

impl Section {
    /// A section over `payload`, hashing it once.
    pub fn new(id: u32, payload: Vec<u8>) -> Self {
        let checksum = fnv1a64(&payload);
        Section {
            id,
            payload,
            checksum,
        }
    }

    /// [`fnv1a64`] of the payload.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// One section on its way into a container: its id and the parts whose
/// concatenation is its payload. Headers are a few owned bytes; arrays
/// are borrowed as they sit in memory (on a big-endian or 32-bit target
/// an array part is encoded once into its little-endian bytes instead).
#[derive(Debug)]
pub struct SectionParts<'a> {
    /// Section type tag (`SECTION_*`).
    pub id: u32,
    parts: Vec<Cow<'a, [u8]>>,
}

impl<'a> SectionParts<'a> {
    /// A section with an empty payload.
    pub fn new(id: u32) -> Self {
        SectionParts {
            id,
            parts: Vec::new(),
        }
    }

    /// The CSR section of `g`: flags, node count and edge count, then
    /// `row_ptr` as little-endian `u64`s, `col_idx` and (when weighted)
    /// the weights as little-endian `u32`s.
    pub fn csr(id: u32, g: &'a Csr) -> Self {
        let flags = if g.is_weighted() { FLAG_WEIGHTED } else { 0 };
        let mut header = Vec::with_capacity(CSR_HEADER_LEN);
        header.extend_from_slice(&u64::from(flags).to_le_bytes());
        header.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
        header.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
        let section = SectionParts::new(id)
            .bytes(header)
            .u64_words(g.row_ptr())
            .u32_words(g.col_idx());
        match g.weights() {
            Some(w) => section.u32_words(w),
            None => section,
        }
    }

    /// Appends raw bytes.
    pub fn bytes(mut self, bytes: impl Into<Cow<'a, [u8]>>) -> Self {
        self.parts.push(bytes.into());
        self
    }

    /// Appends `values` as little-endian `u32` words. `T` must be made of
    /// `u32` words (`u32`, [`NodeId`], or a `#[repr(C)]` struct of them).
    ///
    /// # Panics
    ///
    /// Panics if `T`'s size is not a multiple of four bytes.
    pub fn u32_words<T: Plain>(self, values: &'a [T]) -> Self {
        assert!(
            std::mem::size_of::<T>().is_multiple_of(4),
            "not a type of u32 words"
        );
        let bytes = plain_bytes(values);
        #[cfg(target_endian = "little")]
        return self.bytes(bytes);
        #[cfg(not(target_endian = "little"))]
        return self.bytes(
            bytes
                .as_chunks::<4>()
                .0
                .iter()
                .flat_map(|w| u32::from_ne_bytes(*w).to_le_bytes())
                .collect::<Vec<u8>>(),
        );
    }

    /// Appends offsets as little-endian `u64`s.
    pub fn u64_words(self, values: &'a [usize]) -> Self {
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        return self.bytes(plain_bytes(values));
        #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
        return self.bytes(
            values
                .iter()
                .flat_map(|&v| (v as u64).to_le_bytes())
                .collect::<Vec<u8>>(),
        );
    }

    /// Appends flags as one byte each, `0` or `1`.
    pub fn flags(self, values: &'a [bool]) -> Self {
        // SAFETY: a `bool` is one byte holding 0 or 1, and every byte is
        // a valid `u8`; the slice covers exactly `values`' bytes.
        let bytes = unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), values.len()) };
        self.bytes(bytes)
    }

    /// Appends every part of `other` (a section embedded in this one).
    pub fn extend(mut self, other: SectionParts<'a>) -> Self {
        self.parts.extend(other.parts);
        self
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// `true` when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`fnv1a64`] of the payload, hashed part by part.
    pub fn checksum(&self) -> u64 {
        self.parts
            .iter()
            .fold(FNV_OFFSET, |h, part| fnv1a64_extend(h, part))
    }

    /// The payload as one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        self.parts.concat()
    }
}

/// The bytes of `values` as they sit in memory.
fn plain_bytes<T: Plain>(values: &[T]) -> &[u8] {
    // SAFETY: a `Plain` type has no padding, so every byte of the slice
    // is initialized; `u8` needs no alignment, and the length is the
    // slice's size in bytes.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// FNV-1a 64-bit hash — the per-section checksum and the cache-key hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64-bit hash in state `h` over `bytes`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The [`SectionParts::checksum`] of every section, in order. FNV-1a is
/// serial inside a section, so the sections are dealt across
/// [`std::thread::available_parallelism`] scoped threads, biggest first
/// to the least loaded; sections under a megabyte, and every section on
/// a one-core host, are hashed on the calling thread. The threads only
/// write the caller's result slots.
pub fn checksums(sections: &[SectionParts]) -> Vec<u64> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sums = vec![0u64; sections.len()];
    let mut jobs: Vec<_> = sections.iter().zip(sums.iter_mut()).collect();
    jobs.sort_by_key(|(s, _)| Reverse(s.len()));
    // Bin 0 takes the small sections; the first non-empty bin runs on
    // the calling thread.
    let mut bins: Vec<(usize, Vec<_>)> = (0..threads).map(|_| (0, Vec::new())).collect();
    for (section, sum) in jobs {
        let len = section.len();
        let bin = if len < MIN_SPAWN_BYTES {
            0
        } else {
            (0..threads).min_by_key(|&b| bins[b].0).unwrap_or(0)
        };
        bins[bin].0 += len;
        bins[bin].1.push((section, sum));
    }
    let bins = bins
        .into_iter()
        .map(|(_, bin)| bin)
        .filter(|bin| !bin.is_empty());
    chunked::run(bins.collect(), |bin| {
        for (section, sum) in bin {
            *sum = section.checksum();
        }
    });
    sums
}

fn align8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

/// Checked `u64 → usize` conversion for values read from container
/// headers; a value too large for the platform surfaces as a typed
/// [`GraphError::Overflow`] instead of silently truncating.
fn to_usize(value: u64, what: &'static str) -> Result<usize> {
    usize::try_from(value).map_err(|_| GraphError::Overflow { value, what })
}

/// Writes `sections` as a `TIGRCSR2` container: the table with
/// `checksums[i]` recorded for `sections[i]` (see [`checksums`]), then
/// every section's parts streamed in table order — nothing is hashed or
/// copied here.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure and
/// [`GraphError::InvalidFormat`] when more than 1 024 sections (the
/// readers' limit) are supplied or the checksums do not pair up with
/// the sections.
pub fn write_sections<W: Write>(
    sections: &[SectionParts],
    checksums: &[u64],
    writer: W,
) -> Result<()> {
    if sections.len() as u32 > MAX_SECTIONS || checksums.len() != sections.len() {
        return Err(GraphError::InvalidFormat(format!(
            "cannot write {} sections with {} checksums (at most {MAX_SECTIONS})",
            sections.len(),
            checksums.len()
        )));
    }
    let mut out = BufWriter::new(writer);
    let table_end = HEADER_LEN + SECTION_ENTRY_LEN * sections.len();

    let mut header = Vec::with_capacity(table_end);
    header.extend_from_slice(MAGIC_V2);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = align8(table_end);
    for (s, checksum) in sections.iter().zip(checksums) {
        let len = s.len();
        header.extend_from_slice(&s.id.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        header.extend_from_slice(&checksum.to_le_bytes());
        offset = align8(offset + len);
    }
    out.write_all(&header)?;

    let mut cursor = table_end;
    for s in sections {
        let start = align8(cursor);
        out.write_all(&[0u8; 8][..start - cursor])?;
        for part in &s.parts {
            out.write_all(part)?;
        }
        cursor = start + s.len();
    }
    out.flush()?;
    Ok(())
}

/// Writes already-encoded `sections` through [`write_sections`], each
/// with the checksum it carries.
///
/// # Errors
///
/// See [`write_sections`].
pub fn write_container<W: Write>(sections: &[Section], writer: W) -> Result<()> {
    let parts: Vec<_> = sections
        .iter()
        .map(|s| SectionParts::new(s.id).bytes(&s.payload[..]))
        .collect();
    let sums: Vec<u64> = sections.iter().map(Section::checksum).collect();
    write_sections(&parts, &sums, writer)
}

/// Reads a `TIGRCSR2` container, validating the header, the section
/// table, and every payload checksum.
///
/// # Errors
///
/// Returns [`GraphError::InvalidFormat`] for bad magic/version/table
/// geometry, [`GraphError::Checksum`] for a payload whose checksum does
/// not match, and [`GraphError::Io`] on read failure.
pub fn read_container<R: Read>(reader: R) -> Result<Vec<Section>> {
    let mut input = BufReader::new(reader);
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    parse_container(&bytes)
}

/// [`read_container`] over an in-memory byte slice.
///
/// # Errors
///
/// See [`read_container`].
pub fn parse_container(bytes: &[u8]) -> Result<Vec<Section>> {
    let refs = parse_section_table(bytes)?;
    let mut sections = Vec::with_capacity(refs.len());
    for r in refs {
        let section = Section::new(r.id, bytes[r.offset..r.offset + r.len].to_vec());
        if section.checksum != r.checksum {
            return Err(GraphError::Checksum { section: r.id });
        }
        sections.push(section);
    }
    Ok(sections)
}

/// A validated section-table entry: where a payload lives inside the
/// container, without the payload itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionRef {
    /// Section type tag (`SECTION_*`).
    pub id: u32,
    /// Payload start, in bytes from the container start (8-aligned).
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Declared FNV-1a-64 checksum of the payload.
    pub checksum: u64,
}

/// Parses and fully validates a `TIGRCSR2` header and section table
/// (magic, version, count bound, alignment, in-bounds ranges) without
/// touching — or hashing — any payload bytes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidFormat`] for bad magic/version/table
/// geometry and [`GraphError::Overflow`] for offsets that do not fit
/// the platform's `usize`.
pub fn parse_section_table(bytes: &[u8]) -> Result<Vec<SectionRef>> {
    let truncated_header = || GraphError::InvalidFormat("truncated container header".into());
    if bytes.len() < HEADER_LEN {
        return Err(truncated_header());
    }
    let (magic, rest) = bytes
        .split_first_chunk::<8>()
        .ok_or_else(truncated_header)?;
    if magic != MAGIC_V2 {
        return Err(GraphError::InvalidFormat(format!(
            "bad magic {magic:?}, expected TIGRCSR2"
        )));
    }
    let (version, rest) = rest.split_first_chunk().ok_or_else(truncated_header)?;
    let version = u32::from_le_bytes(*version);
    if version != FORMAT_VERSION {
        return Err(GraphError::InvalidFormat(format!(
            "unsupported container version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let (count, rest) = rest.split_first_chunk().ok_or_else(truncated_header)?;
    let count = u32::from_le_bytes(*count);
    if count > MAX_SECTIONS {
        return Err(GraphError::InvalidFormat(format!(
            "section count {count} exceeds limit {MAX_SECTIONS}"
        )));
    }
    let table_len = SECTION_ENTRY_LEN * count as usize;
    let truncated_table = || GraphError::InvalidFormat("truncated section table".into());
    let table = rest.get(..table_len).ok_or_else(truncated_table)?;
    let table_end = HEADER_LEN + table_len;

    let mut refs = Vec::with_capacity(count as usize);
    for (i, entry) in table.chunks_exact(SECTION_ENTRY_LEN).enumerate() {
        let (id, entry) = entry.split_first_chunk().ok_or_else(truncated_table)?;
        let (_reserved, entry) = entry.split_first_chunk::<4>().ok_or_else(truncated_table)?;
        let (offset, entry) = entry.split_first_chunk().ok_or_else(truncated_table)?;
        let (len, entry) = entry.split_first_chunk().ok_or_else(truncated_table)?;
        let (checksum, _) = entry.split_first_chunk().ok_or_else(truncated_table)?;
        let id = u32::from_le_bytes(*id);
        let offset = u64::from_le_bytes(*offset);
        let len = u64::from_le_bytes(*len);
        let checksum = u64::from_le_bytes(*checksum);
        if !offset.is_multiple_of(8) {
            return Err(GraphError::InvalidFormat(format!(
                "section {i} payload offset {offset} is not 8-byte aligned"
            )));
        }
        // Wide arithmetic: a corrupted table must fail the bounds check,
        // not overflow past it.
        let end = offset as u128 + len as u128;
        let offset = to_usize(offset, "section offset")?;
        if offset < table_end || end > bytes.len() as u128 {
            return Err(GraphError::InvalidFormat(format!(
                "section {i} range [{offset}, {end}) escapes container of {} bytes",
                bytes.len()
            )));
        }
        refs.push(SectionRef {
            id,
            offset,
            // In bounds per the check above, so it fits a usize.
            len: len as usize,
            checksum,
        });
    }
    Ok(refs)
}

/// How much of a container's payload bytes an open validates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Hash every payload against its table checksum and fully validate
    /// decoded structures — corruption surfaces at open time.
    #[default]
    Eager,
    /// Validate only the header and section table; skip payload hashing
    /// and the `O(n + m)` structural scans for instant opens of trusted
    /// artifacts. Reads stay bounds-checked, so a corrupt artifact can
    /// at worst panic or mis-answer — never touch invalid memory.
    Lazy,
}

impl VerifyMode {
    /// Parses `eager` / `lazy` (as accepted by `--verify`).
    pub fn parse(s: &str) -> Option<VerifyMode> {
        match s {
            "eager" => Some(VerifyMode::Eager),
            "lazy" => Some(VerifyMode::Lazy),
            _ => None,
        }
    }

    /// The flag spelling (`eager` / `lazy`).
    pub fn label(self) -> &'static str {
        match self {
            VerifyMode::Eager => "eager",
            VerifyMode::Lazy => "lazy",
        }
    }
}

/// A `TIGRCSR2` container opened over a shared [`Segment`] — typically
/// a memory-mapped artifact file — from which typed views borrow
/// payload bytes without copying.
#[derive(Debug)]
pub struct MappedContainer {
    segment: Arc<Segment>,
    sections: Vec<SectionRef>,
    verify: VerifyMode,
}

impl MappedContainer {
    /// Memory-maps the container at `path` (owned read fallback where
    /// the platform lacks `mmap`) and validates its section table. With
    /// [`VerifyMode::Eager`] every payload is hashed against its table
    /// checksum; [`VerifyMode::Lazy`] skips payload hashing entirely.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Io`] on open/map failure, plus everything
    /// [`parse_section_table`] and the eager checksum pass can raise.
    pub fn open(path: impl AsRef<Path>, verify: VerifyMode) -> Result<MappedContainer> {
        let mut file = File::open(path)?;
        let segment = Segment::map_file(&mut file)?;
        MappedContainer::from_segment(Arc::new(segment), verify)
    }

    /// Opens a container over an existing segment.
    ///
    /// # Errors
    ///
    /// See [`MappedContainer::open`].
    pub fn from_segment(segment: Arc<Segment>, verify: VerifyMode) -> Result<MappedContainer> {
        let sections = parse_section_table(segment.as_bytes())?;
        if verify == VerifyMode::Eager {
            let bytes = segment.as_bytes();
            let part = |r: &SectionRef| SectionParts::new(r.id).bytes(&bytes[r.offset..][..r.len]);
            let sums = checksums(&sections.iter().map(part).collect::<Vec<_>>());
            if let Some((r, _)) = sections.iter().zip(sums).find(|(r, s)| *s != r.checksum) {
                return Err(GraphError::Checksum { section: r.id });
            }
        }
        Ok(MappedContainer {
            segment,
            sections,
            verify,
        })
    }

    /// The backing segment.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.segment
    }

    /// `true` when the backing bytes are memory-mapped (zero-copy views
    /// possible) rather than heap-resident.
    pub fn is_mapped(&self) -> bool {
        self.segment.is_mapped()
    }

    /// The validated section table.
    pub fn sections(&self) -> &[SectionRef] {
        &self.sections
    }

    /// The first section with the given id, if present.
    pub fn section(&self, id: u32) -> Option<SectionRef> {
        self.sections.iter().find(|s| s.id == id).copied()
    }

    /// The payload bytes of the first section with the given id.
    pub fn section_bytes(&self, id: u32) -> Option<&[u8]> {
        self.section(id)
            .map(|r| &self.segment.as_bytes()[r.offset..r.offset + r.len])
    }

    /// Decodes the CSR-shaped section `id` into a [`Csr`] whose arrays
    /// borrow this container's segment where the platform allows it
    /// (64-bit little-endian; elsewhere, or when alignment defeats the
    /// reinterpret, the owned decoder runs instead). Returns `None`
    /// when the section is absent.
    ///
    /// Under [`VerifyMode::Eager`] the borrowed arrays get the same
    /// structural validation as the owned decoder; under
    /// [`VerifyMode::Lazy`] the scan is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidFormat`] for malformed payloads and
    /// [`GraphError::Overflow`] for counts beyond the platform.
    pub fn csr(&self, id: u32) -> Result<Option<Csr>> {
        let (Some(r), Some(bytes)) = (self.section(id), self.section_bytes(id)) else {
            return Ok(None);
        };
        let (weighted, n, m, _) = csr_header(bytes)?;
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        {
            // On-disk u64/u32 little-endian arrays are byte-identical to
            // in-memory usize/NodeId arrays here, so borrow them in
            // place. `from_segment` re-checks alignment and bounds; an
            // owned (non-page-aligned) backing can legitimately fail the
            // alignment check, in which case the copying decoder below
            // takes over.
            let row_off = r.offset + CSR_HEADER_LEN;
            let col_off = row_off + (n + 1) * 8;
            let w_off = col_off + m * 4;
            let seg = || Arc::clone(&self.segment);
            let views = (
                ArcSlice::<usize>::from_segment(seg(), row_off, n + 1),
                ArcSlice::<NodeId>::from_segment(seg(), col_off, m),
                weighted.then(|| ArcSlice::<u32>::from_segment(seg(), w_off, m)),
            );
            if let (Some(row_ptr), Some(col_idx), weights) = views {
                let weights = match weights {
                    Some(Some(w)) => Some(w),
                    Some(None) => None, // alignment failure: fall through
                    None => None,
                };
                if !weighted || weights.is_some() {
                    if self.verify == VerifyMode::Eager {
                        validate_csr_views(&row_ptr, &col_idx, n, m)?;
                    }
                    return Ok(Some(Csr::from_views_unchecked(row_ptr, col_idx, weights)));
                }
            }
        }
        decode_csr(bytes).map(Some)
    }
}

/// The owned decoder's structural checks, applied to borrowed views:
/// monotone `row_ptr` anchored at `0` and `m`, every target in range.
fn validate_csr_views(row_ptr: &[usize], col_idx: &[NodeId], n: usize, m: usize) -> Result<()> {
    if row_ptr.first() != Some(&0)
        || row_ptr.last() != Some(&m)
        || row_ptr.windows(2).any(|w| w[0] > w[1])
        || col_idx.iter().any(|c| c.index() >= n.max(1))
    {
        return Err(GraphError::InvalidFormat(
            "inconsistent CSR arrays in binary container".into(),
        ));
    }
    Ok(())
}

/// Returns the first section with the given id, if present.
pub fn find_section(sections: &[Section], id: u32) -> Option<&Section> {
    sections.iter().find(|s| s.id == id)
}

/// Encodes `g` as one CSR section payload buffer (see
/// [`SectionParts::csr`], which the container writer streams instead).
pub fn encode_csr(g: &Csr) -> Vec<u8> {
    SectionParts::csr(SECTION_CSR, g).to_vec()
}

/// Parses a CSR section payload's header — weighted flag, node count,
/// edge count — and checks that the arrays after it have exactly the
/// declared size. Returns the header fields and those arrays. Both the
/// mapped and the owned decoder start here.
fn csr_header(payload: &[u8]) -> Result<(bool, usize, usize, &[u8])> {
    let truncated = || GraphError::InvalidFormat("truncated CSR section".into());
    if payload.len() < CSR_HEADER_LEN {
        return Err(truncated());
    }
    let (flags, rest) = payload.split_first_chunk().ok_or_else(truncated)?;
    let (n, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
    let (m, arrays) = rest.split_first_chunk().ok_or_else(truncated)?;
    let weighted = u64::from_le_bytes(*flags) & u64::from(FLAG_WEIGHTED) != 0;
    let n = to_usize(u64::from_le_bytes(*n), "node count")?;
    let m = to_usize(u64::from_le_bytes(*m), "edge count")?;
    check_csr_size(arrays, n, m, weighted, true)?;
    if n == 0 && m > 0 {
        return Err(GraphError::InvalidFormat(
            "edges present in zero-node graph".into(),
        ));
    }
    Ok((weighted, n, m, arrays))
}

/// Checks the byte budget of a CSR's arrays against the declared
/// counts: exactly for v2 payloads, at-least for the legacy stream.
fn check_csr_size(arrays: &[u8], n: usize, m: usize, weighted: bool, exact: bool) -> Result<()> {
    // Wide arithmetic: corrupted headers can carry absurd counts, and the
    // size check must reject them rather than overflow.
    let need = (n as u128 + 1) * 8 + (m as u128) * 4 + if weighted { m as u128 * 4 } else { 0 };
    let have = arrays.len() as u128;
    if have < need || (exact && have != need) {
        return Err(GraphError::InvalidFormat(format!(
            "CSR payload size mismatch: need {need} bytes, have {}",
            arrays.len()
        )));
    }
    Ok(())
}

/// Decodes a CSR section payload, fully validating it before
/// construction: the payload length must match the declared counts
/// exactly, `row_ptr` must be monotone with `row_ptr[0] == 0` and
/// `row_ptr[n] == num_edges`, and every `col_idx` entry must be in
/// range.
///
/// # Errors
///
/// Returns [`GraphError::InvalidFormat`] on any violation — untrusted
/// input never panics or indexes out of bounds.
pub fn decode_csr(payload: &[u8]) -> Result<Csr> {
    let (weighted, n, m, arrays) = csr_header(payload)?;
    read_csr_arrays(arrays, n, m, weighted)
}

/// Shared tail of the v1 and v2 CSR decoders: reads the arrays from the
/// front of `arrays`, whose size the caller has checked, and validates
/// them.
fn read_csr_arrays(arrays: &[u8], n: usize, m: usize, weighted: bool) -> Result<Csr> {
    let (row_bytes, rest) = arrays.split_at((n + 1) * 8);
    let (col_bytes, rest) = rest.split_at(m * 4);
    let mut row_ptr = Vec::with_capacity(n + 1);
    for word in row_bytes.as_chunks().0 {
        row_ptr.push(to_usize(u64::from_le_bytes(*word), "row offset")?);
    }
    let col_idx: Vec<NodeId> = col_bytes
        .as_chunks()
        .0
        .iter()
        .map(|w| NodeId::new(u32::from_le_bytes(*w)))
        .collect();
    let weights = weighted.then(|| {
        rest[..m * 4]
            .as_chunks()
            .0
            .iter()
            .map(|w| u32::from_le_bytes(*w))
            .collect()
    });

    // Re-validate through explicit checks rather than the panicking
    // constructor: untrusted input gets format errors.
    if row_ptr.first() != Some(&0)
        || row_ptr.last() != Some(&m)
        || row_ptr.windows(2).any(|w| w[0] > w[1])
        || col_idx.iter().any(|c| c.index() >= n.max(1))
    {
        return Err(GraphError::InvalidFormat(
            "inconsistent CSR arrays in binary container".into(),
        ));
    }
    Ok(Csr::from_parts(row_ptr, col_idx, weights))
}

/// Serializes `g` into the current (`TIGRCSR2`) binary format as a
/// single-CSR container.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_binary<W: Write>(g: &Csr, writer: W) -> Result<()> {
    let sections = [SectionParts::csr(SECTION_CSR, g)];
    write_sections(&sections, &checksums(&sections), writer)
}

/// Serializes `g` into the legacy `TIGRCSR1` layout. Kept for
/// compatibility fixtures; new files should use [`write_binary`].
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_binary_v1<W: Write>(g: &Csr, writer: W) -> Result<()> {
    // The v1 stream is the v2 CSR payload with its 8-byte flags field
    // narrowed to one byte.
    let payload = encode_csr(g);
    let flags = if g.is_weighted() { FLAG_WEIGHTED } else { 0 };
    let mut out = BufWriter::new(writer);
    out.write_all(MAGIC_V1)?;
    out.write_all(&[flags])?;
    out.write_all(&payload[8..])?;
    out.flush()?;
    Ok(())
}

/// Deserializes a graph from either binary format, auto-detecting the
/// magic: legacy `TIGRCSR1` files keep loading (and upgrade to v2 the
/// next time they are saved), `TIGRCSR2` containers yield their CSR
/// section.
///
/// # Errors
///
/// Returns [`GraphError::InvalidFormat`] for bad magic, truncated
/// payloads, or inconsistent arrays, [`GraphError::Checksum`] for a
/// corrupt v2 section, and [`GraphError::Io`] on read failure.
pub fn read_binary<R: Read>(reader: R) -> Result<Csr> {
    let mut input = BufReader::new(reader);
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    if bytes.len() >= 8 && &bytes[..8] == MAGIC_V2 {
        let sections = parse_container(&bytes)?;
        let csr = find_section(&sections, SECTION_CSR)
            .ok_or_else(|| GraphError::InvalidFormat("container has no CSR section".into()))?;
        return decode_csr(&csr.payload);
    }
    read_binary_v1(&bytes)
}

/// The legacy `TIGRCSR1` reader over raw bytes.
fn read_binary_v1(bytes: &[u8]) -> Result<Csr> {
    let truncated = || GraphError::InvalidFormat("truncated header".into());
    if bytes.len() < 25 {
        return Err(truncated());
    }
    let (magic, rest) = bytes.split_first_chunk::<8>().ok_or_else(truncated)?;
    if magic != MAGIC_V1 {
        return Err(GraphError::InvalidFormat(format!(
            "bad magic {magic:?}, expected TIGRCSR1 or TIGRCSR2"
        )));
    }
    let (&[flags], rest) = rest.split_first_chunk().ok_or_else(truncated)?;
    let (n, rest) = rest.split_first_chunk().ok_or_else(truncated)?;
    let (m, arrays) = rest.split_first_chunk().ok_or_else(truncated)?;
    let weighted = flags & FLAG_WEIGHTED != 0;
    let n = to_usize(u64::from_le_bytes(*n), "node count")?;
    let m = to_usize(u64::from_le_bytes(*m), "edge count")?;
    check_csr_size(arrays, n, m, weighted, false)?;
    read_csr_arrays(arrays, n, m, weighted)
}

/// Writes `g` to `path` in binary form (v2 container).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on failure.
pub fn save_binary(g: &Csr, path: impl AsRef<Path>) -> Result<()> {
    write_binary(g, File::create(path)?)
}

/// Reads a graph from a binary file at `path` (either format version).
///
/// # Errors
///
/// See [`read_binary`].
pub fn load_binary(path: impl AsRef<Path>) -> Result<Csr> {
    read_binary(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    fn sample(weighted: bool) -> Csr {
        let mut b = CsrBuilder::new(5);
        if weighted {
            b.weighted_edge(0, 1, 3)
                .weighted_edge(0, 4, 9)
                .weighted_edge(3, 2, 1);
        } else {
            b.edge(0, 1).edge(0, 4).edge(3, 2);
        }
        b.build()
    }

    #[test]
    fn round_trips_weighted() {
        let g = sample(true);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn round_trips_unweighted() {
        let g = sample(false);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn round_trips_empty_graph() {
        let g = CsrBuilder::new(0).build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn legacy_v1_round_trips_through_autodetect() {
        for weighted in [false, true] {
            let g = sample(weighted);
            let mut buf = Vec::new();
            write_binary_v1(&g, &mut buf).unwrap();
            assert_eq!(&buf[..8], MAGIC_V1);
            assert_eq!(
                read_binary(buf.as_slice()).unwrap(),
                g,
                "weighted={weighted}"
            );
        }
    }

    #[test]
    fn v2_writes_are_deterministic() {
        let g = sample(true);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_binary(&g, &mut a).unwrap();
        write_binary(&g, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(&a[..8], MAGIC_V2);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(false), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_binary(buf.as_slice()).unwrap_err(),
            GraphError::InvalidFormat(_)
        ));
    }

    #[test]
    fn rejects_truncation() {
        let g = sample(true);
        let mut v2 = Vec::new();
        write_binary(&g, &mut v2).unwrap();
        v2.truncate(v2.len() - 3);
        assert!(read_binary(v2.as_slice()).is_err());

        let mut v1 = Vec::new();
        write_binary_v1(&g, &mut v1).unwrap();
        v1.truncate(v1.len() - 3);
        assert!(read_binary(v1.as_slice()).is_err());
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let mut buf = Vec::new();
        write_binary(&sample(false), &mut buf).unwrap();
        // Flip a byte in the payload region (after the 16 + 32 byte table).
        let idx = buf.len() - 1;
        buf[idx] ^= 0xFF;
        assert!(matches!(
            read_binary(buf.as_slice()).unwrap_err(),
            GraphError::Checksum {
                section: SECTION_CSR
            }
        ));
    }

    #[test]
    fn rejects_corrupted_row_ptr_in_v1() {
        let mut buf = Vec::new();
        write_binary_v1(&sample(false), &mut buf).unwrap();
        // Corrupt the first row_ptr entry (offset 25 in the v1 layout).
        buf[25] = 0xFF;
        assert!(matches!(
            read_binary(buf.as_slice()).unwrap_err(),
            GraphError::InvalidFormat(_)
        ));
    }

    #[test]
    fn decode_csr_rejects_inconsistent_arrays() {
        let g = sample(false);
        let mut payload = encode_csr(&g);
        // row_ptr[0] starts at byte 24; make it non-zero.
        payload[24] = 7;
        assert!(matches!(
            decode_csr(&payload).unwrap_err(),
            GraphError::InvalidFormat(_)
        ));
        // Oversized declared edge count must be caught by the byte budget.
        let mut payload = encode_csr(&g);
        payload[16] = 0xFF;
        assert!(decode_csr(&payload).is_err());
        // So must every strict prefix and a trailing byte.
        for weighted in [false, true] {
            let payload = encode_csr(&sample(weighted));
            for cut in 0..payload.len() {
                assert!(decode_csr(&payload[..cut]).is_err(), "cut {cut}");
            }
            let longer = [&payload[..], &[0]].concat();
            assert!(decode_csr(&longer).is_err());
        }
    }

    #[test]
    fn container_round_trips_multiple_sections() {
        let sections = vec![
            Section::new(SECTION_CSR, encode_csr(&sample(true))),
            Section::new(SECTION_SPEC, b"spec echo".to_vec()),
            Section::new(SECTION_TRANSPOSE, vec![1, 2, 3, 4, 5]),
        ];
        let mut buf = Vec::new();
        write_container(&sections, &mut buf).unwrap();
        let back = read_container(buf.as_slice()).unwrap();
        assert_eq!(back, sections);
        // Every payload sits at an 8-byte-aligned offset.
        let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        for entry in buf[16..16 + 32 * count].chunks_exact(32) {
            let offset = u64::from_le_bytes(entry[8..16].try_into().unwrap());
            assert_eq!(offset % 8, 0);
        }
    }

    #[test]
    fn container_bytes_are_the_documented_layout() {
        // A reference encoder written from the module docs alone: the
        // writer must produce these bytes whoever computed the checksums.
        let sections = [
            Section::new(SECTION_SPEC, b"spec echo".to_vec()),
            Section::new(SECTION_CSR, encode_csr(&sample(true))),
        ];
        let mut expected = Vec::new();
        expected.extend_from_slice(b"TIGRCSR2");
        expected.extend_from_slice(&2u32.to_le_bytes());
        expected.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = (16 + 32 * sections.len()).div_ceil(8) * 8;
        for s in &sections {
            expected.extend_from_slice(&s.id.to_le_bytes());
            expected.extend_from_slice(&0u32.to_le_bytes());
            expected.extend_from_slice(&(offset as u64).to_le_bytes());
            expected.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
            expected.extend_from_slice(&fnv1a64(&s.payload).to_le_bytes());
            offset = (offset + s.payload.len()).div_ceil(8) * 8;
        }
        for s in &sections {
            expected.resize(expected.len().div_ceil(8) * 8, 0);
            expected.extend_from_slice(&s.payload);
        }
        let mut written = Vec::new();
        write_container(&sections, &mut written).unwrap();
        assert_eq!(written, expected);
        assert_eq!(sections[1].checksum(), fnv1a64(&sections[1].payload));
    }

    #[test]
    fn container_rejects_escaping_section_range() {
        let mut buf = Vec::new();
        write_container(&[Section::new(SECTION_SPEC, vec![9; 16])], &mut buf).unwrap();
        // Inflate the declared length past the end of the file.
        buf[16 + 16] = 0xFF;
        assert!(matches!(
            read_container(buf.as_slice()).unwrap_err(),
            GraphError::InvalidFormat(_)
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("tigr_graph_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = sample(true);
        save_binary(&g, &path).unwrap();
        assert_eq!(load_binary(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_open_matches_owned_decode() {
        let dir = std::env::temp_dir().join("tigr_graph_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, weighted) in [("map_w.bin", true), ("map_u.bin", false)] {
            let path = dir.join(name);
            let g = sample(weighted);
            save_binary(&g, &path).unwrap();
            for verify in [VerifyMode::Eager, VerifyMode::Lazy] {
                let c = MappedContainer::open(&path, verify).unwrap();
                let mapped = c.csr(SECTION_CSR).unwrap().unwrap();
                assert_eq!(mapped, g, "verify={verify:?}");
                if cfg!(all(
                    unix,
                    target_endian = "little",
                    target_pointer_width = "64"
                )) {
                    assert!(c.is_mapped());
                    assert!(mapped.is_mapped());
                    assert_eq!(mapped.heap_bytes(), 0);
                    assert!(mapped.mapped_bytes() > 0);
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mapped_open_missing_section_is_none() {
        let mut buf = Vec::new();
        write_container(&[Section::new(SECTION_SPEC, b"spec".to_vec())], &mut buf).unwrap();
        let c =
            MappedContainer::from_segment(Arc::new(Segment::from(buf)), VerifyMode::Eager).unwrap();
        assert!(c.csr(SECTION_CSR).unwrap().is_none());
        assert_eq!(c.section_bytes(SECTION_SPEC).unwrap(), b"spec");
    }

    #[test]
    fn eager_mapped_open_catches_corruption_lazy_defers_it() {
        let mut buf = Vec::new();
        write_binary(&sample(true), &mut buf).unwrap();
        let idx = buf.len() - 1;
        buf[idx] ^= 0xFF;
        let seg = Arc::new(Segment::from(buf));
        assert!(matches!(
            MappedContainer::from_segment(Arc::clone(&seg), VerifyMode::Eager).unwrap_err(),
            GraphError::Checksum {
                section: SECTION_CSR
            }
        ));
        // Lazy skips hashing: the open succeeds and reads stay
        // bounds-checked; the corruption shows up as wrong data, which
        // is exactly the documented trade.
        let c = MappedContainer::from_segment(seg, VerifyMode::Lazy).unwrap();
        assert!(c.csr(SECTION_CSR).is_ok());
    }

    #[test]
    fn mapped_open_rejects_bad_tables() {
        let mut buf = Vec::new();
        write_binary(&sample(false), &mut buf).unwrap();
        // Misalign the payload offset.
        let mut bad = buf.clone();
        bad[16 + 8] = bad[16 + 8].wrapping_add(1);
        assert!(matches!(
            MappedContainer::from_segment(Arc::new(Segment::from(bad)), VerifyMode::Lazy)
                .unwrap_err(),
            GraphError::InvalidFormat(_)
        ));
        // Truncate mid-payload: the section range escapes the file.
        let mut short = buf.clone();
        short.truncate(short.len() - 4);
        assert!(
            MappedContainer::from_segment(Arc::new(Segment::from(short)), VerifyMode::Lazy)
                .is_err()
        );
    }

    #[test]
    fn oversized_counts_surface_as_typed_overflow() {
        // A v2 CSR payload claiming u64::MAX nodes: on 64-bit hosts the
        // byte budget rejects it; the checked conversion is what guards
        // 32-bit hosts. Either way the error is typed, never a panic.
        let g = sample(false);
        let mut payload = encode_csr(&g);
        payload[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_csr(&payload).unwrap_err();
        assert!(matches!(
            err,
            GraphError::InvalidFormat(_) | GraphError::Overflow { .. }
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn binary_is_denser_than_text() {
        let g = crate::generators::ring_lattice(200, 4);
        let mut bin = Vec::new();
        write_binary(&g, &mut bin).unwrap();
        let mut txt = Vec::new();
        crate::io::write_edge_list(&g, &mut txt).unwrap();
        // Not always true in general, but true for this shape; documents
        // the purpose of the binary cache.
        assert!(bin.len() < txt.len() * 4);
    }
}
