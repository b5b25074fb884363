//! The append-only mutation log.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! header  = "TIGRWAL1" version:u32 reserved:u32            (16 bytes)
//! record  = payload_len:u32 seq:u64 fnv1a64(payload):u64 payload
//! payload = tag:u8 fields:u32...                           (see MutationOp)
//! ```
//!
//! Appends batch any number of records into one `write` + one
//! `fsync`, so bulk ingest pays the durability cost per batch, not per
//! edge. Replay on open walks records until the first torn, corrupt,
//! undecodable, or non-monotone-sequence record and truncates the file
//! back to that boundary — the longest valid prefix always survives,
//! and recovery never panics on arbitrary bytes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tigr_graph::io::fnv1a64;

use crate::store::replace_file;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"TIGRWAL1";
const WAL_VERSION: u32 = 1;
const HEADER_LEN: usize = 16;
const RECORD_HEADER_LEN: usize = 20;
/// Largest accepted record payload. The widest op today encodes to 13
/// bytes; the cap bounds how far a corrupt length field can point.
const MAX_PAYLOAD: u32 = 64;

/// One durable graph mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOp {
    /// Add the directed edge `u → v` with weight `w` (`1` on unweighted
    /// graphs). Adding an edge that is already visible is a skip, not
    /// an error — which also makes stale-log replay convergent.
    AddEdge {
        /// Source node.
        u: u32,
        /// Destination node.
        v: u32,
        /// Edge weight.
        w: u32,
    },
    /// Remove one visible occurrence of the edge `u → v`. Removing an
    /// absent edge is a skip.
    RemoveEdge {
        /// Source node.
        u: u32,
        /// Destination node.
        v: u32,
    },
    /// Grow the graph to at least `nodes` nodes. The payload is the
    /// *target* count, not an increment, so replaying the op over an
    /// already-grown (compacted) base is an exact no-op.
    AddNode {
        /// Target minimum node count.
        nodes: u32,
    },
    /// Set the weight of the visible edge `u → v` to `w` (weighted
    /// graphs only). Setting a missing edge's weight is a skip.
    SetWeight {
        /// Source node.
        u: u32,
        /// Destination node.
        v: u32,
        /// New edge weight.
        w: u32,
    },
}

const TAG_ADD_EDGE: u8 = 1;
const TAG_REMOVE_EDGE: u8 = 2;
const TAG_ADD_NODE: u8 = 3;
const TAG_SET_WEIGHT: u8 = 4;

impl MutationOp {
    /// Stable lowercase label (`add-edge` / `remove-edge` / `add-node`
    /// / `set-weight`) used on the wire and in the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            MutationOp::AddEdge { .. } => "add-edge",
            MutationOp::RemoveEdge { .. } => "remove-edge",
            MutationOp::AddNode { .. } => "add-node",
            MutationOp::SetWeight { .. } => "set-weight",
        }
    }

    /// Encodes the op as a WAL record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13);
        match *self {
            MutationOp::AddEdge { u, v, w } => {
                out.push(TAG_ADD_EDGE);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
            }
            MutationOp::RemoveEdge { u, v } => {
                out.push(TAG_REMOVE_EDGE);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            MutationOp::AddNode { nodes } => {
                out.push(TAG_ADD_NODE);
                out.extend_from_slice(&nodes.to_le_bytes());
            }
            MutationOp::SetWeight { u, v, w } => {
                out.push(TAG_SET_WEIGHT);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a record payload; `None` for unknown tags, short or
    /// over-long payloads.
    pub fn decode(bytes: &[u8]) -> Option<MutationOp> {
        let u32_at = |i: usize| {
            bytes
                .get(i..i + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        };
        match (bytes.first()?, bytes.len()) {
            (&TAG_ADD_EDGE, 13) => Some(MutationOp::AddEdge {
                u: u32_at(1)?,
                v: u32_at(5)?,
                w: u32_at(9)?,
            }),
            (&TAG_REMOVE_EDGE, 9) => Some(MutationOp::RemoveEdge {
                u: u32_at(1)?,
                v: u32_at(5)?,
            }),
            (&TAG_ADD_NODE, 5) => Some(MutationOp::AddNode { nodes: u32_at(1)? }),
            (&TAG_SET_WEIGHT, 13) => Some(MutationOp::SetWeight {
                u: u32_at(1)?,
                v: u32_at(5)?,
                w: u32_at(9)?,
            }),
            _ => None,
        }
    }
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Valid records in log order, each with its sequence number.
    pub ops: Vec<(u64, MutationOp)>,
    /// Bytes discarded from the tail (torn/corrupt records, or the
    /// whole file when the header itself was unusable).
    pub truncated_bytes: u64,
}

/// An open, crash-safe mutation log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    records: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying every
    /// valid record and truncating any torn tail back to the last valid
    /// record boundary. An unreadable header resets the log to empty.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Wal, Recovery)> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let header_ok = bytes.len() >= HEADER_LEN
            && &bytes[..8] == WAL_MAGIC
            && u32::from_le_bytes(bytes[8..12].try_into().unwrap()) == WAL_VERSION;
        if !header_ok {
            let truncated_bytes = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes())?;
            file.sync_all()?;
            let wal = Wal {
                file,
                path,
                next_seq: 1,
                records: 0,
            };
            return Ok((
                wal,
                Recovery {
                    ops: Vec::new(),
                    truncated_bytes,
                },
            ));
        }

        let mut ops = Vec::new();
        let mut off = HEADER_LEN;
        let mut last_seq = 0u64;
        while let Some(header) = bytes.get(off..off + RECORD_HEADER_LEN) {
            let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
            if len == 0 || len > MAX_PAYLOAD {
                break;
            }
            let seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
            let sum = u64::from_le_bytes(header[12..20].try_into().unwrap());
            let Some(payload) = bytes
                .get(off + RECORD_HEADER_LEN..)
                .and_then(|rest| rest.get(..len as usize))
            else {
                break;
            };
            if fnv1a64(payload) != sum || seq <= last_seq {
                break;
            }
            let Some(op) = MutationOp::decode(payload) else {
                break;
            };
            ops.push((seq, op));
            last_seq = seq;
            off += RECORD_HEADER_LEN + len as usize;
        }

        let truncated_bytes = (bytes.len() - off) as u64;
        if truncated_bytes > 0 {
            file.set_len(off as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let wal = Wal {
            file,
            path,
            next_seq: last_seq + 1,
            records: ops.len() as u64,
        };
        Ok((
            wal,
            Recovery {
                ops,
                truncated_bytes,
            },
        ))
    }

    /// Appends `ops` as consecutive records and fsyncs once. Returns the
    /// sequence number assigned to the first op.
    pub fn append_batch(&mut self, ops: &[MutationOp]) -> io::Result<u64> {
        let first = self.next_seq;
        if ops.is_empty() {
            return Ok(first);
        }
        let mut buf = Vec::with_capacity(ops.len() * (RECORD_HEADER_LEN + 13));
        for (i, op) in ops.iter().enumerate() {
            encode_record(&mut buf, first + i as u64, op);
        }
        self.file.write_all(&buf)?;
        self.file.sync_all()?;
        self.next_seq += ops.len() as u64;
        self.records += ops.len() as u64;
        Ok(first)
    }

    /// Atomically replaces the log's contents with `ops` (keeping their
    /// original sequence numbers): written to a temp file, fsync'd, and
    /// renamed over the log, so a crash leaves either the old or the new
    /// log, never a mixture. Used by compaction to drop the sealed
    /// prefix.
    pub fn reset(&mut self, ops: &[(u64, MutationOp)]) -> io::Result<()> {
        let mut buf = header_bytes().to_vec();
        for (seq, op) in ops {
            encode_record(&mut buf, *seq, op);
        }
        let tmp = self.path.with_extension("log.tmp");
        replace_file(&self.path, &tmp, |file| file.write_all(&buf))?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.records = ops.len() as u64;
        self.next_seq = self.next_seq.max(ops.last().map_or(0, |(s, _)| s + 1));
        Ok(())
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// `true` when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The sequence number the next appended op will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

fn encode_record(buf: &mut Vec<u8>, seq: u64, op: &MutationOp) {
    let payload = op.encode();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tigr_wal_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("delta.log")
    }

    fn sample_ops() -> Vec<MutationOp> {
        vec![
            MutationOp::AddEdge { u: 0, v: 1, w: 4 },
            MutationOp::RemoveEdge { u: 1, v: 2 },
            MutationOp::AddNode { nodes: 40 },
            MutationOp::SetWeight { u: 0, v: 1, w: 9 },
            MutationOp::AddEdge { u: 39, v: 0, w: 1 },
        ]
    }

    #[test]
    fn ops_encode_decode_round_trip() {
        for op in sample_ops() {
            assert_eq!(MutationOp::decode(&op.encode()), Some(op));
        }
        // Unknown tag, short payload, and over-long payload all decode
        // to None rather than panicking.
        assert_eq!(MutationOp::decode(&[9, 0, 0, 0, 0]), None);
        assert_eq!(MutationOp::decode(&[TAG_ADD_EDGE, 1, 2]), None);
        assert_eq!(MutationOp::decode(&[]), None);
        let mut long = MutationOp::AddNode { nodes: 3 }.encode();
        long.push(0);
        assert_eq!(MutationOp::decode(&long), None);
    }

    #[test]
    fn append_and_reopen_replays_everything() {
        let path = temp_path("replay");
        let ops = sample_ops();
        {
            let (mut wal, rec) = Wal::open(&path).unwrap();
            assert!(rec.ops.is_empty());
            assert_eq!(wal.append_batch(&ops[..2]).unwrap(), 1);
            assert_eq!(wal.append_batch(&ops[2..]).unwrap(), 3);
            assert_eq!(wal.len(), 5);
        }
        let (wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(wal.len(), 5);
        assert_eq!(wal.next_seq(), 6);
        let replayed: Vec<MutationOp> = rec.ops.iter().map(|(_, op)| *op).collect();
        assert_eq!(replayed, ops);
        let seqs: Vec<u64> = rec.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn every_truncation_point_recovers_longest_valid_prefix() {
        let path = temp_path("truncate");
        let ops = sample_ops();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_batch(&ops).unwrap();
        }
        let full = fs::read(&path).unwrap();

        // Compute each record's end offset to know the expected prefix
        // for a cut at byte `t`.
        let mut ends = Vec::new();
        let mut off = HEADER_LEN;
        for op in &ops {
            off += RECORD_HEADER_LEN + op.encode().len();
            ends.push(off);
        }
        assert_eq!(off, full.len());

        for t in 0..=full.len() {
            let cut = path.parent().unwrap().join(format!("cut{t}.log"));
            fs::write(&cut, &full[..t]).unwrap();
            let (wal, rec) = Wal::open(&cut).unwrap();
            let expected = ends.iter().filter(|&&e| e <= t).count();
            assert_eq!(rec.ops.len(), expected, "cut at {t}");
            assert_eq!(wal.len(), expected as u64, "cut at {t}");
            for (i, (seq, op)) in rec.ops.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                assert_eq!(op, &ops[i]);
            }
            // The file was truncated back to a record boundary: a
            // second open recovers the identical prefix with no
            // further truncation.
            let (_, again) = Wal::open(&cut).unwrap();
            assert_eq!(again.truncated_bytes, 0, "cut at {t}");
            assert_eq!(again.ops, rec.ops, "cut at {t}");
        }
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn appends_work_after_torn_tail_recovery() {
        let path = temp_path("resume");
        let ops = sample_ops();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_batch(&ops).unwrap();
        }
        // Tear the last record in half.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.ops.len(), ops.len() - 1);
        assert!(rec.truncated_bytes > 0);
        // The sequence resumes after the last surviving record.
        let fresh = MutationOp::AddEdge { u: 7, v: 8, w: 1 };
        assert_eq!(wal.append_batch(&[fresh]).unwrap(), ops.len() as u64);

        let (_, rec2) = Wal::open(&path).unwrap();
        assert_eq!(rec2.ops.len(), ops.len());
        assert_eq!(rec2.ops.last().unwrap().1, fresh);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_byte_never_panics_and_keeps_prefix() {
        let path = temp_path("corrupt");
        let ops = sample_ops();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_batch(&ops).unwrap();
        }
        let full = fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut bytes = full.clone();
            bytes[i] ^= 0xA5;
            let cut = path.parent().unwrap().join("flip.log");
            fs::write(&cut, &bytes).unwrap();
            let (_, rec) = Wal::open(&cut).unwrap();
            // Every recovered record must be one of the originals in
            // prefix order (corruption can only shorten the log, never
            // invent or reorder ops — flipping a payload byte is caught
            // by the checksum).
            assert!(rec.ops.len() <= ops.len(), "flip at {i}");
            for (j, (_, op)) in rec.ops.iter().enumerate() {
                assert_eq!(op, &ops[j], "flip at {i}");
            }
        }
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn garbage_header_resets_to_empty_log() {
        let path = temp_path("garbage");
        fs::write(&path, b"not a wal at all, definitely longer than 16").unwrap();
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert!(rec.ops.is_empty());
        assert!(rec.truncated_bytes > 0);
        assert_eq!(wal.len(), 0);
        wal.append_batch(&[MutationOp::AddNode { nodes: 2 }])
            .unwrap();
        let (_, rec2) = Wal::open(&path).unwrap();
        assert_eq!(rec2.ops, vec![(1, MutationOp::AddNode { nodes: 2 })]);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn reset_keeps_only_tail_with_original_seqs() {
        let path = temp_path("reset");
        let ops = sample_ops();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_batch(&ops).unwrap();
        let tail = vec![(4, ops[3]), (5, ops[4])];
        wal.reset(&tail).unwrap();
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.next_seq(), 6);

        let (mut wal2, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.ops, tail);
        assert_eq!(rec.truncated_bytes, 0);
        // Appends continue past the retained sequence numbers.
        let op = MutationOp::RemoveEdge { u: 0, v: 1 };
        assert_eq!(wal2.append_batch(&[op]).unwrap(), 6);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// Committed regression corpus: byte patterns that previously (or
    /// plausibly could) confuse recovery, with the exact op count each
    /// must recover to. Payload checksums are FNV-1a64 over the payload
    /// bytes, spelled out literally so the fixture does not depend on
    /// the encoder under test.
    #[test]
    fn recovery_seed_corpus() {
        // fnv1a64([3, 2, 0, 0, 0]) — AddNode { nodes: 2 }.
        const ADD_NODE_2_SUM: [u8; 8] = [0x90, 0xda, 0x0f, 0xf6, 0xf2, 0xda, 0x75, 0xb1];
        let good_record: Vec<u8> = {
            let mut r = vec![5, 0, 0, 0]; // len
            r.extend_from_slice(&1u64.to_le_bytes()); // seq
            r.extend_from_slice(&ADD_NODE_2_SUM); // checksum
            r.extend_from_slice(&[3, 2, 0, 0, 0]); // payload
            r
        };
        let header = header_bytes().to_vec();

        let mut corpus: Vec<(&str, Vec<u8>, usize)> = vec![
            ("empty file", Vec::new(), 0),
            ("header only", header.clone(), 0),
            ("short header", WAL_MAGIC[..6].to_vec(), 0),
            (
                "one good record",
                [header.clone(), good_record.clone()].concat(),
                1,
            ),
        ];
        // Zero length field: must stop, not loop.
        corpus.push((
            "zero length field",
            [header.clone(), vec![0; RECORD_HEADER_LEN + 4]].concat(),
            0,
        ));
        // Huge length field: must stop, not allocate or scan past EOF.
        {
            let mut r = header.clone();
            r.extend_from_slice(&u32::MAX.to_le_bytes());
            r.extend_from_slice(&[0; 16]);
            corpus.push(("huge length field", r, 0));
        }
        // Duplicate sequence number on the second record: prefix of 1.
        {
            let mut r = [header.clone(), good_record.clone()].concat();
            r.extend_from_slice(&good_record); // same seq = 1 again
            corpus.push(("non-monotone seq", r, 1));
        }
        // Valid framing, unknown op tag: prefix of 0.
        {
            let payload = [9u8, 0, 0, 0, 0];
            let mut r = header.clone();
            r.extend_from_slice(&5u32.to_le_bytes());
            r.extend_from_slice(&1u64.to_le_bytes());
            r.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            r.extend_from_slice(&payload);
            corpus.push(("unknown op tag", r, 0));
        }

        for (name, bytes, expected) in corpus {
            let path = temp_path("corpus");
            fs::write(&path, &bytes).unwrap();
            let (wal, rec) = Wal::open(&path).unwrap();
            assert_eq!(rec.ops.len(), expected, "{name}");
            assert_eq!(wal.len(), expected as u64, "{name}");
            fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }
}
