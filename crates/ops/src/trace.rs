//! The binary trace format: the accepted-request stream of a serving run.
//!
//! A trace is the deterministic residue of a run: every frame a scheduler
//! core ingested, in per-channel ingest order, with enough metadata to
//! re-drive the same scheduler deterministically. The format mirrors the
//! wire protocol's length-prefix idiom (`hybridcast-server::frame`):
//!
//! ```text
//! file   := magic header record*
//! magic  := "HCT1" (4 bytes)
//! header := u32 LE payload length | header payload (fixed layout below)
//! record := u32 LE payload length | record payload (18 bytes)
//! ```
//!
//! Header payload (little-endian, fixed offsets):
//!
//! | off | size | field                |
//! |-----|------|----------------------|
//! | 0   | 2    | format version (= 1) |
//! | 2   | 8    | config hash          |
//! | 10  | 4    | channel count        |
//! | 14  | 8    | channel-plan digest  |
//! | 22  | 8    | unit_millis (f64)    |
//! | 30  | 4    | catalog size         |
//! | 34  | 1    | class count          |
//! | 35  | 4    | default deadline ms  |
//!
//! Record payload: arrival stamp (f64 broadcast units, 8) | item (u32, 4) |
//! class (u8, 1) | channel (u8, 1) | effective deadline ms (u32, 4; `0` =
//! no deadline — the default deadline is already resolved in).
//!
//! Writing happens on the scheduler threads with *bounded buffering*: each
//! channel core owns a [`TraceBuffer`] that encodes records into a local
//! byte buffer and hands full buffers to the shared [`TraceSink`] (one
//! `Mutex<BufWriter>` per file, the same sharing discipline as the JSONL
//! telemetry writer). The mutex is touched once per ~32 KiB of records,
//! not once per record, so recording stays off the per-request fast path's
//! critical section.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// File magic: "HCT1" — HybridCast Trace, format 1.
pub(crate) const MAGIC: [u8; 4] = *b"HCT1";
/// Current format version, embedded in the header.
pub const VERSION: u16 = 1;
/// Header payload length in bytes.
pub(crate) const HEADER_LEN: usize = 39;
/// Record payload length in bytes.
pub(crate) const RECORD_LEN: usize = 18;
/// Bytes a [`TraceBuffer`] accumulates locally before taking the shared
/// sink's lock (bounded buffering: a core never holds more than one
/// flush-unit of unwritten records).
pub(crate) const FLUSH_BYTES: usize = 32 * 1024;

/// Self-describing trace metadata, written as the file header.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Format version (see [`VERSION`]).
    pub version: u16,
    /// FNV-1a over the canonical serve-config JSON (see `digest`).
    pub config_hash: u64,
    /// Broadcast channels the recording daemon ran.
    pub channels: u32,
    /// FNV-1a over the item→channel assignment (see `digest`).
    pub plan_digest: u64,
    /// Wall milliseconds per broadcast unit during the recording.
    pub unit_millis: f64,
    /// Catalog size, bounding every record's item id.
    pub num_items: u32,
    /// Service-class count, bounding every record's class id.
    pub num_classes: u8,
    /// The daemon's default deadline at record time (informational; records
    /// carry their already-resolved effective deadline).
    pub default_deadline_ms: u32,
}

impl TraceMeta {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..2].copy_from_slice(&self.version.to_le_bytes());
        buf[2..10].copy_from_slice(&self.config_hash.to_le_bytes());
        buf[10..14].copy_from_slice(&self.channels.to_le_bytes());
        buf[14..22].copy_from_slice(&self.plan_digest.to_le_bytes());
        buf[22..30].copy_from_slice(&self.unit_millis.to_le_bytes());
        buf[30..34].copy_from_slice(&self.num_items.to_le_bytes());
        buf[34] = self.num_classes;
        buf[35..39].copy_from_slice(&self.default_deadline_ms.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8]) -> Result<TraceMeta, TraceError> {
        if buf.len() != HEADER_LEN {
            return Err(TraceError::BadHeader(format!(
                "header payload must be {HEADER_LEN} bytes, got {}",
                buf.len()
            )));
        }
        let meta = TraceMeta {
            version: u16::from_le_bytes(buf[0..2].try_into().expect("sized")),
            config_hash: u64::from_le_bytes(buf[2..10].try_into().expect("sized")),
            channels: u32::from_le_bytes(buf[10..14].try_into().expect("sized")),
            plan_digest: u64::from_le_bytes(buf[14..22].try_into().expect("sized")),
            unit_millis: f64::from_le_bytes(buf[22..30].try_into().expect("sized")),
            num_items: u32::from_le_bytes(buf[30..34].try_into().expect("sized")),
            num_classes: buf[34],
            default_deadline_ms: u32::from_le_bytes(buf[35..39].try_into().expect("sized")),
        };
        if meta.version != VERSION {
            return Err(TraceError::BadHeader(format!(
                "unsupported trace version {} (this build reads {VERSION})",
                meta.version
            )));
        }
        if !(meta.unit_millis.is_finite() && meta.unit_millis > 0.0) {
            return Err(TraceError::BadHeader(format!(
                "unit_millis must be positive and finite, got {}",
                meta.unit_millis
            )));
        }
        Ok(meta)
    }
}

/// One accepted request: the unit of record and replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Ingest stamp in broadcast units since daemon start.
    pub arrival: f64,
    /// Requested item id.
    pub item: u32,
    /// Service class id.
    pub class: u8,
    /// Broadcast channel whose core ingested the request.
    pub channel: u8,
    /// Effective deadline in wall ms (`0` = none; the daemon's default
    /// deadline is already substituted in).
    pub deadline_ms: u32,
}

impl TraceRecord {
    /// Encodes the record payload (no length prefix).
    pub fn encode(&self) -> [u8; RECORD_LEN] {
        let mut buf = [0u8; RECORD_LEN];
        buf[0..8].copy_from_slice(&self.arrival.to_le_bytes());
        buf[8..12].copy_from_slice(&self.item.to_le_bytes());
        buf[12] = self.class;
        buf[13] = self.channel;
        buf[14..18].copy_from_slice(&self.deadline_ms.to_le_bytes());
        buf
    }

    /// Decodes one record payload.
    pub fn decode(buf: &[u8]) -> Result<TraceRecord, TraceError> {
        if buf.len() != RECORD_LEN {
            return Err(TraceError::BadRecord(format!(
                "record payload must be {RECORD_LEN} bytes, got {}",
                buf.len()
            )));
        }
        let rec = TraceRecord {
            arrival: f64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            item: u32::from_le_bytes(buf[8..12].try_into().expect("sized")),
            class: buf[12],
            channel: buf[13],
            deadline_ms: u32::from_le_bytes(buf[14..18].try_into().expect("sized")),
        };
        if !rec.arrival.is_finite() || rec.arrival < 0.0 {
            return Err(TraceError::BadRecord(format!(
                "arrival stamp must be finite and non-negative, got {}",
                rec.arrival
            )));
        }
        Ok(rec)
    }
}

/// Why a trace failed to parse.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic, bad version, or a malformed header payload.
    BadHeader(String),
    /// A malformed or out-of-bounds record payload.
    BadRecord(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader(m) => write!(f, "bad trace header: {m}"),
            TraceError::BadRecord(m) => write!(f, "bad trace record: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The shared append sink: one per trace file, one lock per flush-unit.
#[derive(Debug)]
pub struct TraceSink {
    out: Mutex<BufWriter<File>>,
}

impl TraceSink {
    /// Creates the trace file (parent directories included) and writes the
    /// magic + header.
    pub fn create(path: &Path, meta: &TraceMeta) -> io::Result<Arc<TraceSink>> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&MAGIC)?;
        let payload = meta.encode();
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&payload)?;
        Ok(Arc::new(TraceSink { out: Mutex::new(w) }))
    }

    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut w = self.out.lock().expect("trace sink lock");
        w.write_all(bytes)
    }

    /// Flushes buffered bytes through to the file.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("trace sink lock").flush()
    }
}

/// A scheduler core's private record buffer over the shared sink.
///
/// Encoding is lock-free; the sink lock is taken once per `FLUSH_BYTES`
/// of encoded records. On a sink write error the buffer disables itself
/// (recording is observability, not correctness — the daemon keeps
/// serving) and remembers the error for the seal-time report.
#[derive(Debug)]
pub struct TraceBuffer {
    sink: Option<Arc<TraceSink>>,
    buf: Vec<u8>,
    records: u64,
    failed: bool,
}

impl TraceBuffer {
    /// A buffer appending to `sink`.
    pub fn new(sink: Arc<TraceSink>) -> TraceBuffer {
        TraceBuffer {
            sink: Some(sink),
            buf: Vec::with_capacity(FLUSH_BYTES + RECORD_LEN + 4),
            records: 0,
            failed: false,
        }
    }

    /// Appends one record, flushing to the sink when the local buffer
    /// reaches its bound.
    #[inline]
    pub fn push(&mut self, rec: &TraceRecord) {
        if self.sink.is_none() {
            return;
        }
        self.buf
            .extend_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        self.buf.extend_from_slice(&rec.encode());
        self.records += 1;
        if self.buf.len() >= FLUSH_BYTES {
            self.flush_to_sink();
        }
    }

    fn flush_to_sink(&mut self) {
        let Some(sink) = &self.sink else { return };
        if sink.append(&self.buf).is_err() {
            self.sink = None;
            self.failed = true;
        }
        self.buf.clear();
    }

    /// Records appended so far (including any lost to a write error).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// True when a sink write failed and recording was disabled.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Drains the remaining buffered records into the sink.
    pub fn finish(&mut self) {
        self.flush_to_sink();
        if let Some(sink) = &self.sink {
            if sink.flush().is_err() {
                self.failed = true;
            }
        }
    }
}

/// A fully parsed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The self-describing header.
    pub meta: TraceMeta,
    /// Records in file order (per-channel ingest order, channels
    /// interleaved by flush timing).
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Reads and validates a trace file: magic, header, every record's
    /// length prefix and bounds (item/class/channel against the header).
    pub fn read(path: &Path) -> Result<Trace, TraceError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Trace::parse(&bytes)
    }

    /// Writes the trace to `path` through the sink and buffer the daemon
    /// records with, so the file is byte for byte what a recording of
    /// these records would be and [`Trace::read`] returns `self`.
    pub fn write(&self, path: &Path) -> Result<(), TraceError> {
        let sink = TraceSink::create(path, &self.meta)?;
        let mut buf = TraceBuffer::new(sink);
        for rec in &self.records {
            buf.push(rec);
        }
        buf.finish();
        if buf.failed() {
            // The buffer keeps serving past a write error and drops it.
            return Err(io::Error::other(format!("write to {} failed", path.display())).into());
        }
        Ok(())
    }

    /// Parses a trace from memory (see [`Trace::read`]).
    pub fn parse(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(TraceError::BadHeader(
                "missing HCT1 magic — not a hybridcast trace".into(),
            ));
        }
        let mut off = MAGIC.len();
        let (len, rest) = read_prefixed(bytes, off)?;
        let meta = TraceMeta::decode(&bytes[rest..rest + len])?;
        off = rest + len;
        let mut records = Vec::new();
        while off < bytes.len() {
            let (len, rest) = read_prefixed(bytes, off)?;
            let rec = TraceRecord::decode(&bytes[rest..rest + len])?;
            if rec.item >= meta.num_items {
                return Err(TraceError::BadRecord(format!(
                    "item {} out of catalog bounds {}",
                    rec.item, meta.num_items
                )));
            }
            if rec.class >= meta.num_classes {
                return Err(TraceError::BadRecord(format!(
                    "class {} out of bounds {}",
                    rec.class, meta.num_classes
                )));
            }
            if rec.channel as u32 >= meta.channels {
                return Err(TraceError::BadRecord(format!(
                    "channel {} out of bounds {}",
                    rec.channel, meta.channels
                )));
            }
            records.push(rec);
            off = rest + len;
        }
        Ok(Trace { meta, records })
    }

    /// Records in global arrival order (stable across equal stamps, so the
    /// ordering is deterministic), the shape a simulator replay needs.
    pub fn sorted_by_arrival(&self) -> Vec<TraceRecord> {
        let mut recs = self.records.clone();
        recs.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).expect("finite stamps"));
        recs
    }
}

/// Reads a u32 LE length prefix at `off`, returning `(payload_len,
/// payload_offset)` after bounds checks.
fn read_prefixed(bytes: &[u8], off: usize) -> Result<(usize, usize), TraceError> {
    if off + 4 > bytes.len() {
        return Err(TraceError::BadRecord(
            "truncated length prefix at end of trace".into(),
        ));
    }
    let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("sized")) as usize;
    if len > 4096 {
        return Err(TraceError::BadRecord(format!(
            "implausible payload length {len}"
        )));
    }
    if off + 4 + len > bytes.len() {
        return Err(TraceError::BadRecord(
            "payload runs past end of trace".into(),
        ));
    }
    Ok((len, off + 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            version: VERSION,
            config_hash: 0xdead_beef_cafe_f00d,
            channels: 2,
            plan_digest: 0x0123_4567_89ab_cdef,
            unit_millis: 1.5,
            num_items: 100,
            num_classes: 3,
            default_deadline_ms: 250,
        }
    }

    fn write_trace(dir: &Path, records: &[TraceRecord]) -> std::path::PathBuf {
        let path = dir.join("t.hct");
        let trace = Trace {
            meta: meta(),
            records: records.to_vec(),
        };
        trace.write(&path).expect("write");
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hct-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    #[test]
    fn round_trips_records_and_meta() {
        let dir = tmpdir("roundtrip");
        let records = vec![
            TraceRecord {
                arrival: 0.5,
                item: 3,
                class: 0,
                channel: 0,
                deadline_ms: 100,
            },
            TraceRecord {
                arrival: 1.25,
                item: 99,
                class: 2,
                channel: 1,
                deadline_ms: 0,
            },
        ];
        let path = write_trace(&dir, &records);
        let trace = Trace::read(&path).expect("parse");
        assert_eq!(trace.meta, meta());
        assert_eq!(trace.records, records);
    }

    #[test]
    fn sorted_by_arrival_is_stable() {
        let dir = tmpdir("sorted");
        let records = vec![
            TraceRecord {
                arrival: 2.0,
                item: 1,
                class: 0,
                channel: 0,
                deadline_ms: 0,
            },
            TraceRecord {
                arrival: 1.0,
                item: 2,
                class: 1,
                channel: 1,
                deadline_ms: 0,
            },
            TraceRecord {
                arrival: 1.0,
                item: 3,
                class: 1,
                channel: 0,
                deadline_ms: 0,
            },
        ];
        let path = write_trace(&dir, &records);
        let sorted = Trace::read(&path).expect("parse").sorted_by_arrival();
        assert_eq!(sorted[0].item, 2, "equal stamps keep file order");
        assert_eq!(sorted[1].item, 3);
        assert_eq!(sorted[2].item, 1);
    }

    #[test]
    fn rejects_bad_magic_and_out_of_bounds_records() {
        assert!(matches!(
            Trace::parse(b"NOPE"),
            Err(TraceError::BadHeader(_))
        ));
        let dir = tmpdir("bounds");
        let path = write_trace(
            &dir,
            &[TraceRecord {
                arrival: 0.0,
                item: 100, // == num_items: out of bounds
                class: 0,
                channel: 0,
                deadline_ms: 0,
            }],
        );
        assert!(matches!(Trace::read(&path), Err(TraceError::BadRecord(_))));
    }

    #[test]
    fn rejects_truncated_files() {
        let dir = tmpdir("trunc");
        let path = write_trace(
            &dir,
            &[TraceRecord {
                arrival: 0.0,
                item: 0,
                class: 0,
                channel: 0,
                deadline_ms: 0,
            }],
        );
        let bytes = std::fs::read(&path).expect("read");
        for cut in [bytes.len() - 1, bytes.len() - RECORD_LEN - 2, 5] {
            assert!(
                Trace::parse(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn buffer_flushes_by_bound_not_per_record() {
        let dir = tmpdir("bound");
        let path = dir.join("bound.hct");
        let sink = TraceSink::create(&path, &meta()).expect("create");
        let mut buf = TraceBuffer::new(Arc::clone(&sink));
        let n = (FLUSH_BYTES / (RECORD_LEN + 4)) as u64 * 3 + 17;
        for i in 0..n {
            buf.push(&TraceRecord {
                arrival: i as f64 * 0.001,
                item: (i % 100) as u32,
                class: (i % 3) as u8,
                channel: (i % 2) as u8,
                deadline_ms: 0,
            });
        }
        buf.finish();
        assert_eq!(buf.records(), n);
        assert!(!buf.failed());
        let trace = Trace::read(&path).expect("parse");
        assert_eq!(trace.records.len() as u64, n);
    }
}
