//! The binary trace format: the accepted-request stream of a serving run.
//!
//! A trace is the deterministic residue of a run: every frame a scheduler
//! core ingested, in per-channel ingest order, with enough metadata to
//! re-drive the same scheduler deterministically. The format mirrors the
//! wire protocol's length-prefix idiom (`hybridcast-server::frame`):
//!
//! ```text
//! file   := magic header frame*
//! magic  := "HCT1" (4 bytes)
//! header := u32 LE payload length | header payload (fixed layout below)
//! frame  := u32 LE 18 | record payload (18 bytes)
//! ```
//!
//! Every record is one fixed 22-byte frame, so a valid file's record
//! section is a whole number of frames. A prefix other than 18 is an
//! error, reported as a length-prefixed reader would see it (an
//! implausible length, a payload past the end, or a payload of the wrong
//! size).
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
//! channel core owns a [`TraceBuffer`] that appends each record's frame to
//! a local byte buffer and hands full buffers to the shared [`TraceSink`]
//! (one `Mutex<BufWriter>` per file, the same sharing discipline as the
//! JSONL telemetry writer). The mutex is touched once per ~32 KiB of
//! records, not once per record, so recording stays off the per-request
//! fast path's critical section.
//!
//! Reading streams: [`Trace::read`] sizes the record vector once from the
//! file length and decodes the file a window of at most 64 KiB of whole
//! frames at a time, so it holds the records plus one window, never the
//! whole file. [`Trace::parse`] runs the same decoder over a slice.

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
/// A record frame: the length prefix, then the payload.
const FRAME_LEN: usize = 4 + RECORD_LEN;
/// Every record frame's length prefix.
const FRAME_PREFIX: [u8; 4] = (RECORD_LEN as u32).to_le_bytes();
/// Bytes a reader decodes per window: the most whole frames in 64 KiB.
const WINDOW_LEN: usize = 64 * 1024 / FRAME_LEN * FRAME_LEN;
/// Largest length prefix taken at face value; a larger one is an error.
const MAX_PAYLOAD: u32 = 4096;
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
        match buf.try_into() {
            Ok(payload) => TraceRecord::from_payload(payload),
            Err(_) => Err(payload_len_error(buf.len())),
        }
    }

    #[inline]
    fn from_payload(buf: &[u8; RECORD_LEN]) -> Result<TraceRecord, TraceError> {
        let rec = TraceRecord {
            arrival: f64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            item: u32::from_le_bytes(buf[8..12].try_into().expect("sized")),
            class: buf[12],
            channel: buf[13],
            deadline_ms: u32::from_le_bytes(buf[14..18].try_into().expect("sized")),
        };
        if !rec.arrival.is_finite() || rec.arrival < 0.0 {
            return Err(bad_arrival(rec.arrival));
        }
        Ok(rec)
    }

    /// The record as a file holds it: length prefix, then payload.
    fn frame(&self) -> [u8; FRAME_LEN] {
        let mut frame = [0u8; FRAME_LEN];
        frame[..4].copy_from_slice(&FRAME_PREFIX);
        frame[4..].copy_from_slice(&self.encode());
        frame
    }

    /// Decodes one frame of a trace with header `meta`: `frame` holds the
    /// next `min(FRAME_LEN, left)` bytes, `left` those up to the end of
    /// the trace.
    #[inline(always)]
    fn decode_frame(
        frame: &[u8],
        left: usize,
        meta: &TraceMeta,
    ) -> Result<TraceRecord, TraceError> {
        let Some((&FRAME_PREFIX, payload)) = frame.split_first_chunk::<4>() else {
            return Err(irregular_frame(frame, left));
        };
        let Ok(payload) = payload.try_into() else {
            return Err(irregular_frame(frame, left));
        };
        let rec = TraceRecord::from_payload(payload)?;
        if rec.item >= meta.num_items {
            return Err(out_of_bounds(
                "item",
                rec.item,
                "catalog bounds",
                meta.num_items,
            ));
        }
        if rec.class >= meta.num_classes {
            return Err(out_of_bounds(
                "class",
                rec.class.into(),
                "bounds",
                meta.num_classes.into(),
            ));
        }
        if rec.channel as u32 >= meta.channels {
            return Err(out_of_bounds(
                "channel",
                rec.channel.into(),
                "bounds",
                meta.channels,
            ));
        }
        Ok(rec)
    }
}

// Record errors are formatted out of line, from values rather than
// references, so the decode loop keeps each record in registers.

#[cold]
#[inline(never)]
fn bad_arrival(arrival: f64) -> TraceError {
    TraceError::BadRecord(format!(
        "arrival stamp must be finite and non-negative, got {arrival}"
    ))
}

#[cold]
#[inline(never)]
fn out_of_bounds(field: &str, value: u32, bounds: &str, bound: u32) -> TraceError {
    TraceError::BadRecord(format!("{field} {value} out of {bounds} {bound}"))
}

fn payload_len_error(len: usize) -> TraceError {
    TraceError::BadRecord(format!(
        "record payload must be {RECORD_LEN} bytes, got {len}"
    ))
}

/// Why a frame whose prefix is not [`FRAME_PREFIX`], or that the trace
/// cuts short, is refused: what a reader taking the prefix as a length
/// would find. `frame` and `left` are as in [`TraceRecord::decode_frame`].
#[cold]
fn irregular_frame(frame: &[u8], left: usize) -> TraceError {
    let Some(prefix) = frame.first_chunk::<4>() else {
        return TraceError::BadRecord("truncated length prefix at end of trace".into());
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_PAYLOAD {
        return TraceError::BadRecord(format!("implausible payload length {len}"));
    }
    if 4 + len as usize > left {
        return TraceError::BadRecord("payload runs past end of trace".into());
    }
    payload_len_error(len as usize)
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
            buf: Vec::with_capacity(FLUSH_BYTES + FRAME_LEN),
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
        self.buf.extend_from_slice(&rec.frame());
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
    /// frame and bounds (item/class/channel against the header).
    ///
    /// The file streams through one window of at most 64 KiB into a record
    /// vector sized once from the file length. A file that is not a regular
    /// file (a pipe) has no length to size by and is read whole first.
    pub fn read(path: &Path) -> Result<Trace, TraceError> {
        let mut file = File::open(path)?;
        let stat = file.metadata()?;
        if !stat.is_file() {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            return Trace::parse(&bytes);
        }
        let total = usize::try_from(stat.len()).map_err(io::Error::other)?;
        let mut window = Window {
            file,
            buf: vec![0; total.min(WINDOW_LEN)],
        };
        Trace::decode(&mut window, total)
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
    pub fn parse(mut bytes: &[u8]) -> Result<Trace, TraceError> {
        let total = bytes.len();
        Trace::decode(&mut bytes, total)
    }

    /// The one decoder: the `total` bytes of a trace, taken from `src` in
    /// windows of whole frames.
    fn decode(src: &mut impl Source, total: usize) -> Result<Trace, TraceError> {
        let head = src.take(total.min(MAGIC.len() + 4))?;
        if !head.starts_with(&MAGIC) {
            return Err(TraceError::BadHeader(
                "missing HCT1 magic — not a hybridcast trace".into(),
            ));
        }
        let Ok(prefix) = <[u8; 4]>::try_from(&head[MAGIC.len()..]) else {
            return Err(TraceError::BadHeader(
                "truncated header length prefix".into(),
            ));
        };
        let len = u32::from_le_bytes(prefix);
        if len > MAX_PAYLOAD {
            return Err(TraceError::BadHeader(format!(
                "implausible header length {len}"
            )));
        }
        let len = len as usize;
        let Some(mut left) = total.checked_sub(MAGIC.len() + 4 + len) else {
            return Err(TraceError::BadHeader(
                "header runs past end of trace".into(),
            ));
        };
        let meta = TraceMeta::decode(src.take(len)?)?;
        let mut records = Vec::with_capacity(left / FRAME_LEN);
        while left > 0 {
            let window = src.take(left.min(WINDOW_LEN))?;
            for (i, frame) in window.chunks(FRAME_LEN).enumerate() {
                records.push(TraceRecord::decode_frame(
                    frame,
                    left - i * FRAME_LEN,
                    &meta,
                )?);
            }
            left -= window.len();
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

/// Where [`Trace::decode`] takes its bytes from.
trait Source {
    /// The next `n` bytes; `n` is at most [`WINDOW_LEN`] and at most what
    /// is left.
    fn take(&mut self, n: usize) -> io::Result<&[u8]>;
}

impl Source for &[u8] {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let (head, rest) = self.split_at(n);
        *self = rest;
        Ok(head)
    }
}

/// A file read through one reused buffer of at most [`WINDOW_LEN`] bytes.
struct Window {
    file: File,
    buf: Vec<u8>,
}

impl Source for Window {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let buf = &mut self.buf[..n];
        self.file.read_exact(buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_sim::rng::splitmix64;

    /// Whole frames in one read window.
    const WINDOW_FRAMES: usize = WINDOW_LEN / FRAME_LEN;

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

    /// The file bytes of a trace, encoded field by field from the format
    /// table in the module docs rather than through the codec under test.
    fn reference_bytes(meta: &TraceMeta, records: &[TraceRecord]) -> Vec<u8> {
        let mut out = b"HCT1".to_vec();
        out.extend_from_slice(&39u32.to_le_bytes());
        out.extend_from_slice(&meta.version.to_le_bytes());
        out.extend_from_slice(&meta.config_hash.to_le_bytes());
        out.extend_from_slice(&meta.channels.to_le_bytes());
        out.extend_from_slice(&meta.plan_digest.to_le_bytes());
        out.extend_from_slice(&meta.unit_millis.to_le_bytes());
        out.extend_from_slice(&meta.num_items.to_le_bytes());
        out.push(meta.num_classes);
        out.extend_from_slice(&meta.default_deadline_ms.to_le_bytes());
        for rec in records {
            out.extend_from_slice(&18u32.to_le_bytes());
            out.extend_from_slice(&rec.arrival.to_le_bytes());
            out.extend_from_slice(&rec.item.to_le_bytes());
            out.push(rec.class);
            out.push(rec.channel);
            out.extend_from_slice(&rec.deadline_ms.to_le_bytes());
        }
        out
    }

    /// `n` random records valid under [`meta`]; every seventh takes the
    /// lowest arrival and the highest ids, the one after a huge arrival.
    fn random_records(seed: u64, n: usize) -> Vec<TraceRecord> {
        let m = meta();
        let mut state = seed;
        let mut next = move |bound: u64| splitmix64(&mut state) % bound;
        (0..n)
            .map(|i| match i % 7 {
                0 => TraceRecord {
                    arrival: 0.0,
                    item: m.num_items - 1,
                    class: m.num_classes - 1,
                    channel: (m.channels - 1) as u8,
                    deadline_ms: u32::MAX,
                },
                1 => TraceRecord {
                    arrival: 1e300,
                    item: 0,
                    class: 0,
                    channel: 0,
                    deadline_ms: 0,
                },
                _ => TraceRecord {
                    arrival: next(1 << 40) as f64 / 1024.0,
                    item: next(m.num_items as u64) as u32,
                    class: next(m.num_classes as u64) as u8,
                    channel: next(m.channels as u64) as u8,
                    deadline_ms: next(1 << 32) as u32,
                },
            })
            .collect()
    }

    /// `Trace::read` of `bytes` as a file, and `Trace::parse` of them.
    type Both = (Result<Trace, String>, Result<Trace, String>);
    fn read_and_parse(dir: &Path, bytes: &[u8]) -> Both {
        let path = dir.join("case.hct");
        std::fs::write(&path, bytes).expect("write case");
        (
            Trace::read(&path).map_err(|e| e.to_string()),
            Trace::parse(bytes).map_err(|e| e.to_string()),
        )
    }

    #[test]
    fn read_and_parse_agree_and_write_matches_a_reference_encoder() {
        let dir = tmpdir("agree");
        let path = dir.join("t.hct");
        let mut counts = vec![0, 1];
        for windows in 1..=3 {
            let n = windows * WINDOW_FRAMES;
            counts.extend([n - 1, n, n + 1]);
        }
        for (seed, n) in counts.into_iter().enumerate() {
            let trace = Trace {
                meta: meta(),
                records: random_records(seed as u64, n),
            };
            trace.write(&path).expect("write");
            let bytes = std::fs::read(&path).expect("read bytes");
            assert!(
                bytes == reference_bytes(&trace.meta, &trace.records),
                "{n} records: the written file differs from the reference"
            );
            let read = Trace::read(&path).expect("read");
            assert_eq!(read, Trace::parse(&bytes).expect("parse"), "{n} records");
            assert_eq!(read, trace, "{n} records");
        }
    }

    #[test]
    fn read_and_parse_report_the_same_record_error() {
        let dir = tmpdir("errors");
        let good = reference_bytes(&meta(), &random_records(7, 10_010));
        let frame_at = |i: usize| MAGIC.len() + 4 + HEADER_LEN + i * FRAME_LEN;
        // The good file with `bytes` written `off` bytes into frame `i`.
        let with = |i: usize, off: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[frame_at(i) + off..][..bytes.len()].copy_from_slice(bytes);
            b
        };
        let window_end = frame_at(WINDOW_FRAMES);
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "prefix 17",
                with(5, 0, &17u32.to_le_bytes()),
                "record payload must be 18 bytes, got 17",
            ),
            (
                "prefix 0",
                with(5, 0, &0u32.to_le_bytes()),
                "record payload must be 18 bytes, got 0",
            ),
            (
                "prefix 4096",
                with(5, 0, &4096u32.to_le_bytes()),
                "record payload must be 18 bytes, got 4096",
            ),
            (
                "prefix 5000",
                with(5, 0, &5000u32.to_le_bytes()),
                "implausible payload length 5000",
            ),
            (
                "prefix 19 at the end",
                with(10_009, 0, &19u32.to_le_bytes()),
                "payload runs past end of trace",
            ),
            (
                "cut 1 before a window's end",
                good[..window_end - 1].to_vec(),
                "payload runs past end of trace",
            ),
            (
                "cut 1 past a window's end",
                good[..window_end + 1].to_vec(),
                "truncated length prefix at end of trace",
            ),
            (
                "cut at a payload's start",
                good[..window_end + 4].to_vec(),
                "payload runs past end of trace",
            ),
            (
                "cut 1 into a payload",
                good[..window_end + 5].to_vec(),
                "payload runs past end of trace",
            ),
            (
                "NaN arrival",
                with(5, 4, &f64::NAN.to_le_bytes()),
                "arrival stamp must be finite and non-negative, got NaN",
            ),
            (
                "negative arrival",
                with(5, 4, &(-1.5f64).to_le_bytes()),
                "arrival stamp must be finite and non-negative, got -1.5",
            ),
            (
                "infinite arrival",
                with(5, 4, &f64::INFINITY.to_le_bytes()),
                "arrival stamp must be finite and non-negative, got inf",
            ),
            (
                "item out of bounds",
                with(5, 12, &100u32.to_le_bytes()),
                "item 100 out of catalog bounds 100",
            ),
            (
                "class out of bounds",
                with(5, 16, &[3]),
                "class 3 out of bounds 3",
            ),
            (
                "channel out of bounds",
                with(5, 17, &[2]),
                "channel 2 out of bounds 2",
            ),
            (
                "bad after 10 000 good",
                with(10_000, 16, &[9]),
                "class 9 out of bounds 3",
            ),
        ];
        for (name, bytes, want) in cases {
            let (read, parse) = read_and_parse(&dir, &bytes);
            assert_eq!(read, parse, "{name}");
            assert_eq!(parse, Err(format!("bad trace record: {want}")), "{name}");
        }
        // A cut exactly at a window's end leaves whole frames: a valid trace.
        let (read, parse) = read_and_parse(&dir, &good[..window_end]);
        assert_eq!(read, parse);
        assert_eq!(parse.expect("whole frames").records.len(), WINDOW_FRAMES);
    }

    #[test]
    fn every_cut_inside_the_header_is_a_header_fault() {
        let dir = tmpdir("header");
        let bytes = reference_bytes(&meta(), &[]);
        assert_eq!(bytes.len(), MAGIC.len() + 4 + HEADER_LEN);
        for cut in 0..bytes.len() {
            let (read, parse) = read_and_parse(&dir, &bytes[..cut]);
            assert_eq!(read, parse, "cut at {cut}");
            let msg = parse.expect_err("a cut header is refused");
            assert!(msg.starts_with("bad trace header: "), "cut at {cut}: {msg}");
        }
        let header_err = |bytes: &[u8]| Trace::parse(bytes).map_err(|e| e.to_string());
        assert_eq!(
            header_err(b"HCT1\x27\x00"),
            Err("bad trace header: truncated header length prefix".into())
        );
        let mut long = bytes.clone();
        long[4..8].copy_from_slice(&5000u32.to_le_bytes());
        assert_eq!(
            header_err(&long),
            Err("bad trace header: implausible header length 5000".into())
        );
        assert_eq!(
            header_err(&bytes[..10]),
            Err("bad trace header: header runs past end of trace".into())
        );
        assert_eq!(header_err(&bytes).map(|t| t.records.len()), Ok(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pipe_is_read_whole() {
        use std::os::fd::AsRawFd;
        let trace = Trace {
            meta: meta(),
            records: random_records(3, 100),
        };
        let bytes = reference_bytes(&trace.meta, &trace.records);
        let (reader, mut writer) = io::pipe().expect("pipe");
        let path = std::path::PathBuf::from(format!("/proc/self/fd/{}", reader.as_raw_fd()));
        let read = std::thread::scope(|s| {
            s.spawn(move || writer.write_all(&bytes).expect("fill the pipe"));
            Trace::read(&path)
        });
        assert_eq!(read.expect("read from a pipe"), trace);
    }
}
