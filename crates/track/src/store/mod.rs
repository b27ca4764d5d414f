//! Durable, replayable zone-history storage.
//!
//! The paper's tracking applications are long campaigns: a site daemon
//! that loses its zone history on restart, or holds it all in RAM
//! forever, is not deployable. [`ZoneHistoryStore`] is the fix — an
//! append-only, segmented log of [`Record`]s with per-record CRC-32
//! framing, deterministic serialization ([`codec`]), crash recovery
//! with explicit torn-tail semantics, and a per-object span index over
//! segments (keyed by [`index::time_key`]) answering
//! `location_at(object, t)` point queries in `O(log n)` probes plus one
//! bounded segment read. Each object's spans are one flat list, sorted
//! by construction because segments close in order and appends are
//! time-ordered, so indexing a segment pushes and a query is one
//! `partition_point`. Replay streams the log one segment at a time
//! ([`ZoneHistoryStore::visit_segments`]); every segment it reads is
//! checked again, CRC and decode, exactly as recovery checked it.
//!
//! # On-disk format
//!
//! A store directory holds segment files `seg-00000000.rzh`,
//! `seg-00000001.rzh`, … (indices contiguous from zero). Each file is:
//!
//! ```text
//! header:  magic "RZH1" (4) · segment index u32 LE (4) · base seq u64 LE (8)
//! frame*:  payload len u32 LE (4) · CRC-32 of payload u32 LE (4) · payload
//! ```
//!
//! Payloads are [`codec`] records. Appends must be non-decreasing in
//! event time (the site daemon's merge releases events in canonical
//! time order, so this holds by construction); that monotonicity is
//! what makes the per-segment span index sound.
//!
//! # Recovery invariants
//!
//! * A **torn tail** — the *final* segment ends mid-frame, or its last
//!   frames fail CRC/decode — recovers the clean prefix bit-exactly,
//!   truncates the torn bytes, and reports them in [`RecoveryReport`].
//! * **Corruption in any non-final segment** (bad header, CRC
//!   mismatch, undecodable payload) is a typed
//!   [`StoreError::CorruptSegment`]: history with a hole in the middle
//!   is never silently reassembled.
//! * A **missing segment** below the highest index is a typed
//!   [`StoreError::MissingSegment`]; a deleted *final* segment simply
//!   recovers the shorter valid prefix.
//! * Recovery never panics on hostile bytes: every failure mode is a
//!   typed error or a reported truncation.

pub mod codec;
pub mod index;

pub use codec::{crc32, decode_record, encode_record, CodecError, Record};
pub use index::{time_key, ZoneHistoryIndex};

use crate::constraints::ZoneObservation;
use crate::registry::ObjectHandle;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

const MAGIC: [u8; 4] = *b"RZH1";
const HEADER_LEN: usize = 16;
const FRAME_OVERHEAD: usize = 8;
/// Upper bound on a sane record payload; a frame length beyond it is
/// treated as corruption rather than attempted as an allocation.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// Store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Records per segment file before rotation. Smaller segments mean
    /// finer-grained point queries and recovery units; larger segments
    /// mean fewer files. The open segment's records are kept in memory
    /// until rotation, so this also bounds the store's resident tail.
    pub records_per_segment: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            records_per_segment: 1024,
        }
    }
}

/// What [`ZoneHistoryStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segment files recovered (including the reopened tail segment).
    pub segments: usize,
    /// Total records recovered across all segments.
    pub records: u64,
    /// Torn bytes truncated from the final segment, if any.
    pub truncated_bytes: u64,
}

/// A typed store failure. I/O and corruption surface as values — the
/// store never panics on bad bytes or a bad disk.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An operating-system I/O failure at `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error, stringified (kept `Clone`/`PartialEq`).
        detail: String,
    },
    /// Segment `index` is absent while a higher-numbered segment
    /// exists: the log has a hole and cannot be replayed faithfully.
    MissingSegment {
        /// The absent segment index.
        index: u32,
    },
    /// Segment `index` holds bytes that are not a valid segment: bad
    /// magic, wrong index or base sequence, a CRC mismatch, or an
    /// undecodable record below the final segment.
    CorruptSegment {
        /// The corrupt segment index.
        index: u32,
        /// What failed to parse.
        detail: String,
    },
    /// The record carries a non-finite event time; the store's total
    /// order over times cannot represent it.
    NonFiniteTime {
        /// The offending time.
        time_s: f64,
    },
    /// The record's event time is behind the newest appended time; the
    /// store only accepts time-ordered appends.
    OutOfOrder {
        /// The offending time.
        time_s: f64,
        /// The store's current high-water time.
        high_s: f64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => {
                write!(f, "store I/O error at {}: {detail}", path.display())
            }
            StoreError::MissingSegment { index } => {
                write!(f, "segment {index} is missing from the store directory")
            }
            StoreError::CorruptSegment { index, detail } => {
                write!(f, "segment {index} is corrupt: {detail}")
            }
            StoreError::NonFiniteTime { time_s } => {
                write!(f, "record time {time_s} is not finite")
            }
            StoreError::OutOfOrder { time_s, high_s } => {
                write!(
                    f,
                    "record time {time_s} is behind the store high-water time {high_s}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_error(path: &Path, err: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: err.to_string(),
    }
}

/// A fully-written, immutable segment.
#[derive(Debug)]
struct ClosedSegment {
    base_seq: u64,
    records: u64,
    path: PathBuf,
}

/// The segment currently accepting appends. Its records stay in memory
/// (bounded by [`StoreConfig::records_per_segment`]) so queries over
/// the tail never touch the disk.
#[derive(Debug)]
struct OpenSegment {
    index: u32,
    base_seq: u64,
    path: PathBuf,
    writer: BufWriter<File>,
    records: Vec<Record>,
}

/// An append-only, segmented, CRC-framed zone-history log with
/// `O(log n)` point-in-time location queries. See the module docs for
/// the format and recovery contract.
#[derive(Debug)]
pub struct ZoneHistoryStore {
    dir: PathBuf,
    config: StoreConfig,
    closed: Vec<ClosedSegment>,
    /// Per object: `(first time key in segment, segment index)` for
    /// every *closed* segment containing it. Spans are pushed in
    /// segment order and appends are time-ordered, so each list is
    /// sorted by both fields by construction — a `partition_point`
    /// lands on the newest segment whose first observation is at or
    /// before `t`.
    spans: BTreeMap<usize, Vec<(u64, u32)>>,
    open: Option<OpenSegment>,
    next_seq: u64,
    high_s: Option<f64>,
    recovery: RecoveryReport,
}

/// One parsed segment plus the byte length of its clean prefix.
struct ParsedSegment {
    base_seq: u64,
    records: Vec<Record>,
    clean_len: u64,
    torn_bytes: u64,
}

/// Parses segment bytes. With `tolerate_torn_tail`, frame-level
/// failures end the parse at the clean prefix (reported via
/// `torn_bytes`); otherwise they are [`StoreError::CorruptSegment`].
/// Header failures are always corruption, except a short header on a
/// torn-tolerant parse (a crash during segment creation), which
/// recovers zero records.
fn parse_segment(
    bytes: &[u8],
    segment_index: u32,
    expected_base_seq: u64,
    tolerate_torn_tail: bool,
) -> Result<ParsedSegment, StoreError> {
    let corrupt = |detail: String| StoreError::CorruptSegment {
        index: segment_index,
        detail,
    };
    if bytes.len() < HEADER_LEN {
        if tolerate_torn_tail {
            return Ok(ParsedSegment {
                base_seq: expected_base_seq,
                records: Vec::new(),
                clean_len: 0,
                torn_bytes: bytes.len() as u64,
            });
        }
        return Err(corrupt(format!(
            "{}-byte file is shorter than the header",
            bytes.len()
        )));
    }
    if bytes[..4] != MAGIC {
        return Err(corrupt("bad magic".to_owned()));
    }
    let mut raw4 = [0u8; 4];
    raw4.copy_from_slice(&bytes[4..8]);
    let stored_index = u32::from_le_bytes(raw4);
    if stored_index != segment_index {
        return Err(corrupt(format!(
            "header claims segment {stored_index}, file name says {segment_index}"
        )));
    }
    let mut raw8 = [0u8; 8];
    raw8.copy_from_slice(&bytes[8..16]);
    let base_seq = u64::from_le_bytes(raw8);
    if base_seq != expected_base_seq {
        return Err(corrupt(format!(
            "header claims base sequence {base_seq}, preceding segments hold {expected_base_seq}"
        )));
    }

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    loop {
        if offset == bytes.len() {
            break;
        }
        let frame_fault = |detail: String| -> Result<bool, StoreError> {
            if tolerate_torn_tail {
                Ok(true)
            } else {
                Err(corrupt(detail))
            }
        };
        // `frame_fault` never falls through on a hit: it breaks (torn
        // tail tolerated) or propagates corruption, so the slice reads
        // below each check stay in bounds.
        if bytes.len() - offset < FRAME_OVERHEAD
            && frame_fault(format!("truncated frame header at byte {offset}"))?
        {
            break;
        }
        raw4.copy_from_slice(&bytes[offset..offset + 4]);
        let len = u32::from_le_bytes(raw4);
        raw4.copy_from_slice(&bytes[offset + 4..offset + 8]);
        let stored_crc = u32::from_le_bytes(raw4);
        if len > MAX_RECORD_LEN
            && frame_fault(format!(
                "frame length {len} at byte {offset} exceeds the record cap"
            ))?
        {
            break;
        }
        let body = offset + FRAME_OVERHEAD;
        let end = body + len as usize;
        if end > bytes.len() && frame_fault(format!("truncated record at byte {offset}"))? {
            break;
        }
        let payload = &bytes[body..end];
        if crc32(payload) != stored_crc && frame_fault(format!("CRC mismatch at byte {offset}"))? {
            break;
        }
        match decode_record(payload) {
            Ok(record) => records.push(record),
            Err(err) => {
                if frame_fault(format!("undecodable record at byte {offset}: {err}"))? {
                    break;
                }
            }
        }
        offset = end;
    }
    Ok(ParsedSegment {
        base_seq,
        records,
        clean_len: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
    })
}

fn segment_file_name(index: u32) -> String {
    format!("seg-{index:08}.rzh")
}

/// Parses a `seg-XXXXXXXX.rzh` file name back to its index.
fn segment_index_of(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".rzh")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

impl ZoneHistoryStore {
    /// Opens (or creates) a store at `dir`, running recovery over any
    /// existing segments. See the module docs for recovery semantics.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure,
    /// [`StoreError::MissingSegment`] if the segment sequence has a
    /// hole, [`StoreError::CorruptSegment`] on corruption below the
    /// final segment (or a corrupt header anywhere).
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_error(&dir, &e))?;
        let mut indices: Vec<u32> = fs::read_dir(&dir)
            .map_err(|e| io_error(&dir, &e))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                segment_index_of(&entry.file_name().to_string_lossy())
            })
            .collect();
        indices.sort_unstable();

        let mut store = Self {
            dir,
            config,
            closed: Vec::new(),
            spans: BTreeMap::new(),
            open: None,
            next_seq: 0,
            high_s: None,
            recovery: RecoveryReport::default(),
        };
        let last = indices.last().copied();
        for (expected, &found) in indices.iter().enumerate() {
            let expected = u32::try_from(expected)
                .map_err(|_| StoreError::MissingSegment { index: u32::MAX })?;
            if found != expected {
                return Err(StoreError::MissingSegment { index: expected });
            }
            store.recover_segment(found, Some(found) == last)?;
        }
        store.recovery.segments = indices.len();
        Ok(store)
    }

    /// Reads, validates, and registers one existing segment.
    fn recover_segment(&mut self, index: u32, is_last: bool) -> Result<(), StoreError> {
        let path = self.dir.join(segment_file_name(index));
        let bytes = fs::read(&path).map_err(|e| io_error(&path, &e))?;
        let parsed = parse_segment(&bytes, index, self.next_seq, is_last)?;
        for record in &parsed.records {
            let time_s = record.time_s();
            // Stored times were validated at append; a finite check here
            // keeps hostile hand-written files from poisoning the order.
            if !time_s.is_finite() {
                return Err(StoreError::CorruptSegment {
                    index,
                    detail: format!("record carries non-finite time {time_s}"),
                });
            }
            if self.high_s.is_some_and(|high| time_s < high) {
                return Err(StoreError::CorruptSegment {
                    index,
                    detail: "records are not time-ordered".to_owned(),
                });
            }
            self.high_s = Some(time_s);
        }
        self.recovery.records += parsed.records.len() as u64;
        self.recovery.truncated_bytes += parsed.torn_bytes;
        let base_seq = parsed.base_seq;
        self.next_seq = base_seq + parsed.records.len() as u64;

        let reopen_as_tail = is_last && parsed.records.len() < self.config.records_per_segment;
        if reopen_as_tail {
            if parsed.torn_bytes > 0 {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_error(&path, &e))?;
                file.set_len(parsed.clean_len)
                    .map_err(|e| io_error(&path, &e))?;
            }
            let mut file = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_error(&path, &e))?;
            if parsed.clean_len == 0 {
                // The crash tore the header itself; rewrite it.
                write_header(&mut file, &path, index, base_seq)?;
            }
            self.open = Some(OpenSegment {
                index,
                base_seq,
                path,
                writer: BufWriter::new(file),
                records: parsed.records,
            });
        } else {
            if parsed.torn_bytes > 0 {
                // A full final segment with trailing garbage: keep the
                // clean prefix authoritative by truncating the rest.
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_error(&path, &e))?;
                file.set_len(parsed.clean_len)
                    .map_err(|e| io_error(&path, &e))?;
            }
            self.index_closed_segment(index, &parsed.records);
            self.closed.push(ClosedSegment {
                base_seq,
                records: parsed.records.len() as u64,
                path,
            });
        }
        Ok(())
    }

    /// Records each object's first time key in a freshly closed segment.
    fn index_closed_segment(&mut self, index: u32, records: &[Record]) {
        for record in records {
            if let Record::Observation(observation) = record {
                let object = observation.object.index();
                let span = self.spans.entry(object).or_default();
                if span.last().is_none_or(|&(_, segment)| segment != index) {
                    span.push((time_key(observation.time_s), index));
                }
            }
        }
    }

    /// Appends one record, returning its global sequence number.
    /// Appends must be non-decreasing in event time. The bytes reach
    /// the OS on the next [`ZoneHistoryStore::flush`] (or rotation).
    ///
    /// # Errors
    ///
    /// [`StoreError::NonFiniteTime`] and [`StoreError::OutOfOrder`]
    /// reject the record before any byte is written;
    /// [`StoreError::Io`] reports filesystem failure.
    pub fn append(&mut self, record: &Record) -> Result<u64, StoreError> {
        let time_s = record.time_s();
        if !time_s.is_finite() {
            return Err(StoreError::NonFiniteTime { time_s });
        }
        if let Some(high) = self.high_s {
            if time_s < high {
                return Err(StoreError::OutOfOrder {
                    time_s,
                    high_s: high,
                });
            }
        }

        if self.open.is_none() {
            self.open = Some(self.create_segment()?);
        }
        // The segment was just created if absent; `expect` would be
        // unreachable, so thread the invariant without one.
        let Some(open) = self.open.as_mut() else {
            return Err(StoreError::Io {
                path: self.dir.clone(),
                detail: "open segment vanished".to_owned(),
            });
        };

        let mut payload = Vec::new();
        encode_record(record, &mut payload);
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let path = open.path.clone();
        open.writer
            .write_all(&frame)
            .map_err(|e| io_error(&path, &e))?;
        open.records.push(*record);

        let seq = self.next_seq;
        self.next_seq += 1;
        self.high_s = Some(time_s);

        if self
            .open
            .as_ref()
            .is_some_and(|open| open.records.len() >= self.config.records_per_segment)
        {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Creates the next segment file with a fresh header.
    fn create_segment(&mut self) -> Result<OpenSegment, StoreError> {
        let index = u32::try_from(self.closed.len()).map_err(|_| StoreError::Io {
            path: self.dir.clone(),
            detail: "segment index exceeds u32".to_owned(),
        })?;
        let path = self.dir.join(segment_file_name(index));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_error(&path, &e))?;
        write_header(&mut file, &path, index, self.next_seq)?;
        Ok(OpenSegment {
            index,
            base_seq: self.next_seq,
            path,
            writer: BufWriter::new(file),
            records: Vec::new(),
        })
    }

    /// Closes the open segment: flushes it and moves its records into
    /// the closed-segment index.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let Some(mut open) = self.open.take() else {
            return Ok(());
        };
        open.writer.flush().map_err(|e| io_error(&open.path, &e))?;
        self.index_closed_segment(open.index, &open.records);
        self.closed.push(ClosedSegment {
            base_seq: open.base_seq,
            records: open.records.len() as u64,
            path: open.path,
        });
        Ok(())
    }

    /// Flushes buffered appends to the operating system.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if let Some(open) = self.open.as_mut() {
            open.writer.flush().map_err(|e| io_error(&open.path, &e))?;
        }
        Ok(())
    }

    /// Total records appended over the store's lifetime (recovered plus
    /// new); also the next sequence number [`ZoneHistoryStore::append`]
    /// will hand out.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// Whether the store holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Number of segment files (closed plus the open tail).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// The newest appended event time, if any.
    #[must_use]
    pub fn high_s(&self) -> Option<f64> {
        self.high_s
    }

    /// What [`ZoneHistoryStore::open`] recovered.
    #[must_use]
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Reads one closed segment strictly (any deviation from what
    /// recovery validated is corruption).
    fn read_closed(&self, index: u32) -> Result<Vec<Record>, StoreError> {
        let Some(segment) = self.closed.get(index as usize) else {
            return Err(StoreError::MissingSegment { index });
        };
        let bytes = fs::read(&segment.path).map_err(|e| io_error(&segment.path, &e))?;
        let parsed = parse_segment(&bytes, index, segment.base_seq, false)?;
        if parsed.records.len() as u64 != segment.records {
            return Err(StoreError::CorruptSegment {
                index,
                detail: format!(
                    "segment shrank: {} records on disk, {} recovered",
                    parsed.records.len(),
                    segment.records
                ),
            });
        }
        Ok(parsed.records)
    }

    /// The most recent observed `(zone, time_s)` for `object` at or
    /// before `at_s`: the store-backed point query. One `O(log n)`
    /// span probe selects the segment; one bounded segment read (or
    /// the in-memory tail) resolves the answer. `NaN` query times
    /// return `None`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] if the
    /// segment chosen by the index can no longer be read back.
    pub fn location_at(
        &self,
        object: ObjectHandle,
        at_s: f64,
    ) -> Result<Option<(usize, f64)>, StoreError> {
        if at_s.is_nan() {
            return Ok(None);
        }
        let bound = time_key(at_s.min(f64::MAX));
        // The open tail holds the newest times; a hit there dominates
        // every closed segment (appends are time-ordered, ties resolve
        // to the latest append).
        if let Some(open) = &self.open {
            let hit = open.records.iter().rev().find_map(|record| match record {
                Record::Observation(o) if o.object == object && time_key(o.time_s) <= bound => {
                    Some((o.zone, o.time_s))
                }
                _ => None,
            });
            if hit.is_some() {
                return Ok(hit);
            }
        }
        let Some(span) = self.spans.get(&object.index()) else {
            return Ok(None);
        };
        let at_or_before = span.partition_point(|&(key, _)| key <= bound);
        let Some(&(_, segment)) = span[..at_or_before].last() else {
            return Ok(None);
        };
        let records = self.read_closed(segment)?;
        Ok(records.iter().rev().find_map(|record| match record {
            Record::Observation(o) if o.object == object && time_key(o.time_s) <= bound => {
                Some((o.zone, o.time_s))
            }
            _ => None,
        }))
    }

    /// Every stored observation of `object`, in append order (which is
    /// time order).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] if a
    /// segment can no longer be read back.
    pub fn history_of(&self, object: ObjectHandle) -> Result<Vec<ZoneObservation>, StoreError> {
        let mut out = Vec::new();
        if let Some(span) = self.spans.get(&object.index()) {
            for &(_, segment) in span {
                out.extend(self.read_closed(segment)?.iter().filter_map(|r| match r {
                    Record::Observation(o) if o.object == object => Some(*o),
                    _ => None,
                }));
            }
        }
        if let Some(open) = &self.open {
            out.extend(open.records.iter().filter_map(|r| match r {
                Record::Observation(o) if o.object == object => Some(*o),
                _ => None,
            }));
        }
        Ok(out)
    }

    /// Visits every stored record in append order, one segment at a
    /// time: `visit` sees each segment's records once, in segment index
    /// order, the open tail last. Only one segment is resident at a
    /// time, so a replay over a long log holds one segment's records,
    /// never the whole log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] if a
    /// segment can no longer be read back; segments before it have
    /// been visited.
    pub fn visit_segments(&self, mut visit: impl FnMut(&[Record])) -> Result<(), StoreError> {
        for index in 0..self.closed.len() {
            visit(&self.read_closed(index as u32)?);
        }
        if let Some(open) = &self.open {
            visit(&open.records);
        }
        Ok(())
    }

    /// Every stored record in append order: the full replay stream.
    ///
    /// # Errors
    ///
    /// As for [`ZoneHistoryStore::visit_segments`].
    pub fn records(&self) -> Result<Vec<Record>, StoreError> {
        let mut out = Vec::with_capacity(self.next_seq as usize);
        self.visit_segments(|records| out.extend_from_slice(records))?;
        Ok(out)
    }

    /// Visits every stored [`ZoneObservation`] in append order — the
    /// replay stream a [`LocationTracker`](crate::LocationTracker)
    /// rebuilds from — reading one segment at a time through
    /// [`ZoneHistoryStore::visit_segments`].
    ///
    /// # Errors
    ///
    /// As for [`ZoneHistoryStore::visit_segments`].
    pub fn visit_observations(
        &self,
        mut visit: impl FnMut(ZoneObservation),
    ) -> Result<(), StoreError> {
        self.visit_segments(|records| {
            for record in records {
                if let Record::Observation(observation) = record {
                    visit(*observation);
                }
            }
        })
    }

    /// Every stored [`ZoneObservation`] in append order, collected from
    /// [`ZoneHistoryStore::visit_observations`].
    ///
    /// # Errors
    ///
    /// As for [`ZoneHistoryStore::visit_segments`].
    pub fn observations(&self) -> Result<Vec<ZoneObservation>, StoreError> {
        let mut out = Vec::new();
        self.visit_observations(|observation| out.push(observation))?;
        Ok(out)
    }
}

fn write_header(file: &mut File, path: &Path, index: u32, base_seq: u64) -> Result<(), StoreError> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&index.to_le_bytes());
    header[8..16].copy_from_slice(&base_seq.to_le_bytes());
    file.write_all(&header).map_err(|e| io_error(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation(object: usize, zone: usize, time_s: f64) -> Record {
        Record::Observation(ZoneObservation {
            object: ObjectHandle::from_index(object),
            zone,
            time_s,
            inferred: false,
        })
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rzh-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appends_rotate_and_reload() {
        let dir = temp_dir("rotate");
        let config = StoreConfig {
            records_per_segment: 4,
        };
        let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
        for i in 0..10usize {
            let seq = store
                .append(&observation(i % 3, i % 2, i as f64))
                .expect("append");
            assert_eq!(seq, i as u64);
        }
        store.flush().expect("flush");
        assert_eq!(store.segment_count(), 3);
        assert_eq!(store.len(), 10);

        let reopened = ZoneHistoryStore::open(&dir, config).expect("reopen");
        assert_eq!(reopened.len(), 10);
        assert_eq!(reopened.recovery().records, 10);
        assert_eq!(reopened.recovery().truncated_bytes, 0);
        assert_eq!(
            reopened.records().expect("records"),
            store.records().expect("records")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_disorder_and_non_finite_times() {
        let dir = temp_dir("order");
        let mut store = ZoneHistoryStore::open(&dir, StoreConfig::default()).expect("open");
        store.append(&observation(0, 0, 5.0)).expect("append");
        assert_eq!(
            store.append(&observation(0, 0, 4.0)),
            Err(StoreError::OutOfOrder {
                time_s: 4.0,
                high_s: 5.0
            })
        );
        assert!(matches!(
            store.append(&observation(0, 0, f64::NAN)),
            Err(StoreError::NonFiniteTime { .. })
        ));
        // Equal times are fine (ties are common at portal boundaries).
        store.append(&observation(1, 1, 5.0)).expect("tie");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn location_at_spans_closed_and_open_segments() {
        let dir = temp_dir("query");
        let config = StoreConfig {
            records_per_segment: 3,
        };
        let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
        let case = ObjectHandle::from_index(0);
        for (zone, time_s) in [(0, 1.0), (1, 2.0), (0, 3.0), (2, 4.0), (1, 5.0)] {
            store.append(&observation(0, zone, time_s)).expect("append");
        }
        assert_eq!(store.location_at(case, 0.5).expect("q"), None);
        assert_eq!(store.location_at(case, 1.0).expect("q"), Some((0, 1.0)));
        assert_eq!(store.location_at(case, 2.5).expect("q"), Some((1, 2.0)));
        assert_eq!(store.location_at(case, 4.5).expect("q"), Some((2, 4.0)));
        assert_eq!(store.location_at(case, 99.0).expect("q"), Some((1, 5.0)));
        assert_eq!(store.location_at(case, f64::NAN).expect("q"), None);
        assert_eq!(store.history_of(case).expect("history").len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
