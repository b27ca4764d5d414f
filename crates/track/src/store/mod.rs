//! Durable, replayable zone-history storage.
//!
//! The paper's tracking applications are long campaigns: a site daemon
//! that loses its zone history on restart, or holds it all in RAM
//! forever, is not deployable. [`ZoneHistoryStore`] is the fix — an
//! append-only, segmented log of [`Record`]s with per-record CRC-32
//! framing, deterministic serialization ([`codec`]), crash recovery
//! with explicit torn-tail semantics, and a per-object span index over
//! segments answering `location_at(object, t)` point queries in one
//! hash probe plus at most two bounded segment reads. Each object's
//! span is the list of the closed segments holding it, ascending by
//! construction because segments close in order, and its newest
//! observation in them. The list is a posting list of 64-byte blocks:
//! each opens with an absolute segment id, followed by LEB128 gaps to
//! the next ids, one byte each up to a gap of 127; indexing a segment
//! is one probe per observation, which lists the segment on the
//! object's first one there. Each closed segment keeps the time key
//! ([`index::time_key`]) of its first record; appends are time-ordered,
//! so those keys rise with the segments, and a query is one binary
//! search over the first keys of a span's blocks that decodes at most
//! two of them. Each closed segment also keeps its observation count,
//! its highest zone and the time key of its newest observation, so a
//! restart learns each object's estimate, the store's zones and which
//! segments hold the newest time without reading the log again
//! ([`ZoneHistoryStore::visit_latest`]).
//! Replay streams the log one segment at a time
//! ([`ZoneHistoryStore::visit_segments`]); every segment it reads is
//! checked again, CRC and decode, exactly as recovery checked it.
//!
//! Recovery and replay read ahead: one private reader runs a thread that
//! reads, CRC-checks and decodes the segments in index order, at most
//! two segments ahead of the calling thread, which takes them in that
//! order. Everything that depends on earlier segments — the base
//! sequence against the running count, time order across segments,
//! which segment is final, the span index — happens on the calling
//! thread, so the first fault in index order is the error, as when one
//! thread read them all.
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
//!   typed error or a reported truncation. The first fault in index
//!   order is the one reported: a corrupt segment below a gap outranks
//!   the gap, and within a segment a header fault outranks a wrong base
//!   sequence, which outranks a damaged frame.

pub mod codec;
pub mod index;

pub use codec::{crc32, decode_record, encode_record, CodecError, Record};
pub use index::{time_key, ZoneHistoryIndex};

use crate::constraints::ZoneObservation;
use crate::registry::ObjectHandle;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

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
    /// Segment `index` holds an observation in `zone`, which the site
    /// replaying the store does not have. The store cannot know its
    /// site's zones; a replay that does refuses the store with this.
    UnknownZone {
        /// The segment holding the observation.
        index: u32,
        /// The zone the site does not have.
        zone: usize,
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
            StoreError::UnknownZone { index, zone } => {
                write!(
                    f,
                    "segment {index} holds zone {zone}, which the site does not have"
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

/// A fully-written, immutable segment. Its file is named by its index
/// ([`segment_file_name`]), so the path is built only to read it.
#[derive(Debug)]
struct ClosedSegment {
    base_seq: u64,
    records: u64,
    /// The time key of the segment's first record: no record of a
    /// later segment is older. An empty segment holds no object, so no
    /// span lists it and its key (`u64::MAX`) is never read.
    first_key: u64,
    /// Observation records in the segment.
    observations: u64,
    /// The highest zone an observation of the segment names; `0`
    /// without observations.
    max_zone: usize,
    /// The time key of the segment's newest observation; `0`, below
    /// every finite time's key, without observations.
    newest_key: u64,
}

impl ClosedSegment {
    /// The records of `parsed`, segment `index` read back from disk,
    /// once it checks out as recovery found it: any deviation is
    /// corruption. `high_s` is the newest time before the segment, or
    /// `None` to leave its first record's order unchecked.
    fn check(
        &self,
        index: u32,
        parsed: ParsedSegment,
        high_s: Option<f64>,
    ) -> Result<Vec<Record>, StoreError> {
        parsed.check_in_order(index, self.base_seq, high_s)?;
        if parsed.records.len() as u64 != self.records {
            return Err(StoreError::CorruptSegment {
                index,
                detail: format!(
                    "segment shrank: {} records on disk, {} recovered",
                    parsed.records.len(),
                    self.records
                ),
            });
        }
        Ok(parsed.records)
    }
}

/// A closed segment's index as a span lists it.
type SegmentId = u32;

const ID_BYTES: usize = std::mem::size_of::<SegmentId>();

/// Bytes per block of a [`SegmentList`].
const BLOCK: usize = 64;

/// The closed segments holding one object, ascending, stored as an
/// inverted index stores a posting list: in blocks of [`BLOCK`] bytes,
/// each opening with an absolute id (`u32` LE) followed by the LEB128
/// gaps to the next ids. Segments close in ascending order, so every
/// gap is at least one and no byte of a gap is zero; zero bytes pad a
/// block whose room a gap does not fit. Only the last block is short.
/// A search binary-searches the blocks by their first ids and decodes
/// at most two.
#[derive(Debug)]
struct SegmentList {
    bytes: Vec<u8>,
    /// The newest listed id, so that listing one more decodes nothing.
    last: SegmentId,
}

impl SegmentList {
    /// The answer for an object no closed segment holds.
    const NONE: &'static SegmentList = &SegmentList {
        bytes: Vec::new(),
        last: 0,
    };

    fn new(first: SegmentId) -> Self {
        Self {
            bytes: first.to_le_bytes().to_vec(),
            last: first,
        }
    }

    /// Lists `id`, which is no older than every listed id, unless it is
    /// the newest: one gap in the last block, or padding and a block
    /// that opens with `id`.
    fn push(&mut self, id: SegmentId) {
        if id == self.last {
            return;
        }
        let mut gap = id - self.last;
        self.last = id;
        let gap_bytes = (SegmentId::BITS - gap.leading_zeros()).div_ceil(7) as usize;
        let end = self.bytes.len();
        let room = end.next_multiple_of(BLOCK) - end;
        if gap_bytes > room {
            self.bytes.resize(end + room, 0);
            self.bytes.extend_from_slice(&id.to_le_bytes());
            return;
        }
        while gap >= 0x80 {
            self.bytes.push(gap as u8 | 0x80);
            gap >>= 7;
        }
        self.bytes.push(gap as u8);
    }

    /// Every listed id, ascending.
    fn iter(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.bytes.chunks(BLOCK).flat_map(block_ids)
    }

    /// The newest two listed ids that `starts_by` accepts, newest
    /// first. `starts_by` must accept a prefix of the list: a binary
    /// search over the blocks' first ids finds the last block it
    /// accepts, and only that block and the one before are decoded.
    fn newest_two(&self, starts_by: impl Fn(SegmentId) -> bool) -> impl Iterator<Item = SegmentId> {
        let first = |block: usize| le_u32(&self.bytes[block * BLOCK..][..ID_BYTES]);
        let (mut accepted, mut rejected) = (0, self.bytes.len().div_ceil(BLOCK));
        while accepted < rejected {
            let middle = (accepted + rejected) / 2;
            if starts_by(first(middle)) {
                accepted = middle + 1;
            } else {
                rejected = middle;
            }
        }
        let decoded = accepted.saturating_sub(2) * BLOCK..(accepted * BLOCK).min(self.bytes.len());
        let mut newest = [None; 2];
        for id in self.bytes[decoded]
            .chunks(BLOCK)
            .flat_map(block_ids)
            .take_while(|&id| starts_by(id))
        {
            newest = [Some(id), newest[0]];
        }
        newest.into_iter().flatten()
    }
}

/// The ids one block of a [`SegmentList`] lists, ascending.
fn block_ids(block: &[u8]) -> impl Iterator<Item = SegmentId> + '_ {
    let (first, gaps) = block.split_at(ID_BYTES);
    let mut id = le_u32(first);
    let (mut gap, mut shift) = (0, 0);
    let rest = gaps.iter().take_while(|&&byte| byte != 0);
    std::iter::once(id).chain(rest.filter_map(move |&byte| {
        gap |= SegmentId::from(byte & 0x7f) << shift;
        if byte & 0x80 != 0 {
            shift += 7;
            return None;
        }
        id += gap;
        (gap, shift) = (0, 0);
        Some(id)
    }))
}

/// One object's place in the closed segments.
#[derive(Debug)]
struct Span {
    segments: SegmentList,
    /// The object's newest observation in them.
    newest: ZoneObservation,
}

/// The span index: one [`Span`] per object in first-appearance order,
/// behind open-addressing slots keyed by `mix64` of the id and sized by
/// the number of objects, never by an id (segments are hostile input):
/// colliding ids slow the probes, never make an answer wrong.
#[derive(Debug, Default)]
struct ObjectTable {
    spans: Vec<Span>,
    /// Linear probing: `0` is empty, else one plus a position in
    /// `spans`. A power of two long, at least twice `spans`.
    slots: Vec<usize>,
}

impl ObjectTable {
    /// The closed segments holding `object`.
    fn segments(&self, object: usize) -> &SegmentList {
        self.position(object)
            .map_or(SegmentList::NONE, |position| &self.spans[position].segments)
    }

    fn position(&self, object: usize) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut slot = rfid_sim::mix64(object as u64) as usize & mask;
        loop {
            let position = self.slots[slot].checked_sub(1)?;
            if self.spans[position].newest.object.index() == object {
                return Some(position);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Lists segment `index` in the span of `observation`'s object on
    /// its first observation there, and makes `observation` the newest.
    fn observe(&mut self, index: SegmentId, observation: &ZoneObservation) {
        let position = self
            .position(observation.object.index())
            .unwrap_or_else(|| self.insert(index, *observation));
        let span = &mut self.spans[position];
        span.segments.push(index);
        span.newest = *observation;
    }

    /// Adds a span listing segment `index` for a new object and returns
    /// its position, doubling the slots (and placing every span again)
    /// past half full.
    fn insert(&mut self, index: SegmentId, newest: ZoneObservation) -> usize {
        let added = self.spans.len();
        self.spans.push(Span {
            segments: SegmentList::new(index),
            newest,
        });
        let mut placed = added;
        if 2 * self.spans.len() > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(2)];
            placed = 0;
        }
        let mask = self.slots.len() - 1;
        for (position, span) in self.spans.iter().enumerate().skip(placed) {
            let mut slot = rfid_sim::mix64(span.newest.object.index() as u64) as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = position + 1;
        }
        added
    }
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
    /// Per object: the *closed* segments holding it and its newest
    /// observation in them.
    objects: ObjectTable,
    open: Option<OpenSegment>,
    next_seq: u64,
    high_s: Option<f64>,
    recovery: RecoveryReport,
    /// The frame [`ZoneHistoryStore::append`] encodes into, reused.
    frame: Vec<u8>,
}

/// One segment as the reader thread parses it: everything that depends
/// on the segment's own bytes. What depends on the segments before it
/// is checked on the calling thread, in index order
/// ([`ParsedSegment::check_in_order`]).
struct ParsedSegment {
    /// The base sequence the header claims; `None` when a torn-tolerant
    /// parse found the header itself torn (a crash during segment
    /// creation), which recovers zero records at the running count.
    base_seq: Option<u64>,
    records: Vec<Record>,
    clean_len: u64,
    torn_bytes: u64,
    /// The first fault below the header, with the number of records
    /// checked before it: a frame fault of a strict parse (`0`: it
    /// fails the parse before any record is checked), else the first
    /// record whose time is non-finite or behind the record before it.
    fault: Option<(usize, StoreError)>,
}

impl ParsedSegment {
    /// The checks that need the segments before this one, in the order
    /// recovery makes them: the header's base sequence against
    /// `next_seq`, the records those segments hold; then the first
    /// fault below the header, with the first record checked against
    /// `high_s`, the newest time before the segment, in its place among
    /// the records.
    fn check_in_order(
        &self,
        index: u32,
        next_seq: u64,
        high_s: Option<f64>,
    ) -> Result<(), StoreError> {
        if let Some(base_seq) = self.base_seq.filter(|&base_seq| base_seq != next_seq) {
            return Err(StoreError::CorruptSegment {
                index,
                detail: format!(
                    "header claims base sequence {base_seq}, preceding segments hold {next_seq}"
                ),
            });
        }
        let behind = self
            .records
            .first()
            .zip(high_s)
            .is_some_and(|(first, high)| first.time_s() < high);
        match &self.fault {
            Some((0, fault)) => Err(fault.clone()),
            _ if behind => Err(disordered(index)),
            Some((_, fault)) => Err(fault.clone()),
            None => Ok(()),
        }
    }
}

fn disordered(index: u32) -> StoreError {
    StoreError::CorruptSegment {
        index,
        detail: "records are not time-ordered".to_owned(),
    }
}

/// Reads and parses segment file `path`.
fn read_segment(
    path: &Path,
    segment_index: u32,
    tolerate_torn_tail: bool,
) -> Result<ParsedSegment, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_error(path, &e))?;
    parse_segment(&bytes, segment_index, tolerate_torn_tail)
}

/// Parses segment bytes. With `tolerate_torn_tail`, frame-level
/// failures end the parse at the clean prefix (reported via
/// `torn_bytes`); otherwise the first is the segment's `fault`.
/// Header failures are always corruption, except a short header on a
/// torn-tolerant parse (a crash during segment creation), which
/// recovers zero records.
fn parse_segment(
    bytes: &[u8],
    segment_index: u32,
    tolerate_torn_tail: bool,
) -> Result<ParsedSegment, StoreError> {
    let corrupt = |detail: String| StoreError::CorruptSegment {
        index: segment_index,
        detail,
    };
    if bytes.len() < HEADER_LEN {
        if tolerate_torn_tail {
            return Ok(ParsedSegment {
                base_seq: None,
                records: Vec::new(),
                clean_len: 0,
                torn_bytes: bytes.len() as u64,
                fault: None,
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
    let stored_index = le_u32(&bytes[4..8]);
    if stored_index != segment_index {
        return Err(corrupt(format!(
            "header claims segment {stored_index}, file name says {segment_index}"
        )));
    }
    let mut raw8 = [0u8; 8];
    raw8.copy_from_slice(&bytes[8..16]);
    let base_seq = u64::from_le_bytes(raw8);

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    let frame_fault = loop {
        if offset == bytes.len() {
            break None;
        }
        if bytes.len() - offset < FRAME_OVERHEAD {
            break Some(format!("truncated frame header at byte {offset}"));
        }
        let len = le_u32(&bytes[offset..offset + 4]);
        let stored_crc = le_u32(&bytes[offset + 4..offset + 8]);
        if len > MAX_RECORD_LEN {
            break Some(format!(
                "frame length {len} at byte {offset} exceeds the record cap"
            ));
        }
        let body = offset + FRAME_OVERHEAD;
        let end = body + len as usize;
        if end > bytes.len() {
            break Some(format!("truncated record at byte {offset}"));
        }
        let payload = &bytes[body..end];
        if crc32(payload) != stored_crc {
            break Some(format!("CRC mismatch at byte {offset}"));
        }
        match decode_record(payload) {
            Ok(record) => records.push(record),
            Err(err) => break Some(format!("undecodable record at byte {offset}: {err}")),
        }
        offset = end;
    };
    let fault = match frame_fault {
        Some(detail) if !tolerate_torn_tail => Some((0, corrupt(detail))),
        _ => record_fault(&records, segment_index),
    };
    Ok(ParsedSegment {
        base_seq: Some(base_seq),
        records,
        clean_len: offset as u64,
        torn_bytes: (bytes.len() - offset) as u64,
        fault,
    })
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(bytes);
    u32::from_le_bytes(raw)
}

/// The first record of a segment whose time is non-finite or behind the
/// record before it, with its position. Stored times were validated at
/// append; these checks keep hostile hand-written files from poisoning
/// the order.
fn record_fault(records: &[Record], segment_index: u32) -> Option<(usize, StoreError)> {
    let mut previous = f64::NEG_INFINITY;
    for (position, record) in records.iter().enumerate() {
        let time_s = record.time_s();
        if !time_s.is_finite() {
            return Some((
                position,
                StoreError::CorruptSegment {
                    index: segment_index,
                    detail: format!("record carries non-finite time {time_s}"),
                },
            ));
        }
        if time_s < previous {
            return Some((position, disordered(segment_index)));
        }
        previous = time_s;
    }
    None
}

/// Reads segments `0..count` of `dir` on one scoped reader thread and
/// hands each to `consume` on the calling thread, strictly in index
/// order, so reading and decoding overlap with `consume`. Only segment
/// `torn_tolerant` may end in a torn tail ([`read_segment`]).
///
/// The hand-over channel has one slot, so at most two segments are
/// read ahead of `consume`: one waiting in the channel and one the
/// thread holds until there is room. The read ends at the first
/// error in index order, from the parse or from `consume`: the
/// receiver is dropped, so the thread's next send fails and it stops. A
/// thread that cannot be spawned is a [`StoreError::Io`], and so is one
/// that panicked.
fn read_in_order(
    dir: &Path,
    count: u32,
    torn_tolerant: Option<u32>,
    mut consume: impl FnMut(u32, ParsedSegment) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let stopped = |detail: &str| StoreError::Io {
        path: dir.to_path_buf(),
        detail: detail.to_owned(),
    };
    thread::scope(|scope| {
        let (sender, receiver) = mpsc::sync_channel(1);
        let reader = thread::Builder::new()
            .name("segment-reader".to_owned())
            .spawn_scoped(scope, move || {
                for index in 0..count {
                    let path = dir.join(segment_file_name(index));
                    let parsed = read_segment(&path, index, Some(index) == torn_tolerant);
                    let failed = parsed.is_err();
                    if sender.send(parsed).is_err() || failed {
                        break;
                    }
                }
            })
            .map_err(|e| io_error(dir, &e))?;
        let consumed = (0..count).try_for_each(|index| {
            let parsed = receiver
                .recv()
                .map_err(|_| stopped("the segment reader thread stopped"))??;
            consume(index, parsed)
        });
        // Hang up first: a reader blocked in `send` then wakes to a
        // failed send and returns, so the join cannot wait forever.
        drop(receiver);
        match (consumed, reader.join()) {
            (Ok(()), Err(_)) => Err(stopped("the segment reader thread panicked")),
            (consumed, _) => consumed,
        }
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
            dir: dir.clone(),
            config,
            closed: Vec::new(),
            objects: ObjectTable::default(),
            open: None,
            next_seq: 0,
            high_s: None,
            recovery: RecoveryReport::default(),
            frame: Vec::new(),
        };
        // Only the segments below the first gap are read, and the gap is
        // reported once every one of them has recovered cleanly.
        let contiguous = indices
            .iter()
            .enumerate()
            .take_while(|&(expected, &found)| found as usize == expected)
            .count();
        let contiguous = u32::try_from(contiguous)
            .map_err(|_| StoreError::MissingSegment { index: u32::MAX })?;
        let last = indices.last().copied();
        read_in_order(&dir, contiguous, last, |index, parsed| {
            store.recover_segment(index, Some(index) == last, parsed)
        })?;
        if indices.len() > contiguous as usize {
            return Err(StoreError::MissingSegment { index: contiguous });
        }
        store.recovery.segments = indices.len();
        Ok(store)
    }

    /// Validates and registers one existing segment, read and parsed by
    /// the reader thread of [`read_in_order`].
    fn recover_segment(
        &mut self,
        index: u32,
        is_last: bool,
        parsed: ParsedSegment,
    ) -> Result<(), StoreError> {
        parsed.check_in_order(index, self.next_seq, self.high_s)?;
        if let Some(newest) = parsed.records.last() {
            self.high_s = Some(newest.time_s());
        }
        self.recovery.records += parsed.records.len() as u64;
        self.recovery.truncated_bytes += parsed.torn_bytes;
        let base_seq = self.next_seq;
        self.next_seq = base_seq + parsed.records.len() as u64;

        let path = self.segment_path(index);
        if parsed.torn_bytes > 0 {
            // Keep the clean prefix authoritative: truncate the rest.
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_error(&path, &e))?;
            file.set_len(parsed.clean_len)
                .map_err(|e| io_error(&path, &e))?;
        }
        if is_last && parsed.records.len() < self.config.records_per_segment {
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
            self.close_segment(index, base_seq, &parsed.records);
        }
        Ok(())
    }

    /// Registers a freshly closed segment: one pass over its
    /// observations counts them, keeps the highest zone and the newest
    /// time key, and makes one [`ObjectTable::observe`] probe each.
    fn close_segment(&mut self, index: SegmentId, base_seq: u64, records: &[Record]) {
        let mut segment = ClosedSegment {
            base_seq,
            records: records.len() as u64,
            first_key: records
                .first()
                .map_or(u64::MAX, |record| time_key(record.time_s())),
            observations: 0,
            max_zone: 0,
            newest_key: 0,
        };
        for record in records {
            if let Record::Observation(observation) = record {
                segment.observations += 1;
                segment.max_zone = segment.max_zone.max(observation.zone);
                segment.newest_key = time_key(observation.time_s);
                self.objects.observe(index, observation);
            }
        }
        self.closed.push(segment);
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

        let open = match &mut self.open {
            Some(open) => open,
            None => {
                let created = self.create_segment()?;
                self.open.insert(created)
            }
        };

        // The payload is encoded behind room for the frame header, which
        // is filled in once its length and CRC are known.
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(FRAME_OVERHEAD, 0);
        encode_record(record, frame);
        let (header, payload) = frame.split_at_mut(FRAME_OVERHEAD);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        open.writer
            .write_all(frame)
            .map_err(|e| io_error(&open.path, &e))?;
        open.records.push(*record);
        let full = open.records.len() >= self.config.records_per_segment;

        let seq = self.next_seq;
        self.next_seq += 1;
        self.high_s = Some(time_s);
        if full {
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
        let path = self.segment_path(index);
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
        self.close_segment(open.index, open.base_seq, &open.records);
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

    fn closed_segment(&self, index: u32) -> Result<&ClosedSegment, StoreError> {
        self.closed
            .get(index as usize)
            .ok_or(StoreError::MissingSegment { index })
    }

    fn segment_path(&self, index: u32) -> PathBuf {
        self.dir.join(segment_file_name(index))
    }

    /// Reads one closed segment strictly (any deviation from what
    /// recovery validated is corruption).
    fn read_closed(&self, index: u32) -> Result<Vec<Record>, StoreError> {
        let segment = self.closed_segment(index)?;
        segment.check(
            index,
            read_segment(&self.segment_path(index), index, false)?,
            None,
        )
    }

    /// Observations stored, recovered plus appended.
    #[must_use]
    pub fn observation_count(&self) -> u64 {
        let closed: u64 = self.closed.iter().map(|segment| segment.observations).sum();
        let open = self.open.as_ref().map_or(0, |open| {
            open.records
                .iter()
                .filter(|record| matches!(record, Record::Observation(_)))
                .count()
        });
        closed + open as u64
    }

    /// Refuses the store if an observation names a zone at or above
    /// `zones`, the count of the replaying site's zones. Only the first
    /// closed segment whose highest zone reaches `zones` is read back,
    /// to name the first such zone in it; the open tail is checked in
    /// memory.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownZone`] for the first such observation in
    /// append order; [`StoreError::Io`] / [`StoreError::CorruptSegment`]
    /// if the segment holding it can no longer be read back.
    pub fn check_zones(&self, zones: usize) -> Result<(), StoreError> {
        let unknown = |index: u32, records: &[Record]| {
            records.iter().find_map(|record| match record {
                Record::Observation(observation) if observation.zone >= zones => {
                    Some(StoreError::UnknownZone {
                        index,
                        zone: observation.zone,
                    })
                }
                _ => None,
            })
        };
        let first = self
            .closed
            .iter()
            .position(|segment| segment.observations > 0 && segment.max_zone >= zones);
        if let Some(index) = first {
            let index = index as u32;
            return Err(unknown(index, &self.read_closed(index)?).unwrap_or(
                StoreError::CorruptSegment {
                    index,
                    detail: "the zones read back differ from the zones recovered".to_owned(),
                },
            ));
        }
        match &self.open {
            Some(open) => unknown(open.index, &open.records).map_or(Ok(()), Err),
            None => Ok(()),
        }
    }

    /// Visits a short observation stream that leaves a
    /// [`LocationTracker`](crate::LocationTracker) fed it, then evicted
    /// before [`ZoneHistoryStore::high_s`], exactly as the whole stream
    /// ([`ZoneHistoryStore::visit_observations`]) would leave it:
    ///
    /// 1. each object's newest observation in the closed segments, when
    ///    it is older than the newest time, in first-appearance order;
    /// 2. every closed-segment observation at the newest time, in
    ///    append order;
    /// 3. every observation of the open tail, in append order.
    ///
    /// The log is time-ordered, so an object's last observation is its
    /// estimate, and an eviction before the newest time keeps only the
    /// observations at that time. Part 1 gives the estimate to each
    /// object whose closed-segment observations are all older; part 2
    /// feeds the closed segments' observations at the newest time in
    /// order; part 3 comes last because every tail observation is at or
    /// after every closed one. Only the trailing closed segments whose
    /// newest observation is at the newest time are read back, checked
    /// as [`ZoneHistoryStore::visit_segments`] checks them.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] if one of
    /// those segments can no longer be read back.
    pub fn visit_latest(&self, mut visit: impl FnMut(ZoneObservation)) -> Result<(), StoreError> {
        let Some(high_s) = self.high_s else {
            return Ok(());
        };
        let high_key = time_key(high_s);
        for span in &self.objects.spans {
            if span.newest.time_s < high_s {
                visit(span.newest);
            }
        }
        // Every segment before the last one that starts before the
        // newest time ends before it.
        let trailing = self
            .closed
            .iter()
            .rposition(|segment| segment.first_key < high_key)
            .unwrap_or(0);
        for (index, segment) in self.closed.iter().enumerate().skip(trailing) {
            if segment.observations > 0 && segment.newest_key == high_key {
                for record in self.read_closed(index as u32)? {
                    match record {
                        Record::Observation(observation) if observation.time_s == high_s => {
                            visit(observation);
                        }
                        _ => {}
                    }
                }
            }
        }
        if let Some(open) = &self.open {
            for record in &open.records {
                if let Record::Observation(observation) = record {
                    visit(*observation);
                }
            }
        }
        Ok(())
    }

    /// The most recent observed `(zone, time_s)` for `object` at or
    /// before `at_s`: the store-backed point query. The in-memory tail
    /// answers first; otherwise one table probe finds the object's span,
    /// whose binary search over its blocks, decoding at most two of
    /// them, selects the newest listed segment that starts at or before
    /// `at_s`. That segment may hold the object only after `at_s`; every
    /// record of the segment listed before it is then at or before
    /// `at_s`, so that one holds the answer. A query reads at most two
    /// segments. `NaN` query times return `None`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] if a
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
            let hit = newest_at_or_before(&open.records, object, bound);
            if hit.is_some() {
                return Ok(hit);
            }
        }
        let starts_by_bound = |segment: SegmentId| {
            self.closed
                .get(segment as usize)
                .is_some_and(|closed| closed.first_key <= bound)
        };
        for segment in self
            .objects
            .segments(object.index())
            .newest_two(starts_by_bound)
        {
            let hit = newest_at_or_before(&self.read_closed(segment)?, object, bound);
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
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
        for segment in self.objects.segments(object.index()).iter() {
            out.extend(self.read_closed(segment)?.iter().filter_map(|r| match r {
                Record::Observation(o) if o.object == object => Some(*o),
                _ => None,
            }));
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
    /// order, the open tail last. Closed segments are read back and
    /// checked again — CRCs, decode, base sequence, time order and
    /// record count, as recovery checked them — on a reader thread at
    /// most two segments ahead of `visit`, so a replay over a long log
    /// holds a few segments' records, never the whole log. `visit` can
    /// refuse a segment: its first error ends the visit, reading stops,
    /// and that error is returned.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::CorruptSegment`] if a
    /// segment can no longer be read back, or `visit`'s first error,
    /// whichever segment comes first; segments before it have been
    /// visited, and no segment after it.
    pub fn visit_segments(
        &self,
        mut visit: impl FnMut(&[Record]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut high_s = None;
        read_in_order(
            &self.dir,
            self.closed.len() as u32,
            None,
            |index, parsed| {
                let records = self.closed_segment(index)?.check(index, parsed, high_s)?;
                if let Some(newest) = records.last() {
                    high_s = Some(newest.time_s());
                }
                visit(&records)
            },
        )?;
        if let Some(open) = &self.open {
            visit(&open.records)?;
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
        self.visit_segments(|records| {
            out.extend_from_slice(records);
            Ok(())
        })?;
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
            Ok(())
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

/// The `(zone, time_s)` of the last observation of `object` in
/// `records` whose time key is at or before `bound`.
fn newest_at_or_before(
    records: &[Record],
    object: ObjectHandle,
    bound: u64,
) -> Option<(usize, f64)> {
    records.iter().rev().find_map(|record| match record {
        Record::Observation(o) if o.object == object && time_key(o.time_s) <= bound => {
            Some((o.zone, o.time_s))
        }
        _ => None,
    })
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
    use proptest::prelude::*;

    /// `ids` listed one by one into a [`SegmentList`].
    fn listed(ids: &[SegmentId]) -> SegmentList {
        let mut list = SegmentList::new(ids[0]);
        for &id in &ids[1..] {
            list.push(id);
        }
        list
    }

    /// Checks that `list` holds exactly `ids` without repeats, that
    /// every block opens on its first id, absolute, at a multiple of
    /// [`BLOCK`], and that a block is padded only when the gap to the
    /// next block's first id does not fit its room.
    fn check_layout(list: &SegmentList, ids: &[SegmentId]) -> Result<(), TestCaseError> {
        let mut expected = ids.to_vec();
        expected.dedup();
        prop_assert_eq!(list.iter().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(list.last, expected[expected.len() - 1]);
        let mut position = 0;
        for (block, bytes) in list.bytes.chunks(BLOCK).enumerate() {
            prop_assert_eq!(
                le_u32(&bytes[..ID_BYTES]),
                expected[position],
                "block {}",
                block
            );
            position += block_ids(bytes).count();
            if let Some(&next) = expected.get(position) {
                let gap = next - expected[position - 1];
                let padding = bytes.iter().rev().take_while(|&&byte| byte == 0).count();
                let gap_bytes = (SegmentId::BITS - gap.leading_zeros()).div_ceil(7) as usize;
                prop_assert!(
                    padding < gap_bytes,
                    "block {} padded past a fitting gap",
                    block
                );
            }
        }
        prop_assert_eq!(position, expected.len());
        Ok(())
    }

    /// Checks `newest_two` for every threshold at and beside each id,
    /// against the listed ids, and counts the ids it tests: the binary
    /// search's plus at most two blocks' worth.
    fn check_newest_two(list: &SegmentList, ids: &[SegmentId]) -> Result<(), TestCaseError> {
        let mut listed = ids.to_vec();
        listed.dedup();
        let blocks = list.bytes.len().div_ceil(BLOCK);
        let most_tests = blocks.ilog2() as usize + 2 + 2 * (1 + BLOCK - ID_BYTES);
        for threshold in ids
            .iter()
            .flat_map(|&id| [id.saturating_sub(1), id, id.saturating_add(1)])
        {
            let tests = std::cell::Cell::new(0);
            let newest = list
                .newest_two(|id| {
                    tests.set(tests.get() + 1);
                    id <= threshold
                })
                .collect::<Vec<_>>();
            let accepted = listed.partition_point(|&id| id <= threshold);
            let expected = listed[..accepted]
                .iter()
                .rev()
                .take(2)
                .copied()
                .collect::<Vec<_>>();
            prop_assert_eq!(newest, expected, "threshold {}", threshold);
            prop_assert!(tests.get() <= most_tests, "{} ids tested", tests.get());
        }
        Ok(())
    }

    /// Ascending ids as segments close: runs of consecutive ids, repeats
    /// of the newest, and gaps of every LEB128 width up to the whole
    /// `u32` range (a gap that would pass `u32::MAX` is left out).
    fn ascending_ids() -> impl Strategy<Value = Vec<SegmentId>> {
        let gap = prop_oneof![
            Just(0u32),
            Just(1u32),
            Just(1u32),
            Just(1u32),
            2u32..128,
            128u32..1 << 14,
            1u32 << 14..1 << 21,
            1u32 << 21..1 << 28,
            1u32 << 28..=u32::MAX,
        ];
        let first = prop_oneof![Just(0u32), 0u32..1_000, any::<u32>(), Just(u32::MAX)];
        (first, proptest::collection::vec(gap, 0..400)).prop_map(|(first, gaps)| {
            let mut ids = vec![first];
            for gap in gaps {
                let newest = ids[ids.len() - 1];
                ids.extend(newest.checked_add(gap));
            }
            ids
        })
    }

    proptest! {
        #[test]
        fn segment_lists_round_trip_in_blocks(ids in ascending_ids()) {
            let list = listed(&ids);
            check_layout(&list, &ids)?;
            check_newest_two(&list, &ids)?;
        }
    }

    /// The widest gaps, the ends of the id range, and a long list whose
    /// search must not decode it all.
    #[test]
    fn segment_lists_keep_extreme_and_long_lists() {
        let long: Vec<SegmentId> = (0..10_000).map(|i| i * 3 / 2).collect();
        for ids in [
            vec![0, u32::MAX],
            vec![u32::MAX, u32::MAX],
            vec![0, 1 << 28, u32::MAX - 1, u32::MAX],
            vec![7; 3],
            long,
        ] {
            let list = listed(&ids);
            check_layout(&list, &ids).expect("layout");
            check_newest_two(&list, &ids).expect("newest two");
        }
    }

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

    /// The newest listed segment that starts by the query time may hold
    /// the object only after it; the answer is then the object's last
    /// observation in the segment listed before.
    #[test]
    fn location_at_reads_the_previous_listed_segment_when_the_newest_starts_early() {
        let dir = temp_dir("fallback");
        let config = StoreConfig {
            records_per_segment: 2,
        };
        let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
        let (case, other) = (ObjectHandle::from_index(0), ObjectHandle::from_index(1));
        // Segments: [case@1, case@2] [other@3, other@4] [other@5, case@7],
        // then case@8 in the open tail.
        for (object, zone, time_s) in [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 2, 3.0),
            (1, 2, 4.0),
            (1, 2, 5.0),
            (0, 3, 7.0),
            (0, 2, 8.0),
        ] {
            store
                .append(&observation(object, zone, time_s))
                .expect("append");
        }
        assert_eq!(store.segment_count(), 4);
        assert_eq!(store.objects.segments(0).iter().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(store.objects.segments(1).iter().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(store.location_at(case, 6.0).expect("q"), Some((1, 2.0)));
        assert_eq!(store.location_at(case, 7.0).expect("q"), Some((3, 7.0)));
        assert_eq!(store.location_at(case, 9.0).expect("q"), Some((2, 8.0)));
        assert_eq!(store.location_at(other, 4.5).expect("q"), Some((2, 4.0)));
        assert_eq!(store.location_at(case, 0.5).expect("q"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Spans whose gaps are 1, 2, 3 and 150 segments, many blocks long:
    /// over 1,200 one-record segments, two records to a second, object 0
    /// stands in two of every three segments, object 1 in every third,
    /// object 2 in every 150th and object 3 in the last alone. Every
    /// half-second point query and every history answers as the fed
    /// history does, on the writing store and on a reopen.
    #[test]
    fn sparse_and_dense_spans_answer_as_the_fed_history() {
        let dir = temp_dir("spans");
        let config = StoreConfig {
            records_per_segment: 1,
        };
        let segments = 1_200;
        let object_of = |i: usize| match i {
            _ if i == segments - 1 => 3,
            _ if i.is_multiple_of(3) => 1,
            _ if i % 150 == 1 => 2,
            _ => 0,
        };
        let fed: Vec<ZoneObservation> = (0..segments)
            .map(|i| ZoneObservation {
                object: ObjectHandle::from_index(object_of(i)),
                zone: i % 5,
                time_s: (i / 2) as f64,
                inferred: false,
            })
            .collect();
        let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
        for observation in &fed {
            store
                .append(&Record::Observation(*observation))
                .expect("append");
        }
        assert_eq!(store.segment_count(), segments);
        let reopened = ZoneHistoryStore::open(&dir, config).expect("reopen");
        for store in [&store, &reopened] {
            for object in (0..5).map(ObjectHandle::from_index) {
                let history = fed.iter().filter(|o| o.object == object);
                assert_eq!(
                    store.history_of(object).expect("history"),
                    history.clone().copied().collect::<Vec<_>>()
                );
                for half_seconds in -1..=segments as i32 {
                    let at_s = f64::from(half_seconds) / 2.0;
                    let expected = history
                        .clone()
                        .rfind(|o| o.time_s <= at_s)
                        .map(|o| (o.zone, o.time_s));
                    assert_eq!(
                        store.location_at(object, at_s).expect("q"),
                        expected,
                        "object {} at {at_s}",
                        object.index()
                    );
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Ids at the ends of the range and ids that share a home slot
    /// answer on the writing store and on a reopen, an absent id that
    /// shares it does not, and the slots stay sized by the objects.
    #[test]
    fn object_table_answers_extreme_and_colliding_ids() {
        let dir = temp_dir("ids");
        let config = StoreConfig {
            records_per_segment: 3,
        };
        let home = |id: usize| rfid_sim::mix64(id as u64) & 0xff;
        let mut ids = vec![0, 1 << 32, 1 << 63, usize::MAX];
        ids.extend((1..).filter(|&id| home(id) == home(0)).take(5));
        let absent = (ids[8] + 1..).find(|&id| home(id) == home(0));
        let absent = ObjectHandle::from_index(absent.expect("an id"));
        let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
        for time_s in [0.0, 1.0, 2.0] {
            for (zone, &id) in ids.iter().enumerate() {
                store
                    .append(&observation(id, zone, time_s))
                    .expect("append");
            }
        }
        store.flush().expect("flush");
        let reopened = ZoneHistoryStore::open(&dir, config).expect("reopen");
        for store in [&store, &reopened] {
            assert!(store.objects.slots.len() <= 2 * ids.len().next_power_of_two());
            for (zone, &id) in ids.iter().enumerate() {
                let object = ObjectHandle::from_index(id);
                assert_eq!(
                    store.location_at(object, 1.5).expect("q"),
                    Some((zone, 1.0))
                );
                let history = store.history_of(object).expect("history");
                assert_eq!(history.len(), 3);
                assert!(history.iter().all(|o| o.object == object && o.zone == zone));
            }
            assert_eq!(store.location_at(absent, 9.0).expect("q"), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
