//! Crash-recovery properties of the durable zone-history store.
//!
//! The recovery contract (see `rfid_track::store` module docs) in one
//! line: hostile or torn bytes are never panics and never silent skips
//! — a damaged *final* segment recovers the bit-exact clean prefix and
//! reports the truncation, while damage below the final segment is a
//! typed error. These tests drive each failure mode through the real
//! filesystem: truncating a tail mid-record, flipping a checksummed
//! byte, deleting a middle segment, deleting the final segment. Segments
//! are read ahead in parallel, so the first fault in index order is
//! pinned as the error. The segment visitor that replay streams through
//! is pinned to the same recovered log.

use proptest::prelude::*;
use rfid_gen2::Epc96;
use rfid_sim::ReadEvent;
use rfid_track::store::Record;
use rfid_track::{
    ObjectHandle, ObjectRegistry, RecoveryReport, StoreConfig, StoreError, ZoneHistoryStore,
    ZoneObservation, ZoneTransition,
};
use std::fs;
use std::path::{Path, PathBuf};

/// A fresh store directory under the cargo-managed test tmpdir.
fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-recovery-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Registers `count` objects so handle indices are `0..count`.
fn handles(count: usize) -> Vec<ObjectHandle> {
    let mut registry = ObjectRegistry::new();
    (0..count)
        .map(|i| registry.register(format!("case-{i}")))
        .collect()
}

fn observation(object: ObjectHandle, zone: usize, time_s: f64) -> Record {
    Record::Observation(ZoneObservation {
        object,
        zone,
        time_s,
        inferred: false,
    })
}

/// Writes `count` time-ordered observations over `objects`, rotating
/// every `per_segment` records, and returns the appended records.
fn seeded_store(dir: &Path, count: usize, per_segment: usize) -> Vec<Record> {
    let objects = handles(3);
    let config = StoreConfig {
        records_per_segment: per_segment,
    };
    let mut store = ZoneHistoryStore::open(dir, config).expect("open fresh store");
    let records: Vec<Record> = (0..count)
        .map(|i| observation(objects[i % objects.len()], i % 4, i as f64 * 0.5))
        .collect();
    for record in &records {
        store.append(record).expect("append");
    }
    store.flush().expect("flush");
    records
}

/// Like [`seeded_store`], but every third record is a transition, so
/// the observation stream is a strict subsequence of the record log.
fn mixed_store(dir: &Path, count: usize, per_segment: usize) -> Vec<Record> {
    let objects = handles(3);
    let config = StoreConfig {
        records_per_segment: per_segment,
    };
    let mut store = ZoneHistoryStore::open(dir, config).expect("open fresh store");
    let records: Vec<Record> = (0..count)
        .map(|i| {
            let (object, time_s) = (objects[i % objects.len()], i as f64 * 0.5);
            if i % 3 == 2 {
                Record::Transition(ZoneTransition {
                    object,
                    from: Some(i % 4),
                    to: (i + 1) % 4,
                    time_s,
                })
            } else {
                observation(object, i % 4, time_s)
            }
        })
        .collect();
    for record in &records {
        store.append(record).expect("append");
    }
    store.flush().expect("flush");
    records
}

fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("seg-{index:08}.rzh"))
}

fn reopen(dir: &Path, per_segment: usize) -> Result<ZoneHistoryStore, StoreError> {
    ZoneHistoryStore::open(
        dir,
        StoreConfig {
            records_per_segment: per_segment,
        },
    )
}

/// A closed four-record segment, byte for byte, written out from the
/// on-disk format (header, then `[len][CRC-32][payload]` frames) rather
/// than by the store: it pins the segment layout, the record codec and
/// the checksum against any change to the code that produces them.
const GOLDEN_SEGMENT: [u8; 179] = [
    // Header: magic "RZH1", segment index 0, base sequence 0.
    0x52, 0x5a, 0x48, 0x31, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    // Frame 0: length 45, CRC-32 0xdd25f33c. Read: time 0.5, reader 1,
    // antenna 2, tag 3, EPC 0x0123456789abcdef01234567.
    0x2d, 0x00, 0x00, 0x00, 0x3c, 0xf3, 0x25, 0xdd, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
    0x3f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x67, 0x45, 0x23, 0x01, 0xef, 0xcd, 0xab,
    0x89, 0x67, 0x45, 0x23, 0x01,
    // Frame 1: length 26, CRC-32 0x37818e79. Observation: object 4,
    // zone 1, time 0.5, not inferred.
    0x1a, 0x00, 0x00, 0x00, 0x79, 0x8e, 0x81, 0x37, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
    0x3f, 0x00,
    // Frame 2: length 26, CRC-32 0xadb87ec9. Observation: object 5,
    // zone 2, time 1.25, inferred.
    0x1a, 0x00, 0x00, 0x00, 0xc9, 0x7e, 0xb8, 0xad, 0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4,
    0x3f, 0x01,
    // Frame 3: length 34, CRC-32 0x8c87dcf7. Transition: object 4, from
    // zone 1 to zone 3, time 2.0.
    0x22, 0x00, 0x00, 0x00, 0xf7, 0xdc, 0x87, 0x8c, 0x03, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
];

/// The records [`GOLDEN_SEGMENT`] holds, in append order.
fn golden_records() -> Vec<Record> {
    let objects = handles(6);
    vec![
        Record::Read(ReadEvent {
            time_s: 0.5,
            reader: 1,
            antenna: 2,
            tag: 3,
            epc: Epc96::from_u128(0x0123_4567_89ab_cdef_0123_4567),
        }),
        observation(objects[4], 1, 0.5),
        Record::Observation(ZoneObservation {
            object: objects[5],
            zone: 2,
            time_s: 1.25,
            inferred: true,
        }),
        Record::Transition(ZoneTransition {
            object: objects[4],
            from: Some(1),
            to: 3,
            time_s: 2.0,
        }),
    ]
}

#[test]
fn clean_reopen_is_bit_identical() {
    let dir = store_dir("clean");
    let records = seeded_store(&dir, 10, 4);
    let store = reopen(&dir, 4).expect("reopen");
    assert_eq!(store.recovery().truncated_bytes, 0);
    assert_eq!(store.recovery().records, 10);
    assert_eq!(store.records().expect("read back"), records);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_golden_segment_opens_to_its_records_and_reappends_byte_for_byte() {
    let dir = store_dir("golden-open");
    fs::create_dir_all(&dir).expect("create store dir");
    fs::write(segment_path(&dir, 0), GOLDEN_SEGMENT).expect("write golden segment");
    let store = reopen(&dir, 4).expect("the golden segment opens");
    assert_eq!(
        store.recovery(),
        RecoveryReport {
            segments: 1,
            records: 4,
            truncated_bytes: 0,
        }
    );
    assert_eq!(store.records().expect("read back"), golden_records());
    let objects = handles(6);
    assert_eq!(
        store.location_at(objects[5], 1.5).expect("query"),
        Some((2, 1.25))
    );

    let fresh = store_dir("golden-append");
    let mut appended = reopen(&fresh, 4).expect("open fresh store");
    for record in &golden_records() {
        appended.append(record).expect("append");
    }
    appended.flush().expect("flush");
    assert_eq!(
        fs::read(segment_path(&fresh, 0)).expect("read appended segment"),
        GOLDEN_SEGMENT,
        "re-appending the records reproduces the segment byte for byte"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&fresh);
}

#[test]
fn torn_tail_mid_record_recovers_the_clean_prefix() {
    let dir = store_dir("torn-tail");
    let records = seeded_store(&dir, 10, 4);
    // Segments hold 4+4+2; tear the last record of the tail in half.
    let tail = segment_path(&dir, 2);
    let bytes = fs::read(&tail).expect("read tail");
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&tail)
        .expect("open tail");
    file.set_len(bytes.len() as u64 - 5).expect("truncate");

    let store = reopen(&dir, 4).expect("recovery");
    assert_eq!(store.len(), 9, "the torn record is dropped");
    assert!(store.recovery().truncated_bytes > 0, "truncation reported");
    assert_eq!(store.records().expect("read back"), records[..9]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovered_store_accepts_appends_after_a_torn_tail() {
    let dir = store_dir("torn-then-append");
    let records = seeded_store(&dir, 10, 4);
    let tail = segment_path(&dir, 2);
    let bytes = fs::read(&tail).expect("read tail");
    fs::OpenOptions::new()
        .write(true)
        .open(&tail)
        .expect("open tail")
        .set_len(bytes.len() as u64 - 1)
        .expect("truncate");

    let objects = handles(3);
    let mut store = reopen(&dir, 4).expect("recovery");
    let seq = store
        .append(&observation(objects[0], 3, 100.0))
        .expect("append after recovery");
    assert_eq!(seq, 9, "sequence continues from the clean prefix");
    store.flush().expect("flush");

    let reopened = reopen(&dir, 4).expect("second recovery");
    assert_eq!(reopened.recovery().truncated_bytes, 0, "tail is clean now");
    let mut expected: Vec<Record> = records[..9].to_vec();
    expected.push(observation(objects[0], 3, 100.0));
    assert_eq!(reopened.records().expect("read back"), expected);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_in_the_final_segment_truncates_to_the_clean_prefix() {
    let dir = store_dir("flip-tail");
    let records = seeded_store(&dir, 10, 4);
    let tail = segment_path(&dir, 2);
    let mut bytes = fs::read(&tail).expect("read tail");
    // Flip one payload byte of the tail's first frame: its CRC fails,
    // so the clean prefix is everything before that frame.
    let target = 16 + 8; // header + frame overhead → first payload byte
    bytes[target] ^= 0xFF;
    fs::write(&tail, &bytes).expect("rewrite tail");

    let store = reopen(&dir, 4).expect("recovery");
    assert_eq!(store.len(), 8, "the tail contributes nothing");
    assert!(store.recovery().truncated_bytes > 0);
    assert_eq!(store.records().expect("read back"), records[..8]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_below_the_final_segment_is_a_typed_error() {
    let dir = store_dir("flip-middle");
    seeded_store(&dir, 10, 4);
    let middle = segment_path(&dir, 1);
    let mut bytes = fs::read(&middle).expect("read middle");
    let target = 16 + 8;
    bytes[target] ^= 0xFF;
    fs::write(&middle, &bytes).expect("rewrite middle");

    match reopen(&dir, 4) {
        Err(StoreError::CorruptSegment { index: 1, .. }) => {}
        other => panic!("want CorruptSegment for segment 1, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_middle_segment_is_a_typed_error() {
    let dir = store_dir("hole");
    seeded_store(&dir, 10, 4);
    fs::remove_file(segment_path(&dir, 1)).expect("delete middle segment");

    match reopen(&dir, 4) {
        Err(StoreError::MissingSegment { index: 1 }) => {}
        other => panic!("want MissingSegment for segment 1, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_final_segment_recovers_the_shorter_prefix() {
    let dir = store_dir("short");
    let records = seeded_store(&dir, 10, 4);
    fs::remove_file(segment_path(&dir, 2)).expect("delete final segment");

    let store = reopen(&dir, 4).expect("recovery");
    assert_eq!(store.len(), 8);
    assert_eq!(store.records().expect("read back"), records[..8]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_header_magic_is_a_typed_error() {
    let dir = store_dir("magic");
    seeded_store(&dir, 10, 4);
    let first = segment_path(&dir, 0);
    let mut bytes = fs::read(&first).expect("read first");
    bytes[0] = b'X';
    fs::write(&first, &bytes).expect("rewrite first");

    match reopen(&dir, 4) {
        Err(StoreError::CorruptSegment { index: 0, .. }) => {}
        other => panic!("want CorruptSegment for segment 0, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Flips the first payload byte of segment `index`, so its first frame
/// fails its CRC.
fn damage_first_frame(dir: &Path, index: u32) {
    let path = segment_path(dir, index);
    let mut bytes = fs::read(&path).expect("read segment");
    bytes[16 + 8] ^= 0xFF;
    fs::write(&path, &bytes).expect("rewrite segment");
}

/// Segments are read ahead in parallel, but recovery reports the first
/// fault in index order: of two corrupt closed segments, the lower.
#[test]
fn of_two_corrupt_segments_the_lower_is_the_error() {
    for (lower, higher) in [(1, 3), (1, 2), (2, 3)] {
        let dir = store_dir(&format!("two-corrupt-{lower}-{higher}"));
        seeded_store(&dir, 20, 4);
        damage_first_frame(&dir, lower);
        damage_first_frame(&dir, higher);
        match reopen(&dir, 4) {
            Err(StoreError::CorruptSegment { index, .. }) if index == lower => {}
            other => panic!("want CorruptSegment for segment {lower}, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A gap is reported only when every segment below it is clean; a
/// corrupt segment below the gap is the error.
#[test]
fn a_corrupt_segment_below_a_gap_outranks_the_gap() {
    let dir = store_dir("corrupt-below-gap");
    seeded_store(&dir, 20, 4);
    fs::remove_file(segment_path(&dir, 3)).expect("delete segment 3");
    match reopen(&dir, 4) {
        Err(StoreError::MissingSegment { index: 3 }) => {}
        other => panic!("want MissingSegment for segment 3, got {other:?}"),
    }
    damage_first_frame(&dir, 1);
    match reopen(&dir, 4) {
        Err(StoreError::CorruptSegment { index: 1, .. }) => {}
        other => panic!("want CorruptSegment for segment 1, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Within one segment, a header fault outranks a wrong base sequence,
/// which outranks damaged frames.
#[test]
fn a_wrong_base_sequence_outranks_damaged_frames() {
    let dir = store_dir("base-seq-and-frames");
    seeded_store(&dir, 10, 4);
    damage_first_frame(&dir, 1);
    let middle = segment_path(&dir, 1);
    let mut bytes = fs::read(&middle).expect("read middle");
    bytes[8..16].copy_from_slice(&999u64.to_le_bytes());
    fs::write(&middle, &bytes).expect("rewrite middle");
    match reopen(&dir, 4) {
        Err(StoreError::CorruptSegment { index: 1, detail })
            if detail.contains("base sequence") => {}
        other => panic!("want the base-sequence fault of segment 1, got {other:?}"),
    }
    bytes[0] = b'X';
    fs::write(&middle, &bytes).expect("rewrite middle");
    match reopen(&dir, 4) {
        Err(StoreError::CorruptSegment { index: 1, detail }) if detail == "bad magic" => {}
        other => panic!("want the header fault of segment 1, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A closed segment damaged on disk after `open` ends a visit there:
/// the visitor sees exactly the segments before it, then the damaged
/// segment's error is returned.
#[test]
fn a_visit_stops_at_a_segment_damaged_after_open() {
    for damaged in 0..4u32 {
        let dir = store_dir(&format!("visit-damaged-{damaged}"));
        let records = seeded_store(&dir, 18, 4);
        let store = reopen(&dir, 4).expect("recovery");
        damage_first_frame(&dir, damaged);
        let mut visited: Vec<Record> = Vec::new();
        let mut segments = 0;
        let result = store.visit_segments(|segment| {
            segments += 1;
            visited.extend_from_slice(segment);
            Ok(())
        });
        match result {
            Err(StoreError::CorruptSegment { index, .. }) if index == damaged => {}
            other => panic!("want CorruptSegment for segment {damaged}, got {other:?}"),
        }
        assert_eq!(segments, damaged);
        assert_eq!(visited, records[..4 * damaged as usize]);
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// Chopping the final segment at ANY byte length never panics and
    /// always recovers a bit-exact prefix of the appended records.
    #[test]
    fn any_tail_truncation_recovers_a_bit_exact_prefix(
        cut in 0usize..200,
        count in 1usize..12,
    ) {
        let dir = store_dir(&format!("prop-cut-{cut}-{count}"));
        let records = seeded_store(&dir, count, 4);
        let tail_index = u32::try_from((count.max(1) - 1) / 4).expect("few segments");
        let tail = segment_path(&dir, tail_index);
        let bytes = fs::read(&tail).expect("read tail");
        let keep = cut.min(bytes.len());
        fs::OpenOptions::new()
            .write(true)
            .open(&tail)
            .expect("open tail")
            .set_len(keep as u64)
            .expect("truncate");

        let store = reopen(&dir, 4).expect("recovery never fails on a torn tail");
        let recovered = store.records().expect("read back");
        prop_assert!(recovered.len() <= records.len());
        prop_assert_eq!(&recovered[..], &records[..recovered.len()]);
        if keep < bytes.len() {
            // Everything the parse could not keep is reported, so an
            // operator can tell a clean boot from a repaired one.
            prop_assert!(
                store.recovery().truncated_bytes > 0
                    || recovered.len() == records.len()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The segment visitor streams exactly the recovered log: one call
    /// per segment file, none longer than a segment, their
    /// concatenation a prefix of what was appended and equal to
    /// `records()`, and its observations equal to `observations()` —
    /// on a clean reopen and after the tail is torn at any byte.
    #[test]
    fn segment_visitor_yields_exactly_the_recovered_log(
        cut in 0usize..400,
        count in 1usize..14,
    ) {
        let dir = store_dir(&format!("prop-visit-{cut}-{count}"));
        let records = mixed_store(&dir, count, 4);
        let tail = segment_path(&dir, u32::try_from((count - 1) / 4).expect("few segments"));
        let bytes = fs::read(&tail).expect("read tail");
        fs::OpenOptions::new()
            .write(true)
            .open(&tail)
            .expect("open tail")
            .set_len(cut.min(bytes.len()) as u64)
            .expect("truncate");

        let store = reopen(&dir, 4).expect("recovery never fails on a torn tail");
        let mut visited: Vec<Record> = Vec::new();
        let mut lengths: Vec<usize> = Vec::new();
        store
            .visit_segments(|segment| {
                lengths.push(segment.len());
                visited.extend_from_slice(segment);
                Ok(())
            })
            .expect("visit");
        prop_assert_eq!(lengths.len(), store.segment_count());
        prop_assert!(lengths.iter().all(|&len| len <= 4), "{:?}", lengths);
        prop_assert_eq!(visited.len() as u64, store.len());
        prop_assert_eq!(&visited[..], &records[..visited.len()]);
        prop_assert_eq!(&visited, &store.records().expect("read back"));
        let observed: Vec<ZoneObservation> = visited
            .iter()
            .filter_map(|record| match record {
                Record::Observation(observation) => Some(*observation),
                _ => None,
            })
            .collect();
        prop_assert_eq!(observed, store.observations().expect("observations"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// `location_at` over the segmented index answers exactly like a
    /// linear scan of the full record log, for every object and for
    /// query times on, between, before, and after the observations —
    /// both on the store that wrote the log, whose spans were built as
    /// segments rotated, and on a fresh reopen, whose spans recovery
    /// rebuilt. `history_of` on both is the object's feed. Forty
    /// objects make the object table grow and rehash mid-log on both.
    #[test]
    fn location_at_matches_a_full_history_scan(
        plan in proptest::collection::vec((0usize..40, 0usize..4, 0u8..3), 1..40),
        per_segment in 1usize..6,
        probe in 0usize..64,
    ) {
        let dir = store_dir(&format!("prop-query-{per_segment}-{probe}-{}", plan.len()));
        let objects = handles(40);
        let config = StoreConfig { records_per_segment: per_segment };
        let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
        let mut time_s = 0.0;
        let mut fed: Vec<ZoneObservation> = Vec::new();
        for &(object, zone, dt) in &plan {
            time_s += f64::from(dt) * 0.5;
            let obs = ZoneObservation {
                object: objects[object],
                zone,
                time_s,
                inferred: false,
            };
            store.append(&Record::Observation(obs)).expect("append");
            fed.push(obs);
        }
        store.flush().expect("flush");
        let reopened = reopen(&dir, per_segment).expect("reopen");

        // Probe a grid of times straddling every observation, plus one
        // query before the first and one after the last.
        let at_s = -0.25 + (probe as f64) * 0.25;
        for object in &objects {
            // Reference: the last append at or before `at_s`.
            let want = fed
                .iter()
                .rfind(|o| o.object == *object && o.time_s <= at_s)
                .map(|o| (o.zone, o.time_s));
            let history: Vec<ZoneObservation> =
                fed.iter().copied().filter(|o| o.object == *object).collect();
            for (side, queried) in [("written", &store), ("reopened", &reopened)] {
                let got = queried.location_at(*object, at_s).expect("query");
                prop_assert_eq!(got, want, "{} store: object {:?} at {}", side, object, at_s);
                prop_assert_eq!(
                    &queried.history_of(*object).expect("history"),
                    &history,
                    "{} store: object {:?}", side, object
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
