//! What a reopened `ZoneHistoryStore` keeps resident per (object,
//! closed segment) pair.
//!
//! This binary installs a global allocator that keeps a running count
//! of live heap bytes, writes a store of 10^6 observations in two
//! shapes, reopens it, and divides the heap the reopened store holds by
//! the (object, closed segment) pairs its span index lists. That heap
//! is the span index (each object's segment list, newest observation
//! and table slot), one descriptor per closed segment, and the open
//! tail's records. The binary holds one test, so no other test
//! allocates while it measures.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfid_track::store::Record;
use rfid_track::{ObjectHandle, ObjectRegistry, StoreConfig, ZoneHistoryStore, ZoneObservation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes it has handed out and not
/// yet taken back.
struct Live;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// audit: safety: every method passes its call to `System` unchanged, so
// the allocator keeps `System`'s guarantees; counting touches only an
// atomic.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // audit: safety: the caller's contract is passed on to `System`
        // unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // audit: safety: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // audit: safety: `ptr` came from `System` with this `layout`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            LIVE.fetch_add(new_size, Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Live = Live;

/// `count` object handles; registered before any measurement, so the
/// registry's own heap is not counted.
fn handles(count: usize) -> Vec<ObjectHandle> {
    let mut registry = ObjectRegistry::new();
    (0..count)
        .map(|i| registry.register(format!("case-{i}")))
        .collect()
}

/// Writes an observation of `handles[object]` for each of `objects`,
/// one millisecond apart, to a fresh store of 1,024-record segments,
/// reopens it, and returns the heap the reopened store holds with the
/// (object, closed segment) pairs it lists.
fn resident(name: &str, handles: &[ObjectHandle], objects: &[usize]) -> (usize, usize) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-index-{name}"));
    let _ = fs::remove_dir_all(&dir);
    let config = StoreConfig::default();
    let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
    for (i, &object) in objects.iter().enumerate() {
        store
            .append(&Record::Observation(ZoneObservation {
                object: handles[object],
                zone: (i + object) % 16,
                time_s: i as f64 * 1e-3,
                inferred: false,
            }))
            .expect("append");
    }
    store.flush().expect("flush");
    drop(store);

    // Every full segment is closed on the reopen; the rest is its tail.
    let closed = objects.len() / config.records_per_segment;
    let mut listed_in = vec![usize::MAX; handles.len()];
    let mut pairs = 0;
    for (i, &object) in objects.iter().enumerate() {
        let segment = i / config.records_per_segment;
        if segment < closed && listed_in[object] != segment {
            listed_in[object] = segment;
            pairs += 1;
        }
    }
    drop(listed_in);

    let before = LIVE.load(Relaxed);
    let reopened = ZoneHistoryStore::open(&dir, config).expect("reopen");
    let held = LIVE.load(Relaxed) - before;
    assert_eq!(reopened.len(), objects.len() as u64);
    drop(reopened);
    fs::remove_dir_all(&dir).expect("remove the store");
    (held, pairs)
}

/// 10^6 picks over 4,096 objects, rank `k` drawn with weight
/// `k^-0.99`: the traffic of the durable benchmark's pre-written store.
fn zipf_picks(seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cdf: Vec<f64> = (1..=4_096)
        .scan(0.0, |total, rank: i32| {
            *total += f64::from(rank).powf(-0.99);
            Some(*total)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    (0..1_000_000)
        .map(|_| {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
        })
        .collect()
}

/// 10 rounds over 10^5 objects, each round in a fresh shuffled order.
fn shuffled_rounds(seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut picks = Vec::with_capacity(1_000_000);
    for _ in 0..10 {
        let mut round: Vec<usize> = (0..100_000).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0..=i));
        }
        picks.extend(round);
    }
    picks
}

#[test]
fn reopened_store_heap_per_object_segment_pair() {
    // Few hot objects listed in nearly every segment, a long tail of
    // cold ones listed rarely.
    let (held, pairs) = resident("zipf", &handles(4_096), &zipf_picks(2611));
    let per_pair = held as f64 / pairs as f64;
    println!("Zipf 0.99 over 4,096 objects: {held} B for {pairs} pairs, {per_pair:.2} B per pair");
    assert!(
        per_pair <= 2.6,
        "Zipf 0.99 over 4,096 objects: {per_pair:.2} B per pair"
    );

    // Many objects listed ten times each, far apart: the per-object
    // span and slots weigh on every pair.
    let (held, pairs) = resident("rounds", &handles(100_000), &shuffled_rounds(2612));
    let per_pair = held as f64 / pairs as f64;
    println!("10 rounds of 10^5 objects: {held} B for {pairs} pairs, {per_pair:.2} B per pair");
    assert!(
        per_pair <= 13.0,
        "10 rounds of 10^5 objects: {per_pair:.2} B per pair"
    );
}
