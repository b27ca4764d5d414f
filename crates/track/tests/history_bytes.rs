//! What a `LocationTracker` keeps resident per retained observation.
//!
//! This binary installs a global allocator that keeps a running count
//! of live heap bytes, builds trackers from four feeds and divides the
//! heap each tracker holds by what it retains. A history is a time
//! column plus one change per run of equal (zone, inferred) keys, so a
//! confirmation costs its 8-byte time and a move adds a 16-byte change;
//! an object whose history eviction emptied keeps only its map entry.
//! The binary holds one test, so no other test allocates while it
//! measures.

use rfid_track::{LocationTracker, ObjectHandle, ObjectRegistry, ZoneObservation};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// Feeds `rounds` observations of every object, round-robin at rising
/// times, the zone of each from `zone(object, round)`, and returns the
/// heap the tracker holds with its retained observation count. With
/// `evict`, the whole history is evicted before measuring.
fn resident(
    objects: &[ObjectHandle],
    rounds: usize,
    zone: impl Fn(usize, usize) -> usize,
    evict: bool,
) -> (usize, usize) {
    let before = LIVE.load(Relaxed);
    let mut tracker = LocationTracker::new(60.0);
    let mut time_s = 0.0;
    for round in 0..rounds {
        for (i, &object) in objects.iter().enumerate() {
            tracker
                .observe(ZoneObservation {
                    object,
                    zone: zone(i, round),
                    time_s,
                    inferred: false,
                })
                .expect("a finite time and a small zone");
            time_s += 0.001;
        }
    }
    if evict {
        tracker.evict_history_before(f64::MAX);
    }
    let held = LIVE.load(Relaxed) - before;
    let retained = tracker.history_len();
    drop(tracker);
    (held, retained)
}

/// The zone rule of a site where one observation in 32 moves its
/// object: object `i` moves whenever `i + round` reaches a multiple of
/// 32.
fn one_move_in_32(i: usize, round: usize) -> usize {
    (i + round) / 32 % 8
}

#[test]
fn tracker_heap_per_retained_observation_and_idle_object() {
    // Long histories: 4,096 times and 128 changes per object.
    let objects = handles(64);
    let (held, retained) = resident(&objects, 4_096, one_move_in_32, false);
    assert_eq!(retained, 64 * 4_096);
    let per_observation = held as f64 / retained as f64;
    assert!(
        per_observation <= 9.0,
        "one move in 32: {per_observation:.2} B per retained observation"
    );

    // Every observation moves its object, the worst case: each adds a
    // change beside its time.
    let (held, retained) = resident(&objects, 4_096, |i, round| (i + round) % 8, false);
    let per_observation = held as f64 / retained as f64;
    assert!(
        per_observation <= 24.1,
        "every observation a move: {per_observation:.2} B per retained observation"
    );

    // Short histories, where each object's map entry and history
    // header weigh on only ten observations.
    let objects = handles(100_000);
    let (held, retained) = resident(&objects, 10, one_move_in_32, false);
    assert_eq!(retained, 1_000_000);
    let per_observation = held as f64 / retained as f64;
    assert!(
        per_observation <= 29.0,
        "10 observations of 10^5 objects: {per_observation:.2} B per retained observation"
    );

    // Objects seen twice, then evicted in full: each keeps its map
    // entry and estimate alone.
    let (held, retained) = resident(&objects, 2, one_move_in_32, true);
    assert_eq!(retained, 0);
    let per_object = held as f64 / objects.len() as f64;
    assert!(
        per_object <= 80.0,
        "an idle object: {per_object:.1} B resident"
    );
}
