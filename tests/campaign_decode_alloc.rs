//! `CampaignState::decode` reserves no memory by an untrusted count.
//!
//! A checkpoint frame's CRC proves it intact, not honest. This binary
//! installs a global allocator that remembers the largest single request,
//! then decodes a 20-byte state claiming 2^20 deployments: reserving by
//! that count would ask for 2^20 accumulators of 7,296 B, 7.6 GB, before
//! finding that no accumulator follows. The binary holds one test, so no
//! other test allocates while it measures.

use rfid_repro::experiments::campaign::CampaignState;
use rfid_repro::stats::StatsError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, remembering the largest request it served.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its call to `System` unchanged, so the
// allocator keeps `System`'s guarantees; counting touches only an atomic.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: the caller's contract is passed on to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn decode_reserves_nothing_by_an_untrusted_deployment_count() {
    let mut input = Vec::new();
    input.extend_from_slice(&7u64.to_le_bytes()); // spec digest
    input.extend_from_slice(&0u64.to_le_bytes()); // instances done
    input.extend_from_slice(&(1u32 << 20).to_le_bytes()); // deployments
    assert_eq!(input.len(), 20);

    LARGEST.store(0, Relaxed);
    let decoded = CampaignState::decode(&input);
    let largest = LARGEST.load(Relaxed);
    assert!(
        matches!(decoded, Err(StatsError::BadEncoding { .. })),
        "{decoded:?}"
    );
    assert!(largest <= 1 << 20, "largest single request: {largest} B");
}
