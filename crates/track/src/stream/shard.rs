//! Object partitioning for the site daemon's sharded tracker chains.
//!
//! The daemon's ingest plane (`rfid_site_server::SharedIngest`) applies
//! the canonical released stream to K tracker chains, one per shard,
//! routing every event by its object's stable partition key. This
//! module holds the two pieces that plane shares with its callers:
//!
//! * [`shard_of`] — the stable hash-free partitioner (`rfid_sim::mix64`
//!   modulo the shard count; never a per-process-seeded hasher).
//! * [`ShardCounters`] — the per-shard tallies the daemon's `counters`
//!   RPC reports as `shard<N>_<name>` rows.
//!
//! The proof that every K yields the K = 1 report lives in
//! `tests/shard_identity.rs`; DESIGN.md §14 derives why it holds.

/// Maps a partition key to a shard index in `0..shards`.
///
/// Stable and hash-free: the assignment is a pure function of
/// (`key`, `shards`) through the fixed [`rfid_sim::mix64`] bijection,
/// so it replays bit-identically across runs, machines, and thread
/// counts — unlike `HashMap`-style routing, which the audit tier
/// forbids for exactly that reason. Keys that differ only in low bits
/// (sequential EPCs, object indices) still spread uniformly.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard_of requires at least one shard");
    usize::try_from(rfid_sim::mix64(key) % shards as u64).expect("shard index fits usize")
}

/// Per-shard tallies of the daemon's ingest plane.
///
/// `events_routed` is deterministic: it depends only on the released
/// stream and the shard count. The other three count what session
/// threads did when they applied their batches, so they depend on
/// thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCounters {
    /// Released events routed to this shard.
    pub events_routed: u64,
    /// Batches this shard applied: one per drain or shutdown flush
    /// that released at least one of its events.
    pub watermarks_forwarded: u64,
    /// Applies that had to wait for an earlier ticket of this shard to
    /// be applied first.
    pub merge_holds: u64,
    /// The most tickets outstanding on this shard at any apply,
    /// counting the one being applied.
    pub max_queue_depth: u64,
}

impl ShardCounters {
    /// The `(name, value)` rows, in a stable order — RPC payloads and
    /// display formats derive from this so the wire surface cannot
    /// drift from the struct.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("events_routed", self.events_routed),
            ("watermarks_forwarded", self.watermarks_forwarded),
            ("merge_holds", self.merge_holds),
            ("max_queue_depth", self.max_queue_depth),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_total() {
        for key in 0..100 {
            assert_eq!(shard_of(key, 4), shard_of(key, 4));
            assert!(shard_of(key, 4) < 4);
            assert_eq!(shard_of(key, 1), 0, "one shard takes everything");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = shard_of(0, 0);
    }
}
