//! Operational counters for the site server.
//!
//! One flat `u64` struct guarded by the ingest lock — no atomics, so a
//! snapshot is always internally consistent (e.g. `events_ingested ==
//! events_released` after a drain is a real invariant, not a race).

/// Ingest, session, and query tallies. Returned by the `counters` RPC
/// and embedded in the final [`crate::ServerReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestCounters {
    /// Sessions that successfully attached a portal lane.
    pub sessions_attached: u64,
    /// Sessions that detached cleanly (lane released).
    pub sessions_detached: u64,
    /// Attach attempts refused (unknown portal, lane already busy).
    pub session_rejects: u64,
    /// Sessions that ended in a transport or protocol error.
    pub session_errors: u64,
    /// Wire records drained from readers (before validation).
    pub records_drained: u64,
    /// Records the wire adapter refused (bad EPC, non-finite time, …).
    pub adapter_rejects: u64,
    /// Events the merge refused (out of order, behind the watermark).
    pub merge_rejects: u64,
    /// Events admitted into the merge.
    pub events_ingested: u64,
    /// Events released past the global watermark into the tracker.
    pub events_released: u64,
    /// Zone transitions the tracker emitted this run; those of a
    /// store's earlier runs are not counted.
    pub transitions: u64,
    /// Queries answered successfully.
    pub queries_served: u64,
    /// Connections or requests with a bad auth token.
    pub auth_failures: u64,
    /// Malformed or unanswerable RPC requests.
    pub rpc_errors: u64,
    /// Observations recovered from the durable store at boot.
    pub store_recovered: u64,
    /// Observations appended to the durable store this run.
    pub store_appends: u64,
    /// Store append/flush/replay failures (durability degraded, run
    /// continues).
    pub store_errors: u64,
}

impl IngestCounters {
    /// The `(name, value)` rows, in a stable order — the `counters`
    /// RPC payload and the display format both derive from this, so
    /// the wire surface can never drift from the struct.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sessions_attached", self.sessions_attached),
            ("sessions_detached", self.sessions_detached),
            ("session_rejects", self.session_rejects),
            ("session_errors", self.session_errors),
            ("records_drained", self.records_drained),
            ("adapter_rejects", self.adapter_rejects),
            ("merge_rejects", self.merge_rejects),
            ("events_ingested", self.events_ingested),
            ("events_released", self.events_released),
            ("transitions", self.transitions),
            ("queries_served", self.queries_served),
            ("auth_failures", self.auth_failures),
            ("rpc_errors", self.rpc_errors),
            ("store_recovered", self.store_recovered),
            ("store_appends", self.store_appends),
            ("store_errors", self.store_errors),
        ]
    }
}

impl std::fmt::Display for IngestCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, value) in self.rows() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_field_and_display_matches() {
        let counters = IngestCounters {
            sessions_attached: 1,
            sessions_detached: 2,
            session_rejects: 3,
            session_errors: 4,
            records_drained: 5,
            adapter_rejects: 6,
            merge_rejects: 7,
            events_ingested: 8,
            events_released: 9,
            transitions: 10,
            queries_served: 11,
            auth_failures: 12,
            rpc_errors: 13,
            store_recovered: 14,
            store_appends: 15,
            store_errors: 16,
        };
        let rows = counters.rows();
        assert_eq!(rows.len(), 16);
        let total: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(total, (1..=16).sum::<u64>(), "every field appears once");
        let text = counters.to_string();
        assert!(text.starts_with("sessions_attached=1 "));
        assert!(text.ends_with("store_errors=16"));
    }
}
