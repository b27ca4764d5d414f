//! Wire records back into simulator read events.
//!
//! [`WireEventAdapter`] is the bridge from the reader control interface
//! to the tracking data plane: each [`TagRecord`] a client drains off
//! the wire is converted to the [`ReadEvent`] the `rfid-track`
//! streaming operators consume, so a live session feeds tracking with
//! no intermediate batch — record in, event out.

use crate::protocol::TagRecord;
use rfid_gen2::Epc96;
use rfid_sim::{ReadEvent, World};
use std::collections::BTreeMap;
use std::fmt;

/// Why a wire record could not be converted to a read event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdapterError {
    /// The EPC field did not parse as 24 hex digits.
    BadEpc {
        /// The offending EPC text.
        epc: String,
        /// The parser's reason.
        reason: String,
    },
    /// The EPC parsed but names no tag this adapter knows.
    UnknownEpc(Epc96),
    /// The antenna field was 0: the wire convention is 1-based.
    BadAntenna,
    /// The timestamp was `NaN` or infinite. Non-finite times parse
    /// cleanly off the wire but poison every downstream ordering
    /// structure (watermarks, reorder heaps), so the adapter is the
    /// last safe place to reject them. Carries the offending value
    /// rendered as text.
    NonFiniteTime(String),
}

impl fmt::Display for AdapterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdapterError::BadEpc { epc, reason } => {
                write!(f, "unparseable EPC {epc:?}: {reason}")
            }
            AdapterError::UnknownEpc(epc) => write!(f, "EPC {epc} is not a known tag"),
            AdapterError::BadAntenna => write!(f, "antenna 0 on the wire (ports are 1-based)"),
            AdapterError::NonFiniteTime(time) => {
                write!(f, "non-finite timestamp {time} on the wire")
            }
        }
    }
}

impl std::error::Error for AdapterError {}

/// Converts drained [`TagRecord`]s into [`ReadEvent`]s.
///
/// A wire record carries the EPC as hex text and a 1-based antenna
/// port, and says nothing about which reader served it (each session
/// IS one reader). The adapter restores the simulator's conventions:
/// EPCs are parsed and resolved to world tag indices through a lookup
/// built at construction, antennas shift back to 0-based, and every
/// event is stamped with the adapter's fixed reader index.
///
/// # Examples
///
/// ```
/// use rfid_gen2::Epc96;
/// use rfid_readerapi::{TagRecord, WireEventAdapter};
///
/// let adapter = WireEventAdapter::new(0, [Epc96::from_u128(0xBB)]);
/// let record = TagRecord {
///     epc: "0000000000000000000000BB".into(),
///     antenna: 1,
///     time_s: 0.5,
/// };
/// let event = adapter.convert(&record).unwrap();
/// assert_eq!(event.tag, 0);
/// assert_eq!(event.antenna, 0);
/// assert_eq!(event.reader, 0);
/// ```
#[derive(Debug, Clone)]
pub struct WireEventAdapter {
    reader: usize,
    tag_of: BTreeMap<Epc96, usize>,
}

impl WireEventAdapter {
    /// Creates an adapter for one reader session. `epcs` lists the known
    /// tags in world order: position in the iterator becomes the
    /// [`ReadEvent::tag`] index. A duplicate EPC keeps its first index,
    /// matching how the tracking registry resolves identity.
    #[must_use]
    pub fn new(reader: usize, epcs: impl IntoIterator<Item = Epc96>) -> Self {
        let mut tag_of = BTreeMap::new();
        for (index, epc) in epcs.into_iter().enumerate() {
            tag_of.entry(epc).or_insert(index);
        }
        Self { reader, tag_of }
    }

    /// Creates an adapter resolving against a simulation world's tag
    /// list, so converted events use the same tag indices the simulator
    /// itself emits.
    #[must_use]
    pub fn for_world(reader: usize, world: &World) -> Self {
        Self::new(reader, world.tags.iter().map(|tag| tag.epc))
    }

    /// Converts one wire record to a read event.
    ///
    /// # Errors
    ///
    /// Returns [`AdapterError`] for an unparseable EPC, an EPC naming no
    /// known tag, a 0 antenna port, or a non-finite timestamp.
    pub fn convert(&self, record: &TagRecord) -> Result<ReadEvent, AdapterError> {
        let epc: Epc96 = record.epc.parse().map_err(|err| AdapterError::BadEpc {
            epc: record.epc.clone(),
            reason: format!("{err}"),
        })?;
        let tag = *self.tag_of.get(&epc).ok_or(AdapterError::UnknownEpc(epc))?;
        if record.antenna == 0 {
            return Err(AdapterError::BadAntenna);
        }
        if !record.time_s.is_finite() {
            return Err(AdapterError::NonFiniteTime(format!("{}", record.time_s)));
        }
        Ok(ReadEvent {
            time_s: record.time_s,
            reader: self.reader,
            antenna: usize::from(record.antenna) - 1,
            tag,
            epc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapter() -> WireEventAdapter {
        WireEventAdapter::new(3, [Epc96::from_u128(0xAA), Epc96::from_u128(0xBB)])
    }

    fn record(epc: &str, antenna: u8, time_s: f64) -> TagRecord {
        TagRecord {
            epc: epc.to_owned(),
            antenna,
            time_s,
        }
    }

    #[test]
    fn restores_simulator_conventions() {
        let event = adapter()
            .convert(&record("0000000000000000000000BB", 2, 1.5))
            .expect("valid record");
        assert_eq!(event.tag, 1);
        assert_eq!(event.antenna, 1, "wire port 2 is simulator antenna 1");
        assert_eq!(event.reader, 3);
        assert_eq!(event.epc, Epc96::from_u128(0xBB));
        assert_eq!(event.time_s, 1.5);
    }

    #[test]
    fn rejects_garbage_epcs() {
        let err = adapter()
            .convert(&record("not-hex", 1, 0.0))
            .expect_err("7 chars of not-hex");
        assert!(matches!(err, AdapterError::BadEpc { .. }));
        assert!(format!("{err}").contains("not-hex"));
    }

    #[test]
    fn rejects_foreign_epcs() {
        let err = adapter()
            .convert(&record("0000000000000000000000CC", 1, 0.0))
            .expect_err("unknown tag");
        assert_eq!(err, AdapterError::UnknownEpc(Epc96::from_u128(0xCC)));
    }

    #[test]
    fn rejects_zero_antennas() {
        let err = adapter()
            .convert(&record("0000000000000000000000AA", 0, 0.0))
            .expect_err("0 is not a wire port");
        assert_eq!(err, AdapterError::BadAntenna);
    }

    #[test]
    fn rejects_non_finite_timestamps() {
        for (text, time_s) in [
            ("NaN", f64::NAN),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
        ] {
            let err = adapter()
                .convert(&record("0000000000000000000000AA", 1, time_s))
                .expect_err("non-finite time must not convert");
            assert_eq!(err, AdapterError::NonFiniteTime(text.to_owned()));
            assert!(format!("{err}").contains(text));
        }
    }

    #[test]
    fn duplicate_epcs_keep_their_first_index() {
        let adapter = WireEventAdapter::new(0, [Epc96::from_u128(1), Epc96::from_u128(1)]);
        let event = adapter
            .convert(&record("000000000000000000000001", 1, 0.0))
            .expect("valid record");
        assert_eq!(event.tag, 0);
    }

    #[test]
    fn round_trips_the_emulator_feed_format() {
        // The emulator serves EPCs as uppercase hex and 1-based antennas;
        // the adapter must invert that mapping exactly.
        let epc = Epc96::from_u128(0xDEADBEEF);
        let adapter = WireEventAdapter::new(0, [epc]);
        let served = TagRecord {
            epc: epc.to_string(),
            antenna: 1,
            time_s: 2.0,
        };
        let event = adapter.convert(&served).expect("round trip");
        assert_eq!(event.epc, epc);
        assert_eq!(event.antenna, 0);
    }
}
