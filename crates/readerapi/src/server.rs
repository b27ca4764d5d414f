//! The reader emulator.

use crate::protocol::{ReaderMode, Request, Response, StatusReport, TagRecord};
use rfid_sim::SimOutput;

/// An AR400-style reader emulator.
///
/// The emulator sits between an RF truth source and a client speaking the
/// XML command set. Reads are *fed* to it (from a simulation run, a trace,
/// or a test) and served according to the mode:
///
/// * **Buffered** — fed reads accumulate and `get-tags` drains the buffer,
/// * **Polled** — fed reads are dropped unless a `get-tags` is in flight.
#[derive(Debug, Clone, Default)]
pub struct ReaderEmulator {
    mode: ReaderMode,
    power_dbm: f64,
    buffer: Vec<TagRecord>,
    reader_id: usize,
}

impl ReaderEmulator {
    /// Creates a reader in polled mode at 30 dBm (the paper's default
    /// power), identifying as portal 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            mode: ReaderMode::Polled,
            power_dbm: 30.0,
            buffer: Vec::new(),
            reader_id: 0,
        }
    }

    /// Creates a reader identifying as portal `reader_id` — the index a
    /// site server routes this session's reads under.
    #[must_use]
    pub fn with_reader_id(reader_id: usize) -> Self {
        let mut reader = Self::new();
        reader.reader_id = reader_id;
        reader
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> ReaderMode {
        self.mode
    }

    /// Current transmit power.
    #[must_use]
    pub fn power_dbm(&self) -> f64 {
        self.power_dbm
    }

    /// Number of buffered reads.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Feeds one read from the RF front end. Buffered mode accumulates;
    /// polled mode drops it (the read happened while nobody asked).
    pub fn feed(&mut self, record: TagRecord) {
        if self.mode == ReaderMode::Buffered {
            self.buffer.push(record);
        }
    }

    /// Feeds one simulator read, mapping the simulator's 0-based antenna
    /// port to the reader's 1-based convention — the streaming face of
    /// [`ReaderEmulator::feed_simulation`].
    pub fn feed_sim_read(&mut self, read: &rfid_sim::ReadEvent) {
        self.feed(TagRecord {
            epc: read.epc.to_string(),
            antenna: (read.antenna + 1) as u8,
            time_s: read.time_s,
        });
    }

    /// Feeds every read of a simulation output, mapping the simulator's
    /// 0-based antenna ports to the reader's 1-based convention.
    pub fn feed_simulation(&mut self, output: &SimOutput) {
        for read in &output.reads {
            self.feed_sim_read(read);
        }
    }

    /// Handles a decoded request.
    pub fn handle(&mut self, request: &Request) -> Response {
        match request {
            Request::GetTags => Response::Tags(std::mem::take(&mut self.buffer)),
            Request::StartBuffered => {
                self.mode = ReaderMode::Buffered;
                Response::Ok
            }
            Request::StopBuffered => {
                self.mode = ReaderMode::Polled;
                Response::Ok
            }
            Request::ClearBuffer => {
                self.buffer.clear();
                Response::Ok
            }
            Request::Status => Response::Status(StatusReport {
                mode: self.mode,
                power_dbm: self.power_dbm,
                buffered: self.buffer.len(),
            }),
            Request::Identify => Response::Identity(self.reader_id),
            Request::SetPower(dbm) => {
                if (10.0..=33.0).contains(dbm) {
                    self.power_dbm = *dbm;
                    Response::Ok
                } else {
                    Response::Error(format!("power {dbm} dBm outside 10-33 dBm"))
                }
            }
        }
    }

    /// Handles a raw XML request, returning raw XML — the full wire
    /// path. A malformed request is answered in-band with an `<error>`
    /// response (and tallied in [`crate::counters`]); it never kills
    /// the connection serving it.
    #[must_use]
    pub fn handle_xml(&mut self, request_xml: &str) -> String {
        match Request::from_xml(request_xml) {
            Ok(request) => self.handle(&request).to_xml(),
            Err(err) => {
                crate::counters::record_malformed_frame();
                Response::Error(err.to_string()).to_xml()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epc: &str, time_s: f64) -> TagRecord {
        TagRecord {
            epc: epc.to_owned(),
            antenna: 1,
            time_s,
        }
    }

    #[test]
    fn polled_mode_drops_unsolicited_reads() {
        let mut reader = ReaderEmulator::new();
        reader.feed(record("AA", 1.0));
        assert_eq!(reader.handle(&Request::GetTags), Response::Tags(Vec::new()));
    }

    #[test]
    fn buffered_mode_accumulates_and_drains() {
        let mut reader = ReaderEmulator::new();
        assert_eq!(reader.handle(&Request::StartBuffered), Response::Ok);
        reader.feed(record("AA", 1.0));
        reader.feed(record("BB", 2.0));
        match reader.handle(&Request::GetTags) {
            Response::Tags(tags) => assert_eq!(tags.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Drained.
        assert_eq!(reader.handle(&Request::GetTags), Response::Tags(Vec::new()));
    }

    #[test]
    fn clear_buffer_discards() {
        let mut reader = ReaderEmulator::new();
        reader.handle(&Request::StartBuffered);
        reader.feed(record("AA", 1.0));
        reader.handle(&Request::ClearBuffer);
        assert_eq!(reader.handle(&Request::GetTags), Response::Tags(Vec::new()));
    }

    #[test]
    fn status_reflects_state() {
        let mut reader = ReaderEmulator::new();
        reader.handle(&Request::StartBuffered);
        reader.feed(record("AA", 1.0));
        match reader.handle(&Request::Status) {
            Response::Status(status) => {
                assert_eq!(status.mode, ReaderMode::Buffered);
                assert_eq!(status.buffered, 1);
                assert_eq!(status.power_dbm, 30.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn power_is_validated() {
        let mut reader = ReaderEmulator::new();
        assert_eq!(reader.handle(&Request::SetPower(27.0)), Response::Ok);
        assert_eq!(reader.power_dbm(), 27.0);
        assert!(matches!(
            reader.handle(&Request::SetPower(99.0)),
            Response::Error(_)
        ));
        assert_eq!(reader.power_dbm(), 27.0);
    }

    #[test]
    fn identify_serves_the_configured_portal_index() {
        let mut reader = ReaderEmulator::new();
        assert_eq!(reader.handle(&Request::Identify), Response::Identity(0));
        let mut portal = ReaderEmulator::with_reader_id(3);
        assert_eq!(portal.handle(&Request::Identify), Response::Identity(3));
    }

    #[test]
    fn xml_path_serves_errors_for_garbage() {
        let mut reader = ReaderEmulator::new();
        let response = reader.handle_xml("not xml at all");
        assert!(response.contains("<error>"));
    }
}
