//! An emulated RFID reader control interface.
//!
//! The paper's methodology section: "We developed software in Java to
//! interface with the reader. Our software sends commands to the reader
//! over its HTTP interface and the reader responds with a list of tags in
//! XML format. For all but the read range experiment, the readers were
//! operated in a buffered (continuous) read mode."
//!
//! This crate reproduces that integration surface so applications built on
//! the reproduction consume reads exactly the way the paper's harness did:
//!
//! * [`Request`]/[`Response`] — the command set (get-tags, buffered-mode
//!   control, status, power) with an XML wire format,
//! * [`ReaderEmulator`] — the "reader": it is fed the RF truth (read
//!   events from the simulator) and serves the command set, buffering
//!   reads in continuous mode,
//! * [`ReaderClient`] — the application side, speaking XML over a
//!   pluggable [`Transport`] (in-memory by default, like a loopback HTTP
//!   connection).
//!
//! The transport layer is built for the flaky links the paper's harness
//! ran on: exchanges return typed [`TransportError`]s, [`TcpTransport`]
//! arms read/write deadlines so a stalled reader cannot hang a client,
//! [`RetryingTransport`] adds bounded exponential backoff with
//! seed-deterministic jitter, and [`FaultTransport`] injects
//! seed-deterministic chaos (drops, disconnects, garbles, truncations,
//! delays) for soak testing. Wire-level health is tallied in
//! [`counters`], mirroring `rfid_sim::counters`.
//!
//! # Examples
//!
//! ```
//! use rfid_readerapi::{InMemoryTransport, ReaderClient, ReaderEmulator, TagRecord};
//!
//! let mut emulator = ReaderEmulator::new();
//! emulator.feed(TagRecord { epc: "AA00000000000000000000BB".into(), antenna: 1, time_s: 0.5 });
//!
//! let mut client = ReaderClient::new(InMemoryTransport::new(emulator));
//! client.start_buffered().unwrap();
//! // Reads arriving while buffering accumulate...
//! client.transport_mut().emulator_mut().feed(TagRecord {
//!     epc: "AA00000000000000000000CC".into(), antenna: 2, time_s: 1.0,
//! });
//! let tags = client.get_tags().unwrap();
//! assert_eq!(tags.len(), 1, "only the read fed while buffering is served");
//! assert_eq!(tags[0].antenna, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod counters;
mod error;
mod fault;
mod net;
mod protocol;
mod retry;
mod server;
mod stream;
mod wire;

pub use client::{ClientError, InMemoryTransport, ReaderClient, Transport};
pub use error::TransportError;
pub use fault::{FaultPlan, FaultStats, FaultTransport};
pub use net::{serve, serve_shared, ServeOptions, ServeSummary, TcpTransport, DEFAULT_DEADLINE};
pub use protocol::{ReaderMode, Request, Response, StatusReport, TagRecord};
pub use retry::{BackoffPolicy, RetryingTransport};
pub use server::ReaderEmulator;
pub use stream::{AdapterError, WireEventAdapter};
pub use wire::WireError;
