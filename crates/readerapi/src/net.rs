//! A TCP carrier for the reader wire format.
//!
//! The paper's software spoke to the AR400 over its network interface;
//! this module provides the equivalent: newline-delimited XML documents
//! over a TCP stream (our compact XML writer never emits newlines — it
//! escapes control characters — so line framing is unambiguous).
//!
//! The transport is built for the link failures the paper's harness
//! actually saw: every exchange is guarded by a read/write deadline, a
//! stalled peer surfaces as [`TransportError::Timeout`] instead of a
//! hang, a closed peer as [`TransportError::Disconnected`], and a frame
//! cut mid-line as [`TransportError::Truncated`]. A failed transport
//! [`Transport::reset`]s by reconnecting to the same peer, which is what
//! lets [`crate::RetryingTransport`] ride out connection loss.

use crate::client::Transport;
use crate::counters;
use crate::error::TransportError;
use crate::server::ReaderEmulator;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

/// The deadline [`TcpTransport::connect`] arms when none is given: long
/// enough for any real reader, short enough that a wedged peer cannot
/// hang an application.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// The longest wire line either side reads, in bytes before its
/// newline: about 190,000 tag records at 88 B each. Lines are read
/// through a limit one byte past it, so a longer line is refused once
/// that much of it has arrived and cannot grow the process.
pub(crate) const MAX_FRAME_BYTES: usize = 16 << 20;

/// A [`Transport`] over a TCP connection to a reader endpoint.
#[derive(Debug)]
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    deadline: Option<Duration>,
}

impl TcpTransport {
    /// Connects to a reader at `addr` with the [`DEFAULT_DEADLINE`].
    ///
    /// # Errors
    ///
    /// Returns any connection error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with_deadline(addr, Some(DEFAULT_DEADLINE))
    }

    /// Connects to a reader at `addr`, arming `deadline` on every read
    /// and write (`None` waits forever — only for debugging).
    ///
    /// # Errors
    ///
    /// Returns any connection error.
    pub fn connect_with_deadline<A: ToSocketAddrs>(
        addr: A,
        deadline: Option<Duration>,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, deadline)
    }

    /// Wraps an already-accepted connection as a transport, arming
    /// `deadline` on every read and write.
    ///
    /// This is the server-side mirror of [`TcpTransport::connect`]: a
    /// daemon that lets readers dial *in* (reverse sessions) accepts the
    /// stream and then speaks the protocol as the client over it. Note
    /// that [`Transport::reset`] on such a transport reconnects *out*
    /// to the recorded peer address, which an inbound-only reader will
    /// refuse — wrap with retry only when the peer also listens.
    ///
    /// # Errors
    ///
    /// Returns any socket-option error.
    pub fn from_accepted(stream: TcpStream, deadline: Option<Duration>) -> io::Result<Self> {
        Self::from_stream(stream, deadline)
    }

    fn from_stream(stream: TcpStream, deadline: Option<Duration>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            peer,
            deadline,
        })
    }

    /// The deadline armed on reads and writes.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The peer this transport is (re)connecting to.
    #[must_use]
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    fn classify(&self, err: &io::Error) -> TransportError {
        let classified = TransportError::from_io(err, self.deadline);
        match classified {
            TransportError::Timeout { .. } => counters::record_timeout(),
            TransportError::Disconnected => counters::record_disconnect(),
            TransportError::Truncated => counters::record_truncation(),
            _ => {}
        }
        classified
    }
}

impl Transport for TcpTransport {
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError> {
        counters::record_request();
        self.writer
            .write_all(request_xml.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|err| self.classify(&err))?;
        let mut line = Vec::new();
        let read = self
            .reader
            .by_ref()
            .take(MAX_FRAME_BYTES as u64 + 1)
            .read_until(b'\n', &mut line);
        match read {
            Ok(0) => {
                counters::record_disconnect();
                Err(TransportError::Disconnected)
            }
            Ok(_) if line.last() == Some(&b'\n') => match String::from_utf8(line) {
                Ok(mut reply) => {
                    reply.truncate(reply.trim_end().len());
                    Ok(reply)
                }
                Err(err) => Err(self.classify(&io::Error::new(io::ErrorKind::InvalidData, err))),
            },
            Ok(read) if read > MAX_FRAME_BYTES => {
                counters::record_malformed_frame();
                Err(TransportError::MalformedFrame {
                    detail: format!("reply line exceeds {MAX_FRAME_BYTES} bytes"),
                })
            }
            Ok(_) => {
                // EOF arrived mid-frame: the peer died while writing.
                counters::record_malformed_frame();
                counters::record_truncation();
                Err(TransportError::Truncated)
            }
            Err(err) => Err(self.classify(&err)),
        }
    }

    /// Reconnects to the same peer with the same deadline, discarding
    /// the (possibly desynchronized) old connection.
    fn reset(&mut self) -> Result<(), TransportError> {
        let stream = match self.deadline {
            Some(deadline) => TcpStream::connect_timeout(&self.peer, deadline),
            None => TcpStream::connect(self.peer),
        }
        .map_err(|err| self.classify(&err))?;
        *self = Self::from_stream(stream, self.deadline).map_err(|err| self.classify(&err))?;
        Ok(())
    }
}

/// Tallies a peer that vanished abortively mid-session, then hands the
/// error back for the serve loop's per-connection accounting.
fn classify_serve_error(err: io::Error) -> io::Error {
    match err.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::NotConnected => counters::record_disconnect(),
        io::ErrorKind::UnexpectedEof => counters::record_truncation(),
        _ => {}
    }
    err
}

/// The request/response loop shared by every serve entry point.
///
/// Frames are read with an explicit `read_line` loop rather than
/// `BufRead::lines()`: `lines()` yields a final *unterminated* partial
/// line as `Ok`, which silently promoted a client that died mid-frame
/// into a complete request. Here a frame without its closing newline is
/// a typed truncation — counted in [`crate::counters`] and surfaced as
/// an `UnexpectedEof` connection error — while EOF at a frame boundary
/// stays a clean disconnect.
fn serve_stream(stream: TcpStream, mut handle: impl FnMut(&str) -> String) -> io::Result<()> {
    // Request/response frames are tiny; without nodelay, Nagle plus
    // delayed ACKs adds ~40 ms to every exchange.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader
            .by_ref()
            .take(MAX_FRAME_BYTES as u64 + 1)
            .read_line(&mut line)
        {
            Ok(0) => return Ok(()), // clean disconnect at a frame boundary
            Ok(read) if read > MAX_FRAME_BYTES && !line.ends_with('\n') => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
                ));
            }
            Ok(_) if !line.ends_with('\n') => {
                counters::record_truncation();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "client disconnected mid-frame",
                ));
            }
            Ok(_) => {
                let request = line.trim();
                if request.is_empty() {
                    continue;
                }
                let response = handle(request);
                writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .map_err(classify_serve_error)?;
            }
            Err(err) => return Err(classify_serve_error(err)),
        }
    }
}

/// Serves one client connection against an emulator shared with other
/// threads, locking only for the duration of each request: reads
/// newline-framed XML requests and writes XML responses until the peer
/// disconnects. This is the per-connection body of [`serve`], exposed
/// so daemons can run the same loop over connections they accepted
/// themselves (e.g. a portal process dialing out to a site server).
///
/// # Errors
///
/// Returns I/O errors other than a clean disconnect; a client dying
/// mid-frame is an `UnexpectedEof` error (and a counted truncation),
/// not a silent success.
pub fn serve_shared(stream: TcpStream, emulator: &Mutex<ReaderEmulator>) -> io::Result<()> {
    serve_stream(stream, |request| {
        emulator
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .handle_xml(request)
    })
}

/// Configuration for the multi-connection [`serve`] loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Stop accepting after this many connections (`None` serves
    /// forever). The call returns once every accepted connection has
    /// been served to completion.
    pub max_connections: Option<usize>,
    /// Per-connection read deadline: a client that stalls longer than
    /// this has its connection closed (and counted as errored) instead
    /// of pinning a server thread forever. `None` waits forever.
    pub read_timeout: Option<Duration>,
}

/// What a [`serve`] loop did before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Connections that ended in an I/O error (timeout, reset,
    /// poisoned state) rather than a clean disconnect.
    pub connection_errors: u64,
}

/// Serves concurrent client connections against one shared emulator,
/// one thread per connection, until `options.max_connections` have been
/// accepted and completed.
///
/// Failures are isolated per connection: a client that stalls, resets,
/// or sends garbage gets its connection dropped (tallied in the
/// [`ServeSummary`] and the wire counters) while every other connection
/// keeps being served. Malformed XML on a healthy connection is *not* a
/// connection error — the emulator answers it in-band with an
/// `<error>` response, exactly as the AR400 did.
///
/// # Errors
///
/// Returns only listener-level `accept` failures; per-connection errors
/// never escape.
pub fn serve(
    listener: &TcpListener,
    emulator: &Mutex<ReaderEmulator>,
    options: ServeOptions,
) -> io::Result<ServeSummary> {
    let connections = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| -> io::Result<()> {
        let mut accepted = 0usize;
        while options.max_connections.is_none_or(|max| accepted < max) {
            let (stream, _peer) = listener.accept()?;
            accepted += 1;
            connections.fetch_add(1, Relaxed);
            counters::record_connection();
            let errors = &errors;
            scope.spawn(move || {
                let outcome = stream
                    .set_read_timeout(options.read_timeout)
                    .and_then(|()| serve_shared(stream, emulator));
                if outcome.is_err() {
                    errors.fetch_add(1, Relaxed);
                    counters::record_connection_error();
                }
            });
        }
        Ok(())
    })?;
    Ok(ServeSummary {
        connections: connections.load(Relaxed),
        connection_errors: errors.load(Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, ReaderClient};
    use crate::protocol::{ReaderMode, TagRecord};

    /// Serves one connection, which must end cleanly, and hands back the emulator.
    fn serve_one(listener: &TcpListener, emulator: ReaderEmulator) -> ReaderEmulator {
        let emulator = Mutex::new(emulator);
        let options = ServeOptions {
            max_connections: Some(1),
            ..ServeOptions::default()
        };
        let summary = serve(listener, &emulator, options).expect("serve");
        assert_eq!(summary.connection_errors, 0, "{summary:?}");
        emulator.into_inner().expect("no session panicked")
    }

    fn spawn_reader() -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<ReaderEmulator>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            let mut emulator = ReaderEmulator::new();
            emulator.feed(TagRecord {
                epc: "AA00000000000000000000BB".into(),
                antenna: 1,
                time_s: 0.25,
            }); // dropped: still polled mode
            serve_one(&listener, emulator)
        });
        (addr, handle)
    }

    #[test]
    fn full_session_over_tcp() {
        let (addr, server) = spawn_reader();
        let transport = TcpTransport::connect(addr).expect("connect");
        assert_eq!(transport.deadline(), Some(DEFAULT_DEADLINE));
        let mut client = ReaderClient::new(transport);

        client.start_buffered().expect("start buffered");
        let status = client.status().expect("status");
        assert_eq!(status.mode, ReaderMode::Buffered);
        assert_eq!(status.buffered, 0, "pre-buffering feed was dropped");
        client.set_power(27.0).expect("set power");
        assert_eq!(client.status().expect("status").power_dbm, 27.0);
        assert!(client.get_tags().expect("tags").is_empty());
        drop(client);

        let emulator = server.join().expect("server thread");
        assert_eq!(emulator.power_dbm(), 27.0, "state persisted server-side");
    }

    #[test]
    fn reader_errors_cross_the_wire() {
        let (addr, server) = spawn_reader();
        let mut client = ReaderClient::new(TcpTransport::connect(addr).expect("connect"));
        let err = client.set_power(99.0).expect_err("99 dBm is rejected");
        assert!(err.to_string().contains("99"));
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn disconnect_yields_typed_errors_not_panics() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Server accepts and immediately closes.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            drop(stream);
        });
        let mut client = ReaderClient::new(TcpTransport::connect(addr).expect("connect"));
        server.join().expect("server thread");
        match client.get_tags() {
            Err(ClientError::Transport(err)) => assert!(
                matches!(
                    err,
                    TransportError::Disconnected | TransportError::Io { .. }
                ),
                "unexpected class {err:?}"
            ),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn reset_reconnects_to_the_same_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // First connection: accept and drop. Second: serve a session.
            let (first, _) = listener.accept().expect("accept");
            drop(first);
            serve_one(&listener, ReaderEmulator::new());
        });
        let mut transport = TcpTransport::connect(addr).expect("connect");
        let peer = transport.peer();
        // The first connection is dead; an exchange fails...
        assert!(transport.exchange("<request><status/></request>").is_err());
        // ...reset reconnects, and the next exchange succeeds.
        transport.reset().expect("reconnect");
        assert_eq!(transport.peer(), peer);
        let reply = transport
            .exchange("<request><status/></request>")
            .expect("exchange after reset");
        assert!(reply.contains("<status>"));
        drop(transport);
        server.join().expect("server thread");
    }

    /// A reply line longer than [`MAX_FRAME_BYTES`] is a malformed
    /// frame once the cap has been read; it is not buffered whole.
    #[test]
    fn a_reply_line_over_the_cap_is_a_malformed_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(&stream)
                .read_line(&mut request)
                .expect("request");
            let mut reply = vec![b'x'; MAX_FRAME_BYTES + 1];
            reply.push(b'\n');
            // The client may hang up before the newline is sent.
            let _ = (&stream).write_all(&reply);
        });
        let mut transport = TcpTransport::connect(addr).expect("connect");
        let err = transport
            .exchange("<request><status/></request>")
            .expect_err("the reply is over the cap");
        assert!(
            matches!(err, TransportError::MalformedFrame { .. }),
            "{err:?}"
        );
        drop(transport);
        server.join().expect("server thread");
    }

    /// A request line longer than [`MAX_FRAME_BYTES`] ends its
    /// connection with an error once the cap has been read.
    #[test]
    fn a_request_line_over_the_cap_is_a_connection_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut request = vec![b'x'; MAX_FRAME_BYTES + 1];
            request.push(b'\n');
            // The server may hang up before the newline arrives; until
            // it does, wait for its end of the connection.
            let _ = stream.write_all(&request);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = io::copy(&mut stream, &mut io::sink());
        });
        let emulator = Mutex::new(ReaderEmulator::new());
        let options = ServeOptions {
            max_connections: Some(1),
            ..ServeOptions::default()
        };
        let summary = serve(&listener, &emulator, options).expect("serve");
        client.join().expect("client thread");
        assert_eq!(summary.connection_errors, 1, "{summary:?}");
    }
}
