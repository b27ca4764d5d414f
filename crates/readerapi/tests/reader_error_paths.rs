//! Reader wire-path failure coverage over real TCP: stalled peers must
//! time out instead of hanging, garbage and truncated frames must
//! surface as typed errors, and the multi-connection serve loop must
//! isolate a misbehaving client from everyone else.

use rfid_readerapi::{
    serve, ClientError, ReaderClient, ReaderEmulator, ServeOptions, TcpTransport, TransportError,
};
use std::error::Error as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A server that accepts one connection, reads one request line, and
/// then runs `respond` on the raw stream.
fn one_shot_server<F>(respond: F) -> std::net::SocketAddr
where
    F: FnOnce(TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("read request");
        respond(stream);
    });
    addr
}

/// Regression: a stalled (half-open) server used to hang the client in
/// `read_line` forever. Every call must now fail with a typed timeout
/// within the configured deadline.
#[test]
fn stalled_server_times_out_instead_of_hanging() {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let addr = one_shot_server(move |stream| {
        // Hold the connection open, never answer, until the test ends.
        let _ = release_rx.recv();
        drop(stream);
    });

    let deadline = Duration::from_millis(200);
    let transport = TcpTransport::connect_with_deadline(addr, Some(deadline)).expect("connect");
    let mut client = ReaderClient::new(transport);
    let started = Instant::now();
    let err = client.get_tags().expect_err("stall must not succeed");
    let elapsed = started.elapsed();

    assert!(
        matches!(
            err,
            ClientError::Transport(TransportError::Timeout {
                deadline: Some(d)
            }) if d == deadline
        ),
        "expected a typed timeout carrying the deadline, got {err:?}"
    );
    assert!(
        elapsed < deadline * 10,
        "timeout must fire near the deadline, took {elapsed:?}"
    );
    release_tx.send(()).expect("release server");
}

#[test]
fn garbage_frames_over_tcp_surface_as_wire_errors() {
    let addr = one_shot_server(|mut stream| {
        stream
            .write_all(b"}}} this is not xml {{{\n")
            .expect("write garbage");
    });
    let mut client = ReaderClient::new(TcpTransport::connect(addr).expect("connect"));
    let err = client.get_tags().expect_err("garbage must not parse");
    assert!(
        matches!(err, ClientError::Wire(_)),
        "expected a wire error, got {err:?}"
    );
}

#[test]
fn truncated_frames_over_tcp_surface_as_truncation() {
    let addr = one_shot_server(|mut stream| {
        // Start a frame, then die before the newline terminator.
        stream
            .write_all(b"<response><tags><tag><epc>AA0")
            .expect("write partial frame");
        drop(stream);
    });
    let mut client = ReaderClient::new(TcpTransport::connect(addr).expect("connect"));
    let err = client.get_tags().expect_err("truncation must not succeed");
    assert_eq!(
        err,
        ClientError::Transport(TransportError::Truncated),
        "mid-frame EOF must be reported as truncation"
    );
}

#[test]
fn client_error_display_and_source_cover_every_variant() {
    let cases: Vec<(ClientError, &str, bool)> = vec![
        (
            ClientError::Transport(TransportError::Timeout {
                deadline: Some(Duration::from_millis(250)),
            }),
            "transport error",
            true,
        ),
        (
            ClientError::Transport(TransportError::RetriesExhausted {
                attempts: 3,
                last: Box::new(TransportError::Disconnected),
            }),
            "3 attempts",
            true,
        ),
        (
            ClientError::Wire(
                rfid_readerapi::Response::from_xml("not xml").expect_err("garbage must fail"),
            ),
            "wire error",
            true,
        ),
        (
            ClientError::Reader("antenna fault".into()),
            "reader error: antenna fault",
            false,
        ),
        (
            ClientError::UnexpectedResponse("Ok".into()),
            "unexpected response: Ok",
            false,
        ),
    ];
    for (err, needle, has_source) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{text:?} missing {needle:?}");
        assert_eq!(err.source().is_some(), has_source, "{err:?}");
    }
}

/// Regression: `BufRead::lines()` used to yield a final *unterminated*
/// line as `Ok`, so a client that died mid-frame had its partial frame
/// promoted to a complete request and the disconnect vanished into a
/// response written to a dead socket. A mid-frame EOF must now surface
/// as a typed truncation in the wire counters and count the connection
/// as errored — while a healthy connection still completes.
#[test]
fn mid_frame_disconnect_during_serve_surfaces_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let emulator = Mutex::new(ReaderEmulator::new());
        let options = ServeOptions {
            max_connections: Some(2),
            read_timeout: Some(Duration::from_secs(2)),
        };
        serve(&listener, &emulator, options).expect("serve loop")
    });
    let before = rfid_readerapi::counters::snapshot();

    // Connection 1: starts a request frame, then dies before the
    // newline terminator.
    let mut dying = TcpStream::connect(addr).expect("connect dying client");
    dying
        .write_all(b"<request><status/></requ")
        .expect("send partial frame");
    drop(dying);

    // Connection 2: a healthy session is unaffected.
    let mut client = ReaderClient::new(TcpTransport::connect(addr).expect("connect healthy"));
    client.status().expect("healthy session completes");
    drop(client);

    let summary = server.join().expect("server thread");
    assert_eq!(summary.connections, 2);
    assert_eq!(
        summary.connection_errors, 1,
        "the mid-frame death must be an error, not a silent drop: {summary:?}"
    );
    let delta = rfid_readerapi::counters::snapshot().since(&before);
    assert!(
        delta.truncations >= 1,
        "the truncation must be tallied in the wire counters: {delta:?}"
    );
}

/// The multi-connection serve loop: a client sending malformed XML gets
/// an in-band `<error>` answer, a client that stalls past the read
/// deadline gets dropped and counted — and in both cases a healthy
/// client on another connection completes its full session.
#[test]
fn serve_isolates_misbehaving_connections() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let emulator = Mutex::new(ReaderEmulator::new());
        let options = ServeOptions {
            max_connections: Some(3),
            read_timeout: Some(Duration::from_millis(150)),
        };
        serve(&listener, &emulator, options).expect("serve loop")
    });

    // Connection 1: speaks malformed XML, stays connected, and gets a
    // well-formed error back for each bad frame.
    let mut garbler = TcpStream::connect(addr).expect("connect garbler");
    let mut garbler_reader = BufReader::new(garbler.try_clone().expect("clone"));
    for _ in 0..3 {
        garbler
            .write_all(b"<request><oops\n")
            .expect("send garbage");
        let mut reply = String::new();
        garbler_reader.read_line(&mut reply).expect("read reply");
        assert!(
            reply.contains("<error>"),
            "malformed XML is answered in-band: {reply:?}"
        );
    }

    // Connection 2: connects and stalls past the server's read
    // deadline; the server must drop it as errored.
    let staller = TcpStream::connect(addr).expect("connect staller");

    // Connection 3: a healthy client runs a complete session while the
    // other two misbehave.
    let mut client = ReaderClient::new(TcpTransport::connect(addr).expect("connect healthy"));
    client.start_buffered().expect("start buffered");
    client.set_power(27.0).expect("set power");
    let status = client.status().expect("status");
    assert_eq!(status.power_dbm, 27.0);
    assert!(client.get_tags().expect("tags").is_empty());
    drop(client);
    // Close *both* handles to the garbler's socket so the server sees a
    // clean FIN rather than a read timeout.
    drop(garbler_reader);
    drop(garbler);

    let summary = server.join().expect("server thread");
    assert_eq!(summary.connections, 3);
    assert_eq!(
        summary.connection_errors, 1,
        "exactly the stalled connection errors; garbled XML and clean \
         disconnects do not: {summary:?}"
    );
    drop(staller);
}
