//! The application-side reader client.

use crate::counters;
use crate::error::TransportError;
use crate::protocol::{Request, Response, StatusReport, TagRecord};
use crate::server::ReaderEmulator;
use crate::wire::WireError;
use std::error::Error;
use std::fmt;

/// A request/response byte transport to a reader.
///
/// The paper's harness spoke HTTP to the AR400; any blocking
/// request-response carrier fits this trait. An exchange either yields
/// the peer's response document or a typed [`TransportError`] — there
/// is no in-band error sentinel. Implementations in this crate:
/// [`InMemoryTransport`] (loopback), [`crate::TcpTransport`]
/// (deadline-guarded TCP), [`crate::RetryingTransport`] (bounded
/// deterministic retry), and [`crate::FaultTransport`] (seeded chaos).
pub trait Transport {
    /// Sends one request document and returns the response document.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] when the exchange could not be
    /// completed (I/O failure, timeout, disconnect, truncation).
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError>;

    /// Sends one request document and decodes the response document:
    /// [`Transport::exchange`], then [`Response::from_xml`]. A transport
    /// that decodes replies itself, as [`crate::RetryingTransport`]
    /// does to tell a garbled reply from a good one, overrides this to
    /// return the response it decoded rather than have it decoded
    /// again; [`ReaderClient`] calls only this.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the exchange could not be
    /// completed, [`ClientError::Wire`] when the reply does not decode.
    fn exchange_response(&mut self, request_xml: &str) -> Result<Response, ClientError> {
        let reply = self.exchange(request_xml)?;
        Ok(Response::from_xml(&reply)?)
    }

    /// Restores the transport to a usable state after a failed
    /// exchange — a TCP transport reconnects; stateless transports need
    /// nothing and keep this default no-op.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] when recovery itself failed.
    fn reset(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// Loopback transport embedding a [`ReaderEmulator`].
#[derive(Debug, Clone, Default)]
pub struct InMemoryTransport {
    emulator: ReaderEmulator,
}

impl InMemoryTransport {
    /// Wraps an emulator.
    #[must_use]
    pub fn new(emulator: ReaderEmulator) -> Self {
        Self { emulator }
    }

    /// Shared access to the embedded emulator.
    #[must_use]
    pub fn emulator(&self) -> &ReaderEmulator {
        &self.emulator
    }

    /// Exclusive access to the embedded emulator (to feed reads).
    pub fn emulator_mut(&mut self) -> &mut ReaderEmulator {
        &mut self.emulator
    }
}

impl Transport for InMemoryTransport {
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError> {
        counters::record_request();
        Ok(self.emulator.handle_xml(request_xml))
    }
}

/// Errors surfaced by [`ReaderClient`] calls.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClientError {
    /// The exchange itself failed (I/O, timeout, disconnect, retries
    /// exhausted).
    Transport(TransportError),
    /// The response was not parseable.
    Wire(WireError),
    /// The reader returned an error.
    Reader(String),
    /// The reader returned a well-formed but unexpected response kind.
    UnexpectedResponse(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(err) => write!(f, "transport error: {err}"),
            ClientError::Wire(err) => write!(f, "wire error: {err}"),
            ClientError::Reader(message) => write!(f, "reader error: {message}"),
            ClientError::UnexpectedResponse(kind) => {
                write!(f, "unexpected response: {kind}")
            }
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Transport(err) => Some(err),
            ClientError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

impl From<TransportError> for ClientError {
    fn from(err: TransportError) -> Self {
        ClientError::Transport(err)
    }
}

/// A typed client over any [`Transport`].
#[derive(Debug, Clone)]
pub struct ReaderClient<T> {
    transport: T,
}

impl<T: Transport> ReaderClient<T> {
    /// Creates a client over the given transport.
    #[must_use]
    pub fn new(transport: T) -> Self {
        Self { transport }
    }

    /// Borrows the transport (e.g. to feed an in-memory emulator).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let response = self.transport.exchange_response(&request.to_xml())?;
        if let Response::Error(message) = response {
            return Err(ClientError::Reader(message));
        }
        Ok(response)
    }

    fn expect_ok(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.call(request)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches (and drains) the reader's tag list.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport, wire, or reader failures.
    pub fn get_tags(&mut self) -> Result<Vec<TagRecord>, ClientError> {
        match self.call(&Request::GetTags)? {
            Response::Tags(tags) => Ok(tags),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Enters buffered (continuous) read mode.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport, wire, or reader failures.
    pub fn start_buffered(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::StartBuffered)
    }

    /// Fetches reader status.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport, wire, or reader failures.
    pub fn status(&mut self) -> Result<StatusReport, ClientError> {
        match self.call(&Request::Status)? {
            Response::Status(status) => Ok(status),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Asks the reader which portal it is (reverse-connection
    /// deployments route sessions by this index).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport, wire, or reader failures.
    pub fn identify(&mut self) -> Result<usize, ClientError> {
        match self.call(&Request::Identify)? {
            Response::Identity(reader) => Ok(reader),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Sets transmit power.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Reader`] if the reader rejects the power
    /// level, or other variants on transport/wire failures.
    pub fn set_power(&mut self, dbm: f64) -> Result<(), ClientError> {
        self.expect_ok(&Request::SetPower(dbm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReaderMode;

    fn client() -> ReaderClient<InMemoryTransport> {
        ReaderClient::new(InMemoryTransport::new(ReaderEmulator::new()))
    }

    #[test]
    fn full_buffered_session() {
        let mut client = client();
        client.start_buffered().unwrap();
        client.transport_mut().emulator_mut().feed(TagRecord {
            epc: "AA00000000000000000000BB".into(),
            antenna: 1,
            time_s: 0.5,
        });
        let status = client.status().unwrap();
        assert_eq!(status.mode, ReaderMode::Buffered);
        assert_eq!(status.buffered, 1);
        let tags = client.get_tags().unwrap();
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].epc, "AA00000000000000000000BB");
        let emulator = client.transport_mut().emulator_mut();
        assert_eq!(emulator.handle(&Request::StopBuffered), Response::Ok);
        assert_eq!(client.status().unwrap().mode, ReaderMode::Polled);
    }

    #[test]
    fn identify_round_trips_the_portal_index() {
        let mut client =
            ReaderClient::new(InMemoryTransport::new(ReaderEmulator::with_reader_id(4)));
        assert_eq!(client.identify().unwrap(), 4);
    }

    #[test]
    fn reader_errors_surface_as_client_errors() {
        let mut client = client();
        let err = client.set_power(99.0).unwrap_err();
        assert!(matches!(err, ClientError::Reader(_)));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn set_power_round_trips() {
        let mut client = client();
        client.set_power(25.0).unwrap();
        assert_eq!(client.status().unwrap().power_dbm, 25.0);
    }

    #[test]
    fn garbage_transport_yields_wire_errors() {
        struct Garbage;
        impl Transport for Garbage {
            fn exchange(&mut self, _request_xml: &str) -> Result<String, TransportError> {
                Ok("<<<not xml".to_owned())
            }
        }
        let mut client = ReaderClient::new(Garbage);
        assert!(matches!(client.get_tags(), Err(ClientError::Wire(_))));
    }

    #[test]
    fn transport_failures_surface_typed() {
        struct Dead;
        impl Transport for Dead {
            fn exchange(&mut self, _request_xml: &str) -> Result<String, TransportError> {
                Err(TransportError::Disconnected)
            }
        }
        let mut client = ReaderClient::new(Dead);
        let err = client.get_tags().unwrap_err();
        assert_eq!(
            err,
            ClientError::Transport(TransportError::Disconnected),
            "the typed failure crosses the client unchanged"
        );
        assert!(err.source().is_some(), "transport error is the source");
    }
}
