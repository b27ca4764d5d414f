//! The query/control surface: line-delimited JSON over TCP.
//!
//! One request per line, one response per line. Every request carries
//! the shared auth token:
//!
//! ```json
//! {"token":"s3cr3t","method":"location_of","params":{"epc":"00..AA"}}
//! ```
//!
//! Responses are `{"ok":true,"result":…}` or `{"ok":false,"error":"…"}`.
//! Methods: `location_of`, `location_at`, `zone_history`, `counters`,
//! `shutdown`. A request with a bad token gets one error response and
//! the connection is closed — the error text does not reveal whether
//! the method or the EPC was otherwise valid.
//!
//! [`QueryClient`] is the matching typed client used by the demo, the
//! benchmarks, and the integration tests.

use crate::ingest::SharedIngest;
use crate::json::Json;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The longest request line the server reads, newline excluded.
/// [`QueryClient`]'s requests are well under 1 KiB. A longer line gets
/// one error frame, counts in `rpc_errors`, and closes the connection,
/// so a client cannot grow the daemon's memory before it authenticates.
pub(crate) const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// What the server should do after answering one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Keep the connection open for the next request.
    Continue,
    /// Close the connection (auth failure).
    Close,
    /// Begin graceful shutdown (drain sessions, then exit).
    Shutdown,
}

/// Serializes a response document, downgrading an unserializable one
/// (a non-finite number, now a typed [`crate::json::NonFiniteNumber`]
/// error) to an honest error frame instead of putting `NaN` on the
/// wire. The fallback frame is all-literal, so the final `unwrap_or`
/// string is statically parseable.
fn frame(doc: &Json) -> String {
    doc.to_json().unwrap_or_else(|err| {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            (
                "error".into(),
                Json::Str(format!("unserializable response: {err}")),
            ),
        ])
        .to_json()
        .unwrap_or_else(|_| r#"{"ok":false,"error":"unserializable response"}"#.to_owned())
    })
}

fn ok(result: Json) -> String {
    frame(&Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("result".into(), result),
    ]))
}

pub(crate) fn fail(error: impl Into<String>) -> String {
    frame(&Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(error.into())),
    ]))
}

#[allow(clippy::cast_precision_loss)]
fn num(value: u64) -> Json {
    Json::Num(value as f64)
}

/// Answers one request line. Every failure path is a JSON error
/// response — hostile bytes can never panic the daemon.
pub(crate) fn dispatch(
    line: &str,
    ingest: &SharedIngest<'_>,
    token: &str,
) -> (String, Disposition) {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(err) => {
            ingest.record_rpc_error();
            return (
                fail(format!("malformed request: {err}")),
                Disposition::Continue,
            );
        }
    };
    // Constant shape: token first, before the request is looked at.
    if doc.get("token").and_then(Json::as_str) != Some(token) {
        ingest.record_auth_failure();
        return (fail("auth token rejected"), Disposition::Close);
    }
    let Some(method) = doc.get("method").and_then(Json::as_str) else {
        ingest.record_rpc_error();
        return (fail("missing method"), Disposition::Continue);
    };
    let epc = |doc: &Json| -> Result<String, String> {
        doc.get("params")
            .and_then(|p| p.get("epc"))
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "missing params.epc".to_owned())
    };
    match method {
        "location_of" => match epc(&doc).and_then(|epc| ingest.location_of(&epc)) {
            Ok(Some((zone, name))) => {
                ingest.record_query();
                let result = Json::Obj(vec![
                    ("zone".into(), num(zone as u64)),
                    ("name".into(), Json::Str(name)),
                ]);
                (ok(result), Disposition::Continue)
            }
            Ok(None) => {
                ingest.record_query();
                (ok(Json::Null), Disposition::Continue)
            }
            Err(reason) => {
                ingest.record_rpc_error();
                (fail(reason), Disposition::Continue)
            }
        },
        "location_at" => {
            let time_s = doc
                .get("params")
                .and_then(|p| p.get("time_s"))
                .and_then(Json::as_f64)
                .ok_or_else(|| "missing params.time_s".to_owned());
            match epc(&doc)
                .and_then(|epc| time_s.map(|t| (epc, t)))
                .and_then(|(epc, t)| ingest.location_at(&epc, t))
            {
                Ok(Some((zone, name))) => {
                    ingest.record_query();
                    let result = Json::Obj(vec![
                        ("zone".into(), num(zone as u64)),
                        ("name".into(), Json::Str(name)),
                    ]);
                    (ok(result), Disposition::Continue)
                }
                Ok(None) => {
                    ingest.record_query();
                    (ok(Json::Null), Disposition::Continue)
                }
                Err(reason) => {
                    ingest.record_rpc_error();
                    (fail(reason), Disposition::Continue)
                }
            }
        }
        "zone_history" => match epc(&doc).and_then(|epc| ingest.zone_history(&epc)) {
            Ok(history) => {
                ingest.record_query();
                let rows = history
                    .into_iter()
                    .map(|(zone, name, time_s, inferred)| {
                        Json::Obj(vec![
                            ("zone".into(), num(zone as u64)),
                            ("name".into(), Json::Str(name)),
                            ("time_s".into(), Json::Num(time_s)),
                            ("inferred".into(), Json::Bool(inferred)),
                        ])
                    })
                    .collect();
                (ok(Json::Arr(rows)), Disposition::Continue)
            }
            Err(reason) => {
                ingest.record_rpc_error();
                (fail(reason), Disposition::Continue)
            }
        },
        "counters" => {
            ingest.record_query();
            // Aggregate rows plus per-shard `shard<N>_<name>` rows.
            let rows = ingest
                .counter_rows()
                .into_iter()
                .map(|(name, value)| (name, num(value)))
                .collect();
            (ok(Json::Obj(rows)), Disposition::Continue)
        }
        "shutdown" => {
            ingest.record_query();
            (ok(Json::Str("draining".into())), Disposition::Shutdown)
        }
        other => {
            ingest.record_rpc_error();
            (
                fail(format!("unknown method {other:?}")),
                Disposition::Continue,
            )
        }
    }
}

/// Why a query round-trip failed.
#[derive(Debug)]
pub enum RpcError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server answered, but not with the expected shape.
    Protocol(String),
    /// The server answered `{"ok":false,…}`.
    Denied(String),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(err) => write!(f, "query I/O failed: {err}"),
            RpcError::Protocol(detail) => write!(f, "query protocol violation: {detail}"),
            RpcError::Denied(reason) => write!(f, "query denied: {reason}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<io::Error> for RpcError {
    fn from(err: io::Error) -> Self {
        RpcError::Io(err)
    }
}

/// One row of a `zone_history` response.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Zone index.
    pub zone: usize,
    /// Zone display name.
    pub name: String,
    /// Observation time.
    pub time_s: f64,
    /// Whether the observation was inferred rather than read.
    pub inferred: bool,
}

/// A typed client for the query surface.
pub struct QueryClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    token: String,
}

impl QueryClient {
    /// Connects and remembers the auth token for every request.
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn connect(addr: SocketAddr, token: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            token: token.to_owned(),
        })
    }

    fn call(&mut self, method: &str, params: Vec<(String, Json)>) -> Result<Json, RpcError> {
        let request = Json::Obj(vec![
            ("token".into(), Json::Str(self.token.clone())),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), Json::Obj(params)),
        ]);
        let mut line = request
            .to_json()
            .map_err(|err| RpcError::Protocol(format!("unserializable request: {err}")))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(RpcError::Protocol("server closed the connection".into()));
        }
        let doc = Json::parse(response.trim_end_matches(['\r', '\n']))
            .map_err(|err| RpcError::Protocol(format!("unparseable response: {err}")))?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(doc.get("result").cloned().unwrap_or(Json::Null)),
            Some(false) => Err(RpcError::Denied(
                doc.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_owned(),
            )),
            None => Err(RpcError::Protocol("response missing ok field".into())),
        }
    }

    /// Where is this EPC now? `None` means unseen or stale.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on transport, protocol, or server errors.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn location_of(&mut self, epc: &str) -> Result<Option<(usize, String)>, RpcError> {
        let result = self.call(
            "location_of",
            vec![("epc".into(), Json::Str(epc.to_owned()))],
        )?;
        match result {
            Json::Null => Ok(None),
            other => {
                let zone = other
                    .get("zone")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| RpcError::Protocol("location without zone".into()))?;
                let name = other
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| RpcError::Protocol("location without name".into()))?;
                Ok(Some((zone as usize, name.to_owned())))
            }
        }
    }

    /// Where was this EPC at historical time `time_s`? `None` means
    /// unseen or stale as of that instant.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on transport, protocol, or server errors,
    /// and rejects a non-finite `time_s` client-side (the wire format
    /// cannot carry it).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn location_at(
        &mut self,
        epc: &str,
        time_s: f64,
    ) -> Result<Option<(usize, String)>, RpcError> {
        if !time_s.is_finite() {
            return Err(RpcError::Protocol(format!(
                "non-finite query time {time_s}"
            )));
        }
        let result = self.call(
            "location_at",
            vec![
                ("epc".into(), Json::Str(epc.to_owned())),
                ("time_s".into(), Json::Num(time_s)),
            ],
        )?;
        match result {
            Json::Null => Ok(None),
            other => {
                let zone = other
                    .get("zone")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| RpcError::Protocol("location without zone".into()))?;
                let name = other
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| RpcError::Protocol("location without name".into()))?;
                Ok(Some((zone as usize, name.to_owned())))
            }
        }
    }

    /// Full zone history of an EPC, oldest first.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on transport, protocol, or server errors.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn zone_history(&mut self, epc: &str) -> Result<Vec<HistoryRow>, RpcError> {
        let result = self.call(
            "zone_history",
            vec![("epc".into(), Json::Str(epc.to_owned()))],
        )?;
        let Json::Arr(rows) = result else {
            return Err(RpcError::Protocol("zone_history result not a list".into()));
        };
        rows.into_iter()
            .map(|row| {
                Ok(HistoryRow {
                    zone: row
                        .get("zone")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| RpcError::Protocol("history row without zone".into()))?
                        as usize,
                    name: row
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    time_s: row
                        .get("time_s")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| RpcError::Protocol("history row without time".into()))?,
                    inferred: row.get("inferred").and_then(Json::as_bool).unwrap_or(false),
                })
            })
            .collect()
    }

    /// Counter snapshot as `(name, value)` rows.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on transport, protocol, or server errors.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn counters(&mut self) -> Result<Vec<(String, u64)>, RpcError> {
        let result = self.call("counters", Vec::new())?;
        let Json::Obj(pairs) = result else {
            return Err(RpcError::Protocol("counters result not an object".into()));
        };
        Ok(pairs
            .into_iter()
            .map(|(name, value)| (name, value.as_f64().unwrap_or(0.0) as u64))
            .collect())
    }

    /// One named counter, 0 if the server does not report it.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on transport, protocol, or server errors.
    pub fn counter(&mut self, name: &str) -> Result<u64, RpcError> {
        Ok(self
            .counters()?
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v))
    }

    /// Asks the server to drain and exit gracefully.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on transport, protocol, or server errors.
    pub fn shutdown(&mut self) -> Result<(), RpcError> {
        self.call("shutdown", Vec::new()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_gen2::Epc96;
    use rfid_readerapi::WireEventAdapter;
    use rfid_track::{ObjectRegistry, Site};

    fn fixtures() -> (Site, ObjectRegistry, Vec<WireEventAdapter>, Epc96) {
        let mut site = Site::new();
        let dock = site.add_zone("dock");
        site.assign_portal(0, 0, dock);
        let mut registry = ObjectRegistry::new();
        let epc = Epc96::from_u128(0xFEED);
        let case = registry.register("case");
        registry.attach_tag(case, epc);
        let adapters = vec![WireEventAdapter::new(0, [epc])];
        (site, registry, adapters, epc)
    }

    #[test]
    fn location_at_dispatch_answers_queries_and_types_bad_params() {
        let (site, registry, adapters, epc) = fixtures();
        let ingest = SharedIngest::new(&site, &registry, &adapters, 3600.0, 1);
        let request =
            |params: &str| format!(r#"{{"token":"t","method":"location_at","params":{params}}}"#);

        // Unseen tag at any finite time: a null result, connection open.
        let (response, disposition) = dispatch(
            &request(&format!(r#"{{"epc":"{epc}","time_s":1.0}}"#)),
            &ingest,
            "t",
        );
        assert_eq!(response, r#"{"ok":true,"result":null}"#);
        assert_eq!(disposition, Disposition::Continue);

        // Missing time_s: a typed error, connection open.
        let (response, disposition) =
            dispatch(&request(&format!(r#"{{"epc":"{epc}"}}"#)), &ingest, "t");
        assert!(response.contains(r#""ok":false"#), "got: {response}");
        assert!(response.contains("time_s"), "got: {response}");
        assert_eq!(disposition, Disposition::Continue);

        // A non-finite literal in time_s dies in the JSON parser: the
        // daemon answers a malformed-request error instead of letting
        // NaN reach the tracker (the old panic path).
        let (response, disposition) = dispatch(
            &request(&format!(r#"{{"epc":"{epc}","time_s":1e999}}"#)),
            &ingest,
            "t",
        );
        assert!(response.contains(r#""ok":false"#), "got: {response}");
        assert_eq!(disposition, Disposition::Continue);
    }

    #[test]
    fn a_non_finite_response_document_downgrades_to_an_error_frame() {
        // If a handler ever produced a NaN (the json writer now refuses
        // to serialize it), the frame falls back to a parseable typed
        // error instead of emitting invalid JSON.
        let doc = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("result".into(), Json::Num(f64::NAN)),
        ]);
        let framed = frame(&doc);
        let parsed = Json::parse(&framed).expect("fallback frame parses");
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        let error = parsed
            .get("error")
            .and_then(Json::as_str)
            .expect("error text");
        assert!(error.contains("unserializable response"), "got: {error}");
    }
}
