//! The reader command set and its XML encoding.

use crate::wire::{self, Cursor, WireError};

/// One tag report served by the reader.
#[derive(Debug, Clone, PartialEq)]
pub struct TagRecord {
    /// EPC as 24 hex digits.
    pub epc: String,
    /// Antenna port that read the tag (1-based, reader convention).
    pub antenna: u8,
    /// Reader timestamp in seconds.
    pub time_s: f64,
}

/// Reader operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReaderMode {
    /// Reads are served only from the moment of the request (single
    /// inventory), like the paper's read-range experiment.
    #[default]
    Polled,
    /// Continuous inventory with buffering, the paper's default mode.
    Buffered,
}

/// A reader status snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Current mode.
    pub mode: ReaderMode,
    /// Transmit power in dBm.
    pub power_dbm: f64,
    /// Reads currently buffered.
    pub buffered: usize,
}

/// A command from the client to the reader.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Return (and drain) the tag list.
    GetTags,
    /// Enter buffered (continuous) read mode.
    StartBuffered,
    /// Leave buffered mode.
    StopBuffered,
    /// Discard buffered reads.
    ClearBuffer,
    /// Report status.
    Status,
    /// Set transmit power in dBm.
    SetPower(f64),
    /// Ask the reader which portal it is. Reverse-connection
    /// deployments (readers dialing in to a site server) use this as
    /// the first exchange so the server can route the session's reads
    /// to the right portal lane.
    Identify,
}

impl Request {
    /// Encodes to the XML wire format.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<request>");
        match self {
            Request::GetTags => out.push_str("<get-tags/>"),
            Request::StartBuffered => out.push_str("<start-buffered/>"),
            Request::StopBuffered => out.push_str("<stop-buffered/>"),
            Request::ClearBuffer => out.push_str("<clear-buffer/>"),
            Request::Status => out.push_str("<status/>"),
            Request::SetPower(dbm) => wire::number(&mut out, "set-power", dbm),
            Request::Identify => out.push_str("<identify/>"),
        }
        out.push_str("</request>");
        out
    }

    /// Decodes from the XML wire format: one command element, as
    /// [`Request::to_xml`] writes it. Whitespace between elements is
    /// allowed; text between elements is an error.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed XML or unknown commands.
    pub fn from_xml(xml: &str) -> Result<Request, WireError> {
        let mut cursor = Cursor::new(xml);
        cursor.enter("request")?;
        let (name, closed) = cursor.start()?;
        let text = cursor.text(name, closed)?;
        let request = match name {
            "get-tags" => Request::GetTags,
            "start-buffered" => Request::StartBuffered,
            "stop-buffered" => Request::StopBuffered,
            "clear-buffer" => Request::ClearBuffer,
            "status" => Request::Status,
            "set-power" => Request::SetPower(wire::parse(name, &text)?),
            "identify" => Request::Identify,
            other => return Err(WireError::new(format!("unknown command <{other}>"))),
        };
        cursor.close("request")?;
        cursor.finish()?;
        Ok(request)
    }
}

/// A reader reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Command accepted.
    Ok,
    /// The requested tag list.
    Tags(Vec<TagRecord>),
    /// Status snapshot.
    Status(StatusReport),
    /// The reader's portal index, answering [`Request::Identify`].
    Identity(usize),
    /// Command failed.
    Error(String),
}

impl Response {
    /// Encodes to the XML wire format.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<response>");
        match self {
            Response::Ok => out.push_str("<ok/>"),
            Response::Error(message) => wire::leaf(&mut out, "error", message),
            Response::Identity(reader) => wire::number(&mut out, "identity", reader),
            Response::Tags(tags) if tags.is_empty() => out.push_str("<tags/>"),
            Response::Tags(tags) => {
                out.push_str("<tags>");
                for tag in tags {
                    out.push_str("<tag>");
                    wire::leaf(&mut out, "epc", &tag.epc);
                    wire::number(&mut out, "antenna", tag.antenna);
                    // Shortest-round-trip float text: the wire must hand
                    // back the exact timestamp it was fed, or the
                    // streaming data plane downstream of the adapter
                    // diverges from the recorded truth.
                    wire::number(&mut out, "time", tag.time_s);
                    out.push_str("</tag>");
                }
                out.push_str("</tags>");
            }
            Response::Status(status) => {
                out.push_str("<status>");
                let mode = match status.mode {
                    ReaderMode::Polled => "polled",
                    ReaderMode::Buffered => "buffered",
                };
                wire::leaf(&mut out, "mode", mode);
                wire::number(&mut out, "power", status.power_dbm);
                wire::number(&mut out, "buffered", status.buffered);
                out.push_str("</status>");
            }
        }
        out.push_str("</response>");
        out
    }

    /// Decodes from the XML wire format: the one-element shapes
    /// [`Response::to_xml`] writes, with their fields in its order.
    /// Whitespace between elements is allowed; text between elements,
    /// and unknown, repeated or reordered fields, are errors.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed XML or unknown reply shapes.
    pub fn from_xml(xml: &str) -> Result<Response, WireError> {
        let mut cursor = Cursor::new(xml);
        cursor.enter("response")?;
        let response = match cursor.start()? {
            ("tags", true) => Response::Tags(Vec::new()),
            ("tags", false) => Response::Tags(tag_list(&mut cursor)?),
            ("status", true) => return Err(WireError::new("<status> is empty")),
            ("status", false) => Response::Status(status(&mut cursor)?),
            (name, closed) => {
                let text = cursor.text(name, closed)?;
                match name {
                    "ok" => Response::Ok,
                    "error" => Response::Error(text.into_owned()),
                    "identity" => Response::Identity(wire::parse(name, &text)?),
                    other => return Err(WireError::new(format!("unknown response <{other}>"))),
                }
            }
        };
        cursor.close("response")?;
        cursor.finish()?;
        Ok(response)
    }
}

/// Reads `<tag>` entries through `</tags>`.
fn tag_list(cursor: &mut Cursor<'_>) -> Result<Vec<TagRecord>, WireError> {
    let mut tags = Vec::new();
    while !cursor.at_close("tags") {
        cursor.enter("tag")?;
        tags.push(TagRecord {
            epc: cursor.leaf("epc")?.into_owned(),
            antenna: cursor.number("antenna")?,
            time_s: cursor.number("time")?,
        });
        cursor.close("tag")?;
    }
    Ok(tags)
}

/// Reads a status report's fields through `</status>`.
fn status(cursor: &mut Cursor<'_>) -> Result<StatusReport, WireError> {
    let mode = match cursor.leaf("mode")?.as_ref() {
        "polled" => ReaderMode::Polled,
        "buffered" => ReaderMode::Buffered,
        other => return Err(WireError::new(format!("unknown mode {other:?}"))),
    };
    let status = StatusReport {
        mode,
        power_dbm: cursor.number("power")?,
        buffered: cursor.number("buffered")?,
    };
    cursor.close("status")?;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::GetTags,
            Request::StartBuffered,
            Request::StopBuffered,
            Request::ClearBuffer,
            Request::Status,
            Request::SetPower(27.5),
            Request::Identify,
        ] {
            let xml = request.to_xml();
            assert_eq!(Request::from_xml(&xml).unwrap(), request, "{xml}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Ok,
            Response::Error("antenna fault".into()),
            Response::Tags(vec![
                TagRecord {
                    epc: "AA00000000000000000000BB".into(),
                    antenna: 1,
                    time_s: 1.25,
                },
                TagRecord {
                    epc: "AA00000000000000000000CC".into(),
                    antenna: 2,
                    time_s: 2.5,
                },
            ]),
            Response::Status(StatusReport {
                mode: ReaderMode::Buffered,
                power_dbm: 30.0,
                buffered: 17,
            }),
            Response::Identity(0),
            Response::Identity(7),
        ];
        for response in responses {
            let xml = response.to_xml();
            assert_eq!(Response::from_xml(&xml).unwrap(), response, "{xml}");
        }
    }

    #[test]
    fn empty_tag_list_round_trips() {
        let xml = Response::Tags(Vec::new()).to_xml();
        assert_eq!(
            Response::from_xml(&xml).unwrap(),
            Response::Tags(Vec::new())
        );
    }

    #[test]
    fn unknown_commands_are_rejected() {
        assert!(Request::from_xml("<request><reboot/></request>").is_err());
        assert!(Request::from_xml("<request/>").is_err());
        assert!(Response::from_xml("<response><maybe/></response>").is_err());
    }

    #[test]
    fn set_power_requires_a_number() {
        assert!(Request::from_xml("<request><set-power>loud</set-power></request>").is_err());
        assert_eq!(
            Request::from_xml("<request><set-power>12.5</set-power></request>").unwrap(),
            Request::SetPower(12.5)
        );
    }

    #[test]
    fn control_characters_in_payloads_round_trip_in_one_frame() {
        // Regression: an epc or error message containing a newline used
        // to serialize as a raw `\n`, splitting the document across two
        // newline-delimited frames and desyncing the stream.
        let nasty = Response::Tags(vec![TagRecord {
            epc: "AA00\nBB\r\u{1}".into(),
            antenna: 1,
            time_s: 0.5,
        }]);
        let xml = nasty.to_xml();
        assert!(
            xml.chars().all(|c| !c.is_control()),
            "frame must stay single-line: {xml:?}"
        );
        assert_eq!(Response::from_xml(&xml).unwrap(), nasty);

        let error = Response::Error("first line\nsecond line".into());
        let xml = error.to_xml();
        assert!(!xml.contains('\n'));
        assert_eq!(Response::from_xml(&xml).unwrap(), error);
    }

    #[test]
    fn timestamps_round_trip_bit_exactly() {
        // Regression: `{:.6}` formatting used to quantize timestamps to
        // microseconds on the wire, so a replayed session diverged from
        // the recorded truth downstream of the adapter.
        let awkward = Response::Tags(vec![TagRecord {
            epc: "AA00000000000000000000BB".into(),
            antenna: 1,
            time_s: 0.008_420_024_999_999_998,
        }]);
        let decoded = Response::from_xml(&awkward.to_xml()).unwrap();
        assert_eq!(decoded, awkward);
    }

    #[test]
    fn wire_format_is_stable() {
        // Downstream parsers depend on these exact shapes.
        assert_eq!(Request::GetTags.to_xml(), "<request><get-tags/></request>");
        assert_eq!(Response::Ok.to_xml(), "<response><ok/></response>");
    }
}
