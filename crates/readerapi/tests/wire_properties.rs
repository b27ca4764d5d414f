//! Property tests over the XML wire format: the decoders never panic on
//! arbitrary input, every generated message round-trips, and whitespace
//! between elements never changes what a frame decodes to.

use proptest::prelude::*;
use rfid_readerapi::{ReaderMode, Request, Response, StatusReport, TagRecord};

/// Printable text, markup included, plus the control characters that
/// used to desync the newline framing.
const TEXT: &str = "[ -~\n\r\t\u{0}-\u{8}\u{7f}]{0,24}";
/// Whitespace as the decoders see it, ASCII and wider.
const GAP: &str = "[ \t\n\r\u{b}\u{c}\u{85}\u{a0}\u{2028}\u{3000}]{0,3}";

fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..7, -40.0f64..40.0).prop_map(|(kind, dbm)| match kind {
        0 => Request::GetTags,
        1 => Request::StartBuffered,
        2 => Request::StopBuffered,
        3 => Request::ClearBuffer,
        4 => Request::Status,
        5 => Request::SetPower(dbm),
        _ => Request::Identify,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let specials = [-0.0, 5e-324, 1e300, f64::INFINITY, -f64::INFINITY, f64::NAN];
    let time = prop_oneof![-1e6f64..1e6, (0usize..6).prop_map(move |i| specials[i])];
    let tag = (TEXT, 0u8..=255, time).prop_map(|(epc, antenna, time_s)| TagRecord {
        epc,
        antenna,
        time_s,
    });
    let status = StatusReport {
        mode: ReaderMode::Buffered,
        power_dbm: 27.5,
        buffered: 3,
    };
    prop_oneof![
        Just(Response::Ok),
        Just(Response::Status(status)),
        TEXT.prop_map(Response::Error),
        (0usize..10_000).prop_map(Response::Identity),
        proptest::collection::vec(tag, 0..6).prop_map(Response::Tags),
    ]
}

/// Inserts the gaps, in turn, before every tag that follows another
/// tag, before the first tag, after the last, and inside every
/// self-closing tag (`<name />`). A frame's text never holds a raw `<`
/// or `>`, so every `>` ends a tag.
fn spread(xml: &str, gaps: &[String]) -> String {
    let mut gaps = gaps.iter().map(String::as_str).cycle();
    let mut gap = move || gaps.next().unwrap_or("");
    let mut out = String::new();
    for piece in xml.split_inclusive('>') {
        if piece.starts_with('<') {
            out.push_str(gap());
        }
        match piece.strip_suffix("/>") {
            Some(tag) => {
                out.push_str(tag);
                out.push_str(gap());
                out.push_str("/>");
            }
            None => out.push_str(piece),
        }
    }
    out.push_str(gap());
    out
}

proptest! {
    /// Arbitrary bytes: decoding returns a Result, never panics.
    #[test]
    fn parser_never_panics(input in ".{0,256}") {
        let _ = Request::from_xml(&input);
        let _ = Response::from_xml(&input);
    }

    /// Arbitrary angle-bracket soup: still no panics.
    #[test]
    fn parser_survives_tag_soup(input in "[<>/a-z \\-]{0,128}") {
        let _ = Request::from_xml(&input);
        let _ = Response::from_xml(&input);
    }

    /// Whitespace between the elements of any encoded message, and
    /// inside its self-closing tags, leaves the decoded value unchanged.
    #[test]
    fn whitespace_between_elements_changes_nothing(
        request in arb_request(),
        response in arb_response(),
        gaps in proptest::collection::vec(GAP, 1..16),
    ) {
        let (request, response) = (request.to_xml(), response.to_xml());
        let spread = (spread(&request, &gaps), spread(&response, &gaps));
        let decoded = (Request::from_xml(&request), Response::from_xml(&response));
        prop_assert!(decoded.0.is_ok() && decoded.1.is_ok(), "{:?}", decoded);
        // Debug text tells -0.0 from 0.0 and shows NaN, where `==` cannot.
        let respread = (Request::from_xml(&spread.0), Response::from_xml(&spread.1));
        prop_assert_eq!(format!("{:?}", respread), format!("{:?}", decoded), "{:?}", spread);
    }

    /// EPCs and error text containing newlines survive the protocol
    /// layer in one frame (the original framing-desync bug).
    #[test]
    fn control_laden_tag_records_round_trip(
        epc in "[0-9A-F\n\r\t]{1,24}",
        message in "[ -~\n\r]{0,32}",
    ) {
        let epc = epc.trim_matches(' ').to_owned();
        let message = message.trim_matches(' ').to_owned();
        let tags = Response::Tags(vec![TagRecord { epc, antenna: 1, time_s: 1.0 }]);
        let error = Response::Error(message);
        for response in [tags, error] {
            let xml = response.to_xml();
            prop_assert!(!xml.contains('\n') && !xml.contains('\r'), "{:?}", xml);
            prop_assert_eq!(Response::from_xml(&xml).expect("round trip"), response);
        }
    }

    /// Every tag list round-trips through the full protocol layer.
    #[test]
    fn tag_lists_round_trip(
        records in proptest::collection::vec(
            ("[0-9A-F]{24}", 1u8..5, 0.0f64..100.0),
            0..16,
        )
    ) {
        let tags: Vec<TagRecord> = records
            .into_iter()
            .map(|(epc, antenna, time_s)| TagRecord { epc, antenna, time_s })
            .collect();
        let response = Response::Tags(tags.clone());
        let parsed = Response::from_xml(&response.to_xml()).expect("round trip");
        match parsed {
            Response::Tags(out) => {
                prop_assert_eq!(out.len(), tags.len());
                for (a, b) in out.iter().zip(&tags) {
                    prop_assert_eq!(&a.epc, &b.epc);
                    prop_assert_eq!(a.antenna, b.antenna);
                    prop_assert!((a.time_s - b.time_s).abs() < 1e-6);
                }
            }
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Power levels round-trip through requests.
    #[test]
    fn set_power_round_trips(dbm in 10.0f64..33.0) {
        let request = Request::SetPower(dbm);
        match Request::from_xml(&request.to_xml()).expect("round trip") {
            Request::SetPower(out) => prop_assert!((out - dbm).abs() < 1e-9),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Status reports round-trip.
    #[test]
    fn status_round_trips(power in 10.0f64..33.0, buffered in 0usize..10_000) {
        for mode in [ReaderMode::Polled, ReaderMode::Buffered] {
            let response = Response::Status(StatusReport {
                mode,
                power_dbm: power,
                buffered,
            });
            let parsed = Response::from_xml(&response.to_xml()).expect("round trip");
            match parsed {
                Response::Status(status) => {
                    prop_assert_eq!(status.mode, mode);
                    prop_assert_eq!(status.buffered, buffered);
                }
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }
}
