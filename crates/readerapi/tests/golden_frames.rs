//! Golden frames: the exact bytes every reader message puts on the wire.
//! Peers depend on them, and so does the benchmark's emulated portal,
//! which compares request lines with `Request::GetTags.to_xml()`.

use rfid_readerapi::{ReaderMode, Request, Response, StatusReport, TagRecord};

#[test]
fn every_request_has_a_pinned_frame() {
    let bodies = [
        (Request::GetTags, "<get-tags/>"),
        (Request::StartBuffered, "<start-buffered/>"),
        (Request::StopBuffered, "<stop-buffered/>"),
        (Request::ClearBuffer, "<clear-buffer/>"),
        (Request::Status, "<status/>"),
        (Request::SetPower(27.5), "<set-power>27.5</set-power>"),
        (Request::SetPower(30.0), "<set-power>30</set-power>"),
        (Request::SetPower(-0.0), "<set-power>-0</set-power>"),
        (Request::Identify, "<identify/>"),
    ];
    for (request, body) in bodies {
        assert_eq!(request.to_xml(), format!("<request>{body}</request>"));
    }
}

#[test]
fn control_responses_have_pinned_frames() {
    let error = Response::Error("99 dBm\n& <more>".into());
    let status = Response::Status(StatusReport {
        mode: ReaderMode::Buffered,
        power_dbm: 27.5,
        buffered: 17,
    });
    let status_body =
        "<status><mode>buffered</mode><power>27.5</power><buffered>17</buffered></status>";
    let bodies = [
        (Response::Ok, "<ok/>"),
        (Response::Error(String::new()), "<error/>"),
        (error, "<error>99 dBm&#10;&amp; &lt;more&gt;</error>"),
        (Response::Identity(7), "<identity>7</identity>"),
        (status, status_body),
        (Response::Tags(Vec::new()), "<tags/>"),
    ];
    for (response, body) in bodies {
        assert_eq!(response.to_xml(), format!("<response>{body}</response>"));
    }
}

/// Escapes, control characters, an empty EPC, the antenna extremes and
/// the float values whose text is easiest to get wrong.
#[test]
fn a_representative_tag_list_has_a_pinned_frame() {
    let records = [
        ("AA00000000000000000000BB", 1, 0.25),
        ("A&B<C>D", 0, -0.0),
        ("line\nfeed\rreturn\u{1}start", 255, 5e-324),
        ("", 2, 1e300),
        ("&amp;", 3, f64::INFINITY),
        ("x", 4, f64::NEG_INFINITY),
        ("y", 5, f64::NAN),
        ("z", 6, 0.008_420_024_999_999_998),
    ];
    let tags = Response::Tags(
        records
            .into_iter()
            .map(|(epc, antenna, time_s)| TagRecord {
                epc: epc.to_owned(),
                antenna,
                time_s,
            })
            .collect(),
    );
    let (subnormal, huge) = (
        format!("0.{}5", "0".repeat(323)),
        format!("1{}", "0".repeat(300)),
    );
    let frame = format!(
        "<response><tags>\
         <tag><epc>AA00000000000000000000BB</epc><antenna>1</antenna><time>0.25</time></tag>\
         <tag><epc>A&amp;B&lt;C&gt;D</epc><antenna>0</antenna><time>-0</time></tag>\
         <tag><epc>line&#10;feed&#13;return&#1;start</epc><antenna>255</antenna>\
         <time>{subnormal}</time></tag>\
         <tag><epc/><antenna>2</antenna><time>{huge}</time></tag>\
         <tag><epc>&amp;amp;</epc><antenna>3</antenna><time>inf</time></tag>\
         <tag><epc>x</epc><antenna>4</antenna><time>-inf</time></tag>\
         <tag><epc>y</epc><antenna>5</antenna><time>NaN</time></tag>\
         <tag><epc>z</epc><antenna>6</antenna><time>0.008420024999999998</time></tag>\
         </tags></response>"
    );
    assert_eq!(tags.to_xml(), frame);
    // Debug text tells -0.0 from 0.0 and shows NaN, where `==` cannot.
    let decoded = Response::from_xml(&frame).expect("the pinned frame decodes");
    assert_eq!(format!("{decoded:?}"), format!("{tags:?}"));
}
