//! The XML subset of the reader wire, written and read in one pass.
//!
//! The format uses elements and text only — no attributes, comments,
//! processing instructions, or namespaces — mirroring the flat tag-list
//! XML that first-generation readers actually emitted.
//! [`crate::Request`] and [`crate::Response`] write their frames
//! straight into one `String` with [`leaf`] and [`number`], and read
//! them back with a [`Cursor`], so no document tree is ever built.

use std::borrow::Cow;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Error parsing the XML wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data: {}", self.message)
    }
}

impl Error for WireError {}

/// Appends `<name>text</name>` with `text` escaped, or `<name/>` when
/// `text` is empty.
pub(crate) fn leaf(out: &mut String, name: &str, text: &str) {
    out.push('<');
    out.push_str(name);
    if text.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    escape_into(out, text);
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Appends `<name>value</name>` for a number, whose text needs no
/// escaping. Floats use `Display`: the shortest text of the same bits.
pub(crate) fn number(out: &mut String, name: &str, value: impl fmt::Display) {
    let _ = write!(out, "<{name}>{value}</{name}>");
}

/// Appends `text` with markup characters *and every control character*
/// (as decimal character references) escaped. Escaping control
/// characters is load-bearing: the TCP carrier frames documents with
/// newlines, so a raw `\n` or `\r` in tag text would split one document
/// across two frames and desynchronize the stream.
fn escape_into(out: &mut String, text: &str) {
    let mut plain = 0;
    for (at, c) in text.char_indices() {
        if !(matches!(c, '&' | '<' | '>') || c.is_control()) {
            continue;
        }
        out.push_str(&text[plain..at]);
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => {
                let _ = write!(out, "&#{};", u32::from(c));
            }
        }
        plain = at + c.len_utf8();
    }
    out.push_str(&text[plain..]);
}

/// Single-pass entity decoder: `&lt;`, `&gt;`, `&amp;`, and decimal
/// `&#N;` references. Single-pass matters — sequential `replace` calls
/// would decode the output of an earlier replacement (e.g. source text
/// `&amp;lt;` must yield `&lt;`, not `<`). Unrecognized `&` sequences
/// pass through literally, as first-generation readers emitted them.
/// A reference is spelled from ASCII alphanumerics, `#` and `+`, so the
/// search for its `;` stops at any other character, which keeps a text
/// full of `&` linear.
fn unescape(text: &str) -> Cow<'_, str> {
    if !text.contains('&') {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp + 1..];
        let name_len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '#' || c == '+'))
            .unwrap_or(rest.len());
        let decoded = match (&rest[..name_len], rest[name_len..].starts_with(';')) {
            (_, false) => None,
            ("lt", true) => Some('<'),
            ("gt", true) => Some('>'),
            ("amp", true) => Some('&'),
            (name, true) => name
                .strip_prefix('#')
                .and_then(|digits| digits.parse::<u32>().ok())
                .and_then(char::from_u32),
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &rest[name_len + 1..];
            }
            None => out.push('&'),
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Parses `text`, the content of the element `name`, as a number.
pub(crate) fn parse<T: FromStr>(name: &str, text: &str) -> Result<T, WireError> {
    text.parse()
        .map_err(|_| WireError::new(format!("<{name}> holds {text:?}, not a number")))
}

/// A one-pass reader over one wire document: the caller walks the
/// elements it expects in order, through start tags (`<name>`, `<name/>`
/// or `<name />`), leaf text (trimmed, then unescaped), exact close tags
/// (`</name>`) and the end of the document. Whitespace between elements
/// is skipped; anything else there is an error. Nothing recurses, so no
/// input can exhaust the stack.
pub(crate) struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(doc: &'a str) -> Self {
        Self { rest: doc }
    }

    /// Reads the next start tag: its name, which ends at `>`, `/` or
    /// whitespace, and whether the element closed itself (`<name/>`).
    pub(crate) fn start(&mut self) -> Result<(&'a str, bool), WireError> {
        let rest = self
            .rest
            .trim_start()
            .strip_prefix('<')
            .ok_or_else(|| WireError::new("expected '<'"))?;
        let name_end = rest
            .find(|c: char| c == '>' || c == '/' || c.is_whitespace())
            .ok_or_else(|| WireError::new("unterminated tag"))?;
        let (name, rest) = rest.split_at(name_end);
        let rest = rest.trim_start();
        if let Some(rest) = rest.strip_prefix("/>") {
            self.rest = rest;
            return Ok((name, true));
        }
        self.rest = rest
            .strip_prefix('>')
            .ok_or_else(|| WireError::new("expected '>'"))?;
        Ok((name, false))
    }

    /// Reads the start tag of the element `name`; returns whether it
    /// closed itself.
    pub(crate) fn open(&mut self, name: &str) -> Result<bool, WireError> {
        let (found, closed) = self.start()?;
        if found != name {
            return Err(WireError::new(format!("expected <{name}>, not <{found}>")));
        }
        Ok(closed)
    }

    /// Reads the start tag of the element `name`, which must have
    /// content: `<name/>` is an error.
    pub(crate) fn enter(&mut self, name: &str) -> Result<(), WireError> {
        if self.open(name)? {
            return Err(WireError::new(format!("<{name}> is empty")));
        }
        Ok(())
    }

    /// Reads the text of the element `name`, whose start tag was just
    /// read, through its close tag. A self-closed element has no text.
    pub(crate) fn text(&mut self, name: &str, closed: bool) -> Result<Cow<'a, str>, WireError> {
        if closed {
            return Ok(Cow::Borrowed(""));
        }
        let end = self
            .rest
            .find('<')
            .ok_or_else(|| WireError::new(format!("unclosed element <{name}>")))?;
        let (text, rest) = self.rest.split_at(end);
        self.rest = rest;
        self.close(name)?;
        Ok(unescape(text.trim()))
    }

    /// Reads the whole leaf element `name` and returns its text.
    pub(crate) fn leaf(&mut self, name: &str) -> Result<Cow<'a, str>, WireError> {
        let closed = self.open(name)?;
        self.text(name, closed)
    }

    /// Reads the whole leaf element `name` and parses its text.
    pub(crate) fn number<T: FromStr>(&mut self, name: &str) -> Result<T, WireError> {
        parse(name, &self.leaf(name)?)
    }

    /// Reads the close tag `</name>` if it is next, reporting whether
    /// it was.
    pub(crate) fn at_close(&mut self, name: &str) -> bool {
        let after = self
            .rest
            .trim_start()
            .strip_prefix("</")
            .and_then(|rest| rest.strip_prefix(name))
            .and_then(|rest| rest.strip_prefix('>'));
        if let Some(rest) = after {
            self.rest = rest;
        }
        after.is_some()
    }

    /// Reads the close tag `</name>`.
    pub(crate) fn close(&mut self, name: &str) -> Result<(), WireError> {
        if self.at_close(name) {
            return Ok(());
        }
        Err(WireError::new(format!("expected </{name}>")))
    }

    /// Checks that nothing but whitespace follows the root element.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.rest.trim_start().is_empty() {
            return Ok(());
        }
        Err(WireError::new("trailing content after the root element"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(text: &str) -> String {
        let mut out = String::new();
        leaf(&mut out, "v", text);
        out
    }

    /// Reads a one-leaf document `<v>…</v>` back to its text.
    fn decode(doc: &str) -> Result<String, WireError> {
        let mut cursor = Cursor::new(doc);
        let text = cursor.leaf("v")?.into_owned();
        cursor.finish()?;
        Ok(text)
    }

    #[test]
    fn parses_self_closing_and_whitespace() {
        let mut cursor = Cursor::new("  <request>\n  <get-tags />\n</request> ");
        cursor.enter("request").unwrap();
        assert_eq!(cursor.start().unwrap(), ("get-tags", true));
        assert!(!cursor.at_close("requests"));
        cursor.close("request").unwrap();
        cursor.finish().unwrap();
        assert_eq!(decode("<v/>").unwrap(), "");
        assert_eq!(decode("<v></v>").unwrap(), "");
        assert_eq!(decode("<v>\t a b \n</v>").unwrap(), "a b");
        // A name ends at `>`, `/` or whitespace.
        assert_eq!(Cursor::new("<a&b\u{85}/>").start().unwrap(), ("a&b", true));
        assert!(Cursor::new("<v/>").enter("v").is_err());
    }

    #[test]
    fn escapes_special_characters() {
        let xml = encode("power < 10 & > 0");
        assert_eq!(xml, "<v>power &lt; 10 &amp; &gt; 0</v>");
        assert_eq!(decode(&xml).unwrap(), "power < 10 & > 0");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "plain text",
            "<v>",
            "<v>text",
            "<v></w>",
            "<v></v >",
            "<v><w></v></w>",
            "<v/><w/>",
            "<v a='1'/>",
            "<v/ >",
            "<v>a<w/>b</v>",
            "x<v/>",
            "<v/>x",
        ] {
            assert!(decode(bad).is_err(), "{bad:?} should fail");
        }
        // No depth of nesting may exhaust the reading thread's stack.
        assert!(decode(&"<v>".repeat(1 << 20)).is_err());
    }

    #[test]
    fn control_characters_never_reach_the_frame_raw() {
        // Regression: a newline in tag text used to be serialized
        // verbatim, splitting one document across two TCP frames.
        let text = "line one\r\nline two\ttabbed\u{1}\u{85}";
        let xml = encode(text);
        assert!(xml.chars().all(|c| !c.is_control()), "{xml:?}");
        assert_eq!(decode(&xml).unwrap(), text);
    }

    #[test]
    fn unescape_is_single_pass() {
        // Source text that *looks like* an entity must survive: the old
        // sequential-replace decoder turned `&amp;lt;` into `<`.
        let text = "&lt; literally, and &#10; literally";
        assert_eq!(decode(&encode(text)).unwrap(), text);
    }

    #[test]
    fn unknown_entities_pass_through() {
        let doc = "<v>a &nope; b &#notanum; c &#+65;&#0065; &#1114112; &&lt;;&amp &# ;&#; &end</v>";
        let text = "a &nope; b &#notanum; c AA &#1114112; &<;&amp &# ;&#; &end";
        assert_eq!(decode(doc).unwrap(), text);
    }

    #[test]
    fn a_text_full_of_ampersands_decodes_in_linear_time() {
        // A `&` looks for its `;` only as far as a reference can reach.
        let text = "&".repeat(1 << 18);
        let started = std::time::Instant::now();
        assert_eq!(decode(&format!("<v>{text};</v>")).unwrap(), text + ";");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    proptest! {
        #[test]
        fn leaf_text_round_trips(text in "[ -~]{0,64}") {
            let text = text.trim();
            prop_assert_eq!(decode(&encode(text)).unwrap(), text);
        }

        /// Control characters anywhere in the text survive the frame:
        /// only literal leading/trailing spaces are trimmed by parsing.
        #[test]
        fn control_heavy_text_round_trips(text in "[ -~\n\r\t\u{0}-\u{8}\u{7f}]{0,64}") {
            let text = text.trim_matches(' ');
            let xml = encode(text);
            prop_assert!(xml.chars().all(|c| !c.is_control()), "{:?}", xml);
            prop_assert_eq!(decode(&xml).unwrap(), text);
        }
    }
}
