//! A lightweight syntax layer over the total lexer.
//!
//! The token-stream lints in [`crate::lints`] see a flat sequence; the
//! concurrency and contract lints need *structure*: which function a
//! token belongs to, which `impl` block a method sits in, which items an
//! attribute gates out of non-test builds. This module builds exactly
//! that — a delimiter-matched item tree with attribute/`cfg` evaluation —
//! on top of the same total lexer, so it inherits the lexer's guarantee:
//! parsing never fails, and malformed input degrades to `Other` items
//! with best-effort spans rather than panics or misses.
//!
//! The parser is deliberately approximate where full Rust grammar would
//! require name resolution (`syn` is unavailable offline): generics are
//! skipped by angle-depth with an `->` guard, statement spans split at
//! top-level `;` and brace-group closes, and unrecognized constructs
//! consume to the next top-level `;` or the end of their first brace
//! block — the same recovery rule the old line-oriented `cfg` heuristic
//! used, now applied per-item instead of per-file.

use crate::lexer::{lex, Token, TokenKind};

/// The single punctuation byte of a `Punct` token, if it is one.
fn punct(t: &Token, src: &str) -> Option<u8> {
    (t.kind == TokenKind::Punct).then(|| t.text(src).as_bytes()[0])
}

/// What kind of item a tree node is, at the granularity the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A `fn` item (free function, method, or nested fn).
    Fn,
    /// A `mod` item (inline or out-of-line).
    Mod,
    /// An `impl` block (inherent or trait).
    Impl,
    /// A `struct` or `union` definition.
    Struct,
    /// An `enum` definition.
    Enum,
    /// A `trait` definition.
    Trait,
    /// Anything else: `use`, `const`, `static`, macro invocations,
    /// statements inside function bodies, or unrecognized input.
    Other,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    /// The node's kind.
    pub kind: ItemKind,
    /// The declared name (`fn name`, `mod name`, `struct Name`), when
    /// the construct has one.
    pub name: Option<String>,
    /// For trait impls, the trait's final path segment
    /// (`impl stream::Operator for X` → `Operator`).
    pub trait_name: Option<String>,
    /// True if one of the item's own attributes removes it from
    /// non-test builds (`#[test]`, `#[bench]`, false `#[cfg(…)]`).
    pub gated: bool,
    /// Byte offset of the item's first token (attributes included).
    pub byte_start: usize,
    /// Byte offset one past the item's last token.
    pub byte_end: usize,
    /// 1-based line of the item's keyword token.
    pub line: usize,
    /// 1-based column of the item's keyword token.
    pub col: usize,
    /// Significant-token index range strictly inside the item's brace
    /// block, when it has one.
    pub body: Option<(usize, usize)>,
    /// For `fn` items: significant-token range of the return type and
    /// `where` clause (between the parameter list and the body).
    pub ret: Option<(usize, usize)>,
    /// For `struct` items with named fields: the field names in order.
    pub fields: Vec<String>,
    /// Items nested inside this one (module members, impl methods,
    /// items in function bodies).
    pub children: Vec<Item>,
}

/// One function declaration flattened out of the tree, with enough
/// context for the concurrency analysis.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// The function's simple name.
    pub name: String,
    /// `Type::name` when declared inside an `impl Type` block, else the
    /// simple name.
    pub qualified: String,
    /// True when declared inside an `impl` block (callable as
    /// `self.name(…)`).
    pub in_impl: bool,
    /// True when the function or any enclosing item is test-gated.
    pub gated: bool,
    /// Significant-token range of the body, when present.
    pub body: Option<(usize, usize)>,
    /// Significant-token range of the return type / `where` clause.
    pub ret: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
}

/// The parsed file: token stream plus item tree.
#[derive(Debug)]
pub struct SyntaxTree {
    tokens: Vec<Token>,
    sig: Vec<Token>,
    items: Vec<Item>,
}

impl SyntaxTree {
    /// Lexes and parses `src`. Total: never fails, on any input.
    #[must_use]
    pub fn new(src: &str) -> SyntaxTree {
        let tokens = lex(src);
        let sig: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
        let items = parse_items(&sig, src, 0, sig.len());
        SyntaxTree { tokens, sig, items }
    }

    /// Every token, comments included (spans index into the source the
    /// tree was built from).
    #[must_use]
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The significant (non-comment) tokens the item tree indexes into.
    #[must_use]
    pub fn sig(&self) -> &[Token] {
        &self.sig
    }

    /// The top-level items of the file.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Byte spans of test-only code: every item whose own attributes
    /// gate it out of a non-test build, outermost item span wins.
    #[must_use]
    pub fn test_regions(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        collect_gated(&self.items, &mut spans);
        spans
    }

    /// Every function in the tree, with impl qualification and
    /// inherited test-gating.
    #[must_use]
    pub fn functions(&self) -> Vec<FnDecl> {
        let mut out = Vec::new();
        collect_fns(&self.items, None, false, &mut out);
        out
    }

    /// Approximate statement spans tiling the significant-token range
    /// `lo..hi` (usually a function body): boundaries fall after each
    /// top-level `;` and after each top-level brace group. Every token
    /// in the range lands in exactly one span.
    #[must_use]
    pub fn statements(&self, src: &str, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let hi = hi.min(self.sig.len());
        let mut out = Vec::new();
        let mut start = lo;
        let mut i = lo;
        let mut depth = 0i32;
        while i < hi {
            match punct(&self.sig[i], src) {
                Some(b'(' | b'[') => depth += 1,
                Some(b')' | b']') => depth -= 1,
                Some(b'{') if depth <= 0 => {
                    i = skip_group(&self.sig, src, i, hi, b'{', b'}');
                    out.push((start, i));
                    start = i;
                    continue;
                }
                Some(b';') if depth <= 0 => {
                    out.push((start, i + 1));
                    start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if start < hi {
            out.push((start, hi));
        }
        out
    }
}

/// Depth-first walk pushing gated items' byte spans; children of a
/// gated item are already covered by the parent span.
fn collect_gated(items: &[Item], out: &mut Vec<(usize, usize)>) {
    for item in items {
        if item.gated {
            out.push((item.byte_start, item.byte_end));
        } else {
            collect_gated(&item.children, out);
        }
    }
}

/// Depth-first walk collecting functions with impl context and
/// inherited gating.
fn collect_fns(items: &[Item], impl_type: Option<&str>, gated: bool, out: &mut Vec<FnDecl>) {
    for item in items {
        let item_gated = gated || item.gated;
        match item.kind {
            ItemKind::Fn => {
                let name = item.name.clone().unwrap_or_default();
                let qualified = match impl_type {
                    Some(ty) => format!("{ty}::{name}"),
                    None => name.clone(),
                };
                out.push(FnDecl {
                    name,
                    qualified,
                    in_impl: impl_type.is_some(),
                    gated: item_gated,
                    body: item.body,
                    ret: item.ret.unwrap_or((0, 0)),
                    line: item.line,
                    col: item.col,
                });
                collect_fns(&item.children, None, item_gated, out);
            }
            ItemKind::Impl => {
                collect_fns(&item.children, item.name.as_deref(), item_gated, out);
            }
            _ => collect_fns(&item.children, impl_type, item_gated, out),
        }
    }
}

/// Parses the items in `sig[lo..hi]`. Always terminates and always
/// makes progress, whatever the input.
fn parse_items(sig: &[Token], src: &str, lo: usize, hi: usize) -> Vec<Item> {
    let hi = hi.min(sig.len());
    let mut items = Vec::new();
    let mut i = lo;
    while i < hi {
        let (item, next) = parse_item(sig, src, i, hi);
        if let Some(item) = item {
            items.push(item);
        }
        i = if next > i { next } else { i + 1 };
    }
    items
}

/// Skips a delimited group: `i` sits on `open`; returns the index one
/// past the matching `close` (or `hi` if unterminated).
fn skip_group(sig: &[Token], src: &str, i: usize, hi: usize, open: u8, close: u8) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < hi {
        match punct(&sig[j], src) {
            Some(b) if b == open => depth += 1,
            Some(b) if b == close => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Skips a generic-argument list: `i` sits on `<`; returns the index
/// one past the matching `>`. The `>` of an `->` arrow is ignored, and
/// nested `(…)`/`[…]`/`{…}` groups (const-generic expressions) are
/// skipped wholesale. Bails at a top-level `;` so malformed input
/// cannot swallow the rest of the file.
fn skip_generics(sig: &[Token], src: &str, i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < hi {
        match punct(&sig[j], src) {
            Some(b'<') => depth += 1,
            Some(b'>') => {
                let arrow = j > 0
                    && punct(&sig[j - 1], src) == Some(b'-')
                    && sig[j - 1].end == sig[j].start;
                if !arrow {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
            }
            Some(b'(') => {
                j = skip_group(sig, src, j, hi, b'(', b')');
                continue;
            }
            Some(b'[') => {
                j = skip_group(sig, src, j, hi, b'[', b']');
                continue;
            }
            Some(b'{') => {
                j = skip_group(sig, src, j, hi, b'{', b'}');
                continue;
            }
            Some(b';') => return j,
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Parses an attribute starting at `#` (`sig[i]`). Returns the index one
/// past the closing `]` and whether the attribute gates the item out of
/// non-test builds (`#[test]`, `#[bench]`, false-evaluating `#[cfg(…)]`).
pub(crate) fn parse_attribute(
    sig: &[Token],
    src: &str,
    i: usize,
    hi: usize,
) -> Option<(usize, bool)> {
    let mut j = i + 1;
    // Inner attributes `#![…]` never gate an item; still skip them.
    let mut inner = false;
    if j < hi && punct(&sig[j], src) == Some(b'!') {
        inner = true;
        j += 1;
    }
    if j >= hi || punct(&sig[j], src) != Some(b'[') {
        return None;
    }
    let open = j;
    let mut depth = 0i32;
    while j < hi {
        match punct(&sig[j], src) {
            Some(b'[') => depth += 1,
            Some(b']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= hi {
        return None;
    }
    let body = &sig[open + 1..j];
    let gates = !inner && attribute_gates_tests(body, src);
    Some((j + 1, gates))
}

/// True if the attribute body (tokens between `[` and `]`) is `test`,
/// `bench`, or `cfg(<pred>)` with `<pred>` false in a non-test build.
fn attribute_gates_tests(body: &[Token], src: &str) -> bool {
    let Some(head) = body.first() else {
        return false;
    };
    if head.kind != TokenKind::Ident {
        return false;
    }
    let name = head.text(src);
    if body.len() == 1 && (name == "test" || name == "bench") {
        return true;
    }
    if name != "cfg" || body.get(1).is_none_or(|t| punct(t, src) != Some(b'(')) {
        return false;
    }
    let mut pos = 2; // past `cfg` `(`
    !eval_cfg(body, src, &mut pos)
}

/// Recursive descent over a cfg predicate: `ident`, `not/all/any(list)`,
/// `ident = "literal"`. Returns the predicate's value in a build with
/// `test` off and all unknown atoms on. `pos` advances past the parsed
/// predicate; list separators are handled by the enclosing loop.
fn eval_cfg(body: &[Token], src: &str, pos: &mut usize) -> bool {
    let Some(head) = body.get(*pos) else {
        return true;
    };
    if head.kind != TokenKind::Ident {
        *pos += 1;
        return true;
    }
    let name = head.text(src);
    *pos += 1;
    let call = body.get(*pos).is_some_and(|t| punct(t, src) == Some(b'('));
    if call && matches!(name, "not" | "all" | "any") {
        *pos += 1; // (
        let mut values = Vec::new();
        while *pos < body.len() {
            match punct(&body[*pos], src) {
                Some(b')') => {
                    *pos += 1;
                    break;
                }
                Some(b',') => {
                    *pos += 1;
                }
                _ => values.push(eval_cfg(body, src, pos)),
            }
        }
        return match name {
            "not" => !values.first().copied().unwrap_or(false),
            "all" => values.iter().all(|&v| v),
            _ => values.iter().any(|&v| v),
        };
    }
    if call {
        // Unrecognized call form, e.g. `target_has_atomic(…)`: skip it
        // wholesale and assume enabled.
        let mut depth = 0i32;
        while *pos < body.len() {
            match punct(&body[*pos], src) {
                Some(b'(') => depth += 1,
                Some(b')') => {
                    depth -= 1;
                    if depth == 0 {
                        *pos += 1;
                        break;
                    }
                }
                _ => {}
            }
            *pos += 1;
        }
        return true;
    }
    // `ident = "value"`: skip the value, assume enabled.
    if body.get(*pos).is_some_and(|t| punct(t, src) == Some(b'=')) {
        *pos += 2;
        return true;
    }
    name != "test"
}

/// Builds the common item fields from a consumed token range.
fn mk_item(sig: &[Token], kind: ItemKind, start: usize, kw: usize, end: usize) -> Item {
    let last = end.max(start + 1) - 1;
    Item {
        kind,
        name: None,
        trait_name: None,
        gated: false,
        byte_start: sig[start].start,
        byte_end: sig.get(last).map_or(sig[start].end, |t| t.end),
        line: sig.get(kw).map_or(sig[start].line, |t| t.line),
        col: sig.get(kw).map_or(sig[start].col, |t| t.col),
        body: None,
        ret: None,
        fields: Vec::new(),
        children: Vec::new(),
    }
}

/// Parses one item starting at `sig[start]`. Returns the item (if any)
/// and the index one past it; the index always advances.
fn parse_item(sig: &[Token], src: &str, start: usize, hi: usize) -> (Option<Item>, usize) {
    let mut i = start;
    let mut gated = false;
    while i < hi && punct(&sig[i], src) == Some(b'#') {
        match parse_attribute(sig, src, i, hi) {
            Some((next, g)) => {
                gated |= g;
                i = next;
            }
            None => break,
        }
    }
    if i >= hi {
        // Attributes at end of range with nothing to attach to.
        let mut item = mk_item(sig, ItemKind::Other, start, start, hi);
        item.gated = gated;
        return (Some(item), hi);
    }
    // Qualifiers before the item keyword.
    loop {
        if i >= hi {
            break;
        }
        match sig[i].text(src) {
            "pub" => {
                i += 1;
                if i < hi && punct(&sig[i], src) == Some(b'(') {
                    i = skip_group(sig, src, i, hi, b'(', b')');
                }
            }
            "unsafe" | "async" | "default" => i += 1,
            "const" if sig.get(i + 1).is_some_and(|t| t.text(src) == "fn") => i += 1,
            "extern" => {
                // `extern "C" fn` is a qualifier; `extern crate` is not.
                if sig
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::StringLit)
                {
                    i += 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    if i >= hi {
        let mut item = mk_item(sig, ItemKind::Other, start, start, hi);
        item.gated = gated;
        return (Some(item), hi);
    }
    let kw = i;
    let (mut item, next) = match sig[kw].text(src) {
        "fn" => parse_fn(sig, src, start, kw, hi),
        "mod" => parse_mod(sig, src, start, kw, hi),
        "impl" => parse_impl(sig, src, start, kw, hi),
        "struct" | "union" => parse_struct(sig, src, start, kw, hi),
        "enum" => parse_braced(sig, src, start, kw, hi, ItemKind::Enum),
        "trait" => parse_trait(sig, src, start, kw, hi),
        "use" | "type" | "static" | "const" | "crate" => {
            let end = tail_to_semi(sig, src, kw + 1, hi);
            (mk_item(sig, ItemKind::Other, start, kw, end), end)
        }
        _ => {
            let end = tail_item(sig, src, kw, hi);
            (mk_item(sig, ItemKind::Other, start, kw, end), end)
        }
    };
    item.gated = gated;
    (Some(item), next)
}

/// Consumes to just past the next `;` outside any group (brace groups
/// included, so `const X: T = { … };` stays one item).
fn tail_to_semi(sig: &[Token], src: &str, from: usize, hi: usize) -> usize {
    let mut i = from;
    while i < hi {
        match punct(&sig[i], src) {
            Some(b'(') => {
                i = skip_group(sig, src, i, hi, b'(', b')');
            }
            Some(b'[') => {
                i = skip_group(sig, src, i, hi, b'[', b']');
            }
            Some(b'{') => {
                i = skip_group(sig, src, i, hi, b'{', b'}');
            }
            Some(b';') => return i + 1,
            _ => i += 1,
        }
    }
    hi
}

/// Consumes an unrecognized construct: ends just past a top-level `;`
/// or just past its first top-level brace group, whichever comes first.
fn tail_item(sig: &[Token], src: &str, from: usize, hi: usize) -> usize {
    let mut i = from;
    let mut depth = 0i32;
    while i < hi {
        match punct(&sig[i], src) {
            Some(b'(' | b'[') => depth += 1,
            Some(b')' | b']') => depth -= 1,
            Some(b'{') if depth <= 0 => return skip_group(sig, src, i, hi, b'{', b'}'),
            Some(b';') if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    hi
}

/// Finds the item's body `{` or terminating `;` scanning from `from`
/// (generics, parameter groups, and `->` arrows skipped). Returns
/// `(scan_end, body, consumed_end)`.
fn find_body(
    sig: &[Token],
    src: &str,
    from: usize,
    hi: usize,
) -> (usize, Option<(usize, usize)>, usize) {
    let mut i = from;
    while i < hi {
        match punct(&sig[i], src) {
            Some(b'(') => {
                i = skip_group(sig, src, i, hi, b'(', b')');
            }
            Some(b'[') => {
                i = skip_group(sig, src, i, hi, b'[', b']');
            }
            Some(b'<') => {
                i = skip_generics(sig, src, i, hi);
            }
            Some(b'{') => {
                let after = skip_group(sig, src, i, hi, b'{', b'}');
                let inner_end = if after > i && punct(&sig[after - 1], src) == Some(b'}') {
                    after - 1
                } else {
                    after
                };
                return (i, Some((i + 1, inner_end)), after);
            }
            Some(b';') => return (i, None, i + 1),
            _ => i += 1,
        }
    }
    (hi, None, hi)
}

/// Parses `fn name<…>(…) -> … { … }` (body optional for trait methods).
fn parse_fn(sig: &[Token], src: &str, start: usize, kw: usize, hi: usize) -> (Item, usize) {
    let mut i = kw + 1;
    let name = sig
        .get(i)
        .filter(|t| i < hi && matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
        .map(|t| t.text(src).to_owned());
    if name.is_some() {
        i += 1;
    }
    if i < hi && punct(&sig[i], src) == Some(b'<') {
        i = skip_generics(sig, src, i, hi);
    }
    if i < hi && punct(&sig[i], src) == Some(b'(') {
        i = skip_group(sig, src, i, hi, b'(', b')');
    }
    let ret_start = i;
    let (ret_end, body, end) = find_body(sig, src, i, hi);
    let mut item = mk_item(sig, ItemKind::Fn, start, kw, end);
    item.name = name;
    item.body = body;
    item.ret = Some((ret_start, ret_end));
    if let Some((lo, hi_b)) = body {
        item.children = parse_items(sig, src, lo, hi_b);
    }
    (item, end)
}

/// Parses `mod name;` or `mod name { … }`.
fn parse_mod(sig: &[Token], src: &str, start: usize, kw: usize, hi: usize) -> (Item, usize) {
    let mut i = kw + 1;
    let name = sig
        .get(i)
        .filter(|t| i < hi && matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
        .map(|t| t.text(src).to_owned());
    if name.is_some() {
        i += 1;
    }
    let (_, body, end) = find_body(sig, src, i, hi);
    let mut item = mk_item(sig, ItemKind::Mod, start, kw, end);
    item.name = name;
    item.body = body;
    if let Some((lo, hi_b)) = body {
        item.children = parse_items(sig, src, lo, hi_b);
    }
    (item, end)
}

/// Parses `impl<…> Trait for Type { … }` / `impl<…> Type { … }`.
/// `name` becomes the self type's simple name, `trait_name` the trait's.
fn parse_impl(sig: &[Token], src: &str, start: usize, kw: usize, hi: usize) -> (Item, usize) {
    let mut i = kw + 1;
    if i < hi && punct(&sig[i], src) == Some(b'<') {
        i = skip_generics(sig, src, i, hi);
    }
    let head_start = i;
    // Locate `for` (trait/self split) and `where` at depth 0, then the
    // body. HRTB `for<'a>` is distinguished by the `<` that follows.
    let mut for_idx = None;
    let mut head_end = None;
    let mut j = i;
    let (body, end) = loop {
        if j >= hi {
            break (None, hi);
        }
        match punct(&sig[j], src) {
            Some(b'(') => {
                j = skip_group(sig, src, j, hi, b'(', b')');
                continue;
            }
            Some(b'[') => {
                j = skip_group(sig, src, j, hi, b'[', b']');
                continue;
            }
            Some(b'<') => {
                j = skip_generics(sig, src, j, hi);
                continue;
            }
            Some(b'{') => {
                let after = skip_group(sig, src, j, hi, b'{', b'}');
                let inner_end = if after > j && punct(&sig[after - 1], src) == Some(b'}') {
                    after - 1
                } else {
                    after
                };
                if head_end.is_none() {
                    head_end = Some(j);
                }
                break (Some((j + 1, inner_end)), after);
            }
            Some(b';') => {
                if head_end.is_none() {
                    head_end = Some(j);
                }
                break (None, j + 1);
            }
            _ => {}
        }
        let text = sig[j].text(src);
        if text == "for"
            && for_idx.is_none()
            && sig.get(j + 1).is_none_or(|t| punct(t, src) != Some(b'<'))
        {
            for_idx = Some(j);
        } else if text == "where" && head_end.is_none() {
            head_end = Some(j);
        }
        j += 1;
    };
    let head_end = head_end.unwrap_or(hi);
    let (trait_range, self_range) = match for_idx {
        Some(f) => (Some((head_start, f)), (f + 1, head_end)),
        None => (None, (head_start, head_end)),
    };
    let mut item = mk_item(sig, ItemKind::Impl, start, kw, end);
    item.trait_name = trait_range.and_then(|(lo, hi_t)| last_path_ident(sig, src, lo, hi_t));
    item.name = last_path_ident(sig, src, self_range.0, self_range.1);
    item.body = body;
    if let Some((lo, hi_b)) = body {
        item.children = parse_items(sig, src, lo, hi_b);
    }
    (item, end)
}

/// The last identifier at angle-depth 0 in `sig[lo..hi]`, skipping type
/// qualifiers — the simple name of a path like `stream::Operator` or
/// `&mut merge::SessionMerge<T>`.
fn last_path_ident(sig: &[Token], src: &str, lo: usize, hi: usize) -> Option<String> {
    let mut best = None;
    let mut i = lo;
    while i < hi.min(sig.len()) {
        match punct(&sig[i], src) {
            Some(b'<') => {
                i = skip_generics(sig, src, i, hi);
                continue;
            }
            Some(b'(') => {
                i = skip_group(sig, src, i, hi, b'(', b')');
                continue;
            }
            Some(b'[') => {
                i = skip_group(sig, src, i, hi, b'[', b']');
                continue;
            }
            _ => {}
        }
        let t = &sig[i];
        if t.kind == TokenKind::Ident && !matches!(t.text(src), "mut" | "dyn" | "as") {
            best = Some(t.text(src).to_owned());
        }
        i += 1;
    }
    best
}

/// Parses `struct Name<…> { fields }` / tuple / unit structs, and
/// `union`s. Named fields are collected for the contract lints.
fn parse_struct(sig: &[Token], src: &str, start: usize, kw: usize, hi: usize) -> (Item, usize) {
    let mut i = kw + 1;
    let name = sig
        .get(i)
        .filter(|t| i < hi && matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
        .map(|t| t.text(src).to_owned());
    if name.is_some() {
        i += 1;
    }
    let (_, body, mut end) = find_body(sig, src, i, hi);
    let mut item = mk_item(sig, ItemKind::Struct, start, kw, end);
    item.name = name;
    item.body = body;
    if let Some((lo, hi_b)) = body {
        item.fields = struct_fields(sig, src, lo, hi_b);
    } else if end > start && end <= hi {
        // Tuple struct: `struct Foo(…) ;` — find_body stopped at `;`
        // already; nothing more to consume.
    }
    if end > hi {
        end = hi;
    }
    item.byte_end = sig
        .get(end.max(start + 1) - 1)
        .map_or(item.byte_end, |t| t.end);
    (item, end)
}

/// Collects named-field names from a struct body: a small state machine
/// — skip attributes and visibility, take the identifier before `:`,
/// then skip the type to the next top-level `,`.
fn struct_fields(sig: &[Token], src: &str, lo: usize, hi: usize) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = lo;
    while i < hi {
        // Field attributes.
        while i < hi && punct(&sig[i], src) == Some(b'#') {
            match parse_attribute(sig, src, i, hi) {
                Some((next, _)) => i = next,
                None => break,
            }
        }
        // Visibility.
        if i < hi && sig[i].text(src) == "pub" {
            i += 1;
            if i < hi && punct(&sig[i], src) == Some(b'(') {
                i = skip_group(sig, src, i, hi, b'(', b')');
            }
        }
        if i >= hi {
            break;
        }
        if sig[i].kind == TokenKind::Ident && i + 1 < hi && punct(&sig[i + 1], src) == Some(b':') {
            fields.push(sig[i].text(src).to_owned());
            i += 2;
        } else {
            i += 1;
        }
        // Skip the field type to the next top-level comma.
        while i < hi {
            match punct(&sig[i], src) {
                Some(b'<') => {
                    i = skip_generics(sig, src, i, hi);
                }
                Some(b'(') => {
                    i = skip_group(sig, src, i, hi, b'(', b')');
                }
                Some(b'[') => {
                    i = skip_group(sig, src, i, hi, b'[', b']');
                }
                Some(b'{') => {
                    i = skip_group(sig, src, i, hi, b'{', b'}');
                }
                Some(b',') => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
    }
    fields
}

/// Parses `enum`-shaped items: name, generics/bounds, brace body with
/// no child items (variants are not items).
fn parse_braced(
    sig: &[Token],
    src: &str,
    start: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
) -> (Item, usize) {
    let mut i = kw + 1;
    let name = sig
        .get(i)
        .filter(|t| i < hi && matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
        .map(|t| t.text(src).to_owned());
    if name.is_some() {
        i += 1;
    }
    let (_, body, end) = find_body(sig, src, i, hi);
    let mut item = mk_item(sig, kind, start, kw, end);
    item.name = name;
    item.body = body;
    (item, end)
}

/// Parses `trait Name<…>: Bounds { … }`; methods become children.
fn parse_trait(sig: &[Token], src: &str, start: usize, kw: usize, hi: usize) -> (Item, usize) {
    let (mut item, end) = parse_braced(sig, src, start, kw, hi, ItemKind::Trait);
    if let Some((lo, hi_b)) = item.body {
        item.children = parse_items(sig, src, lo, hi_b);
    }
    (item, end)
}
