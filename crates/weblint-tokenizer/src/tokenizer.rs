//! The tokenizer state machine.

use crate::cursor::Cursor;
use crate::pos::Span;
use crate::token::{Attr, AttrValue, Comment, Decl, Quote, Tag, Text, Token, TokenKind};

/// Elements whose content is raw text, paired with the close pattern that
/// ends it — static, so recognizing one allocates nothing.
///
/// The paper (§5.1): "Certain elements require special processing, such as
/// comments, SCRIPT and STYLE." `XMP` and `LISTING` are the obsolete HTML 2
/// raw-text elements; `PLAINTEXT` swallows everything to end-of-file.
const RAW_TEXT_ELEMENTS: &[(&str, &str)] = &[
    ("script", "</script"),
    ("style", "</style"),
    ("xmp", "</xmp"),
    ("listing", "</listing"),
];

/// Abort the quote-aware tag scan once a single quoted value exceeds this
/// many bytes — at that point the quote is almost certainly unterminated and
/// the quote-parity fallback produces far better diagnostics.
pub(crate) const QUOTE_SCAN_CAP: usize = 32 * 1024;

/// One move of an incremental tokenization — what [`Tokenizer::step`]
/// returns when the source may still be growing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// A complete token whose extent can never change, no matter what bytes
    /// are appended after the current buffer.
    Token(Token<'a>),
    /// The next token's extent (or even its kind) depends on bytes that have
    /// not arrived yet. Nothing was consumed; feed more input and retry.
    NeedMore,
    /// All input has been consumed.
    Done,
}

/// A streaming HTML tokenizer.
///
/// Iterate it to receive [`Token`]s. The tokenizer never fails: any input,
/// however mangled, produces a token stream covering the whole document.
///
/// For incremental input, [`Tokenizer::step`] reports [`Step::NeedMore`]
/// instead of committing to a token that later bytes could change; the
/// [`StreamTokenizer`](crate::StreamTokenizer) wrapper carries the
/// in-between state across buffers.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::{Tokenizer, TokenKind};
///
/// let tokens: Vec<_> = Tokenizer::new("<B>x</B>").collect();
/// assert_eq!(tokens.len(), 3);
/// assert!(matches!(tokens[1].kind, TokenKind::Text(_)));
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer<'a> {
    cur: Cursor<'a>,
    /// When set, the content of a just-opened raw-text element must be
    /// consumed as text before normal tokenization resumes. Holds the close
    /// pattern (`"</script"` etc.) from [`RAW_TEXT_ELEMENTS`].
    raw_text_until: Option<&'static str>,
    /// A `PLAINTEXT` start tag was seen: the rest of the file is text.
    plaintext: bool,
    /// How far the prefix-stability check of the next token has got (see
    /// [`Tokenizer::step`]); reset whenever a token is produced.
    scan: Scan,
}

/// Everything besides the unconsumed bytes that a resumed tokenizer needs
/// to continue exactly where an earlier one stopped: the mode flags and the
/// stability scan of the pending token. [`crate::StreamTokenizer`] carries
/// one across feeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Carry {
    pub(crate) raw_text_until: Option<&'static str>,
    pub(crate) plaintext: bool,
    pub(crate) scan: Scan,
}

/// Where the prefix-stability scan of the next token stopped.
///
/// The check behind [`Tokenizer::step`] is an explicit state machine so an
/// unterminated token that spans many feeds is walked once in total rather
/// than once per feed: a `false` verdict records the state, and the next
/// check resumes from it over the bytes appended since. Offsets count from
/// the pending token's first byte, which stays put while the token is
/// incomplete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Scan {
    /// Nothing decided yet, or too few bytes to tell which kind of token
    /// comes next (`<`, `<!-`, `<![CDA`…).
    #[default]
    Start,
    /// A text run with no markup-starting `<` before `at`.
    Text { at: usize },
    /// Raw-text content; the close pattern cannot start before `at`.
    RawText { at: usize },
    /// A comment body; `-->` cannot start before `at`.
    Comment { at: usize },
    /// A CDATA marked section; `]]>` cannot start before `at`.
    Cdata { at: usize },
    /// A declaration or processing instruction, walked quote-aware to `at`.
    Decl { at: usize, quote: Option<u8> },
    /// An end tag's optional whitespace after `</`, skipped up to `at`.
    TagSpace { at: usize },
    /// A tag name, read up to `at`.
    TagName { at: usize },
    /// A tag body starting at `body`, walked quote-aware to `at`;
    /// `quote_start` is where the open quote (if any) began.
    TagBody {
        body: usize,
        at: usize,
        quote: Option<u8>,
        quote_start: usize,
    },
    /// The quote-aware tag walk aborted, so the quote-parity fallback cuts
    /// the tag at its first `>`: none occurs before `at`.
    AwaitGt { at: usize },
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer over `src`.
    pub fn new(src: &'a str) -> Tokenizer<'a> {
        Tokenizer::resume(src, Carry::default())
    }

    /// Create a tokenizer over `src` that resumes mid-document: `src` is a
    /// suffix of some larger document, and `carry` was captured (via
    /// [`Tokenizer::carry`]) from the tokenizer that consumed the prefix,
    /// possibly over a shorter buffer that ended inside the pending token.
    pub(crate) fn resume(src: &'a str, carry: Carry) -> Self {
        Tokenizer {
            cur: Cursor::new(src),
            raw_text_until: carry.raw_text_until,
            plaintext: carry.plaintext,
            scan: carry.scan,
        }
    }

    /// The state a resumed tokenizer needs besides the unconsumed bytes.
    pub(crate) fn carry(&self) -> Carry {
        Carry {
            raw_text_until: self.raw_text_until,
            plaintext: self.plaintext,
            scan: self.scan,
        }
    }

    /// The full source this tokenizer reads from.
    pub fn source(&self) -> &'a str {
        self.cur.src()
    }

    /// Produce the next token, treating the end of the buffer as the end of
    /// the document only when `eof` is true.
    ///
    /// With `eof == false`, a token is returned only when its extent is
    /// *prefix-stable*: no bytes appended after the current buffer could
    /// change it. A scan that terminates on a delimiter found *inside* the
    /// buffer (a closing `>`, a `-->`, a markup-starting `<`) is stable; a
    /// scan that ran to the end of the buffer is not, and yields
    /// [`Step::NeedMore`] without consuming anything. The scan's progress is
    /// kept, so a retry over a longer buffer only examines the new bytes.
    ///
    /// `step(true)` is exactly the [`Iterator`] implementation.
    pub fn step(&mut self, eof: bool) -> Step<'a> {
        if self.cur.is_eof() {
            return if eof { Step::Done } else { Step::NeedMore };
        }
        if !eof && !self.next_token_stable() {
            return Step::NeedMore;
        }
        self.scan = Scan::Start;
        match self.next_token() {
            Some(tok) => Step::Token(tok),
            None => Step::Done,
        }
    }

    /// Whether the next token's extent and kind are already fully determined
    /// by the bytes in the buffer (see [`Tokenizer::step`]). Consumes
    /// nothing; a `false` answer only records in `self.scan` how far the
    /// check got.
    fn next_token_stable(&mut self) -> bool {
        // PLAINTEXT swallows everything to end-of-file.
        !self.plaintext
            && advance_scan(
                self.cur.rest().as_bytes(),
                self.raw_text_until,
                &mut self.scan,
            )
    }

    fn token(&self, start: crate::pos::Pos, kind: TokenKind<'a>) -> Token<'a> {
        Token {
            kind,
            span: Span::new(start, self.cur.pos()),
        }
    }

    /// Consume raw-text content up to (not including) `close` (`"</script"`
    /// etc., matched case-insensitively).
    fn scan_raw_text(&mut self, close: &str) -> Option<Token<'a>> {
        let start = self.cur.pos();
        let raw = match self.cur.find_ci(close) {
            Some(0) => return None, // no content; parse the end tag normally
            Some(idx) => {
                let raw = &self.cur.rest()[..idx];
                self.cur.bump_bytes(idx);
                raw
            }
            None => self.cur.eat_to_eof(),
        };
        Some(self.token(start, TokenKind::Text(Text { raw, is_raw: true })))
    }

    fn scan_text(&mut self) -> Token<'a> {
        let start = self.cur.pos();
        loop {
            self.cur.eat_until_byte(b'<');
            match self.cur.peek_nth(1) {
                // A '<' that begins markup ends the text run.
                Some(c) if c.is_ascii_alphabetic() || c == '!' || c == '?' || c == '/' => break,
                // A bare '<' (e.g. "i < 3") is part of the text.
                Some(_) => {
                    self.cur.bump();
                }
                None => {
                    // Trailing '<' at end-of-file, or plain end-of-file.
                    self.cur.bump();
                    break;
                }
            }
        }
        let raw = &self.cur.src()[start.offset..self.cur.pos().offset];
        self.token(start, TokenKind::Text(Text { raw, is_raw: false }))
    }

    fn scan_comment(&mut self) -> Token<'a> {
        let start = self.cur.pos();
        self.cur.bump_bytes(4); // "<!--"
        let (text, unterminated) = match self.cur.eat_until_and_past("-->") {
            Some(t) => (t, false),
            None => (self.cur.eat_to_eof(), true),
        };
        let contains_markup = looks_like_markup(text);
        let interior_dashes = text.contains("--");
        self.token(
            start,
            TokenKind::Comment(Comment {
                text,
                unterminated,
                contains_markup,
                interior_dashes,
            }),
        )
    }

    /// Scan a `<!…>` declaration or `<?…>` processing instruction.
    /// `open_len` is the length of the opening delimiter to skip.
    fn scan_decl(&mut self, open_len: usize) -> (Decl<'a>, crate::pos::Pos) {
        let start = self.cur.pos();
        self.cur.bump_bytes(open_len);
        // CDATA marked sections close with "]]>", everything else with a
        // quote-aware ">".
        if self.cur.starts_with_ci("[CDATA[") {
            self.cur.bump_bytes("[CDATA[".len());
            let (text, unterminated) = match self.cur.eat_until_and_past("]]>") {
                Some(t) => (t, false),
                None => (self.cur.eat_to_eof(), true),
            };
            return (Decl { text, unterminated }, start);
        }
        let body_start = self.cur.pos().offset;
        let mut in_quote: Option<char> = None;
        let mut terminated = false;
        while let Some(ch) = self.cur.peek() {
            match in_quote {
                None => match ch {
                    '>' => {
                        terminated = true;
                        break;
                    }
                    '"' | '\'' => in_quote = Some(ch),
                    _ => {}
                },
                Some(q) if ch == q => in_quote = None,
                Some(_) => {}
            }
            self.cur.bump();
        }
        let text = &self.cur.src()[body_start..self.cur.pos().offset];
        if terminated {
            self.cur.bump(); // '>'
        }
        (
            Decl {
                text,
                unterminated: !terminated,
            },
            start,
        )
    }

    fn scan_markup_decl(&mut self) -> Token<'a> {
        if self.cur.starts_with("<!--") {
            return self.scan_comment();
        }
        let is_doctype = self.cur.starts_with_ci("<!doctype");
        let (decl, start) = self.scan_decl(2);
        if is_doctype {
            self.token(start, TokenKind::Doctype(decl))
        } else {
            self.token(start, TokenKind::Decl(decl))
        }
    }

    fn scan_pi(&mut self) -> Token<'a> {
        let (decl, start) = self.scan_decl(2);
        self.token(start, TokenKind::Pi(decl))
    }

    fn scan_tag(&mut self, is_end: bool) -> Token<'a> {
        let start = self.cur.pos();
        self.cur.bump(); // '<'
        if is_end {
            self.cur.bump(); // '/'
        }
        let space_before_name = is_end && self.cur.eat_ws();
        let name = self.cur.eat_while(is_name_char);

        let (body_len, end_kind, odd_quotes) = scan_tag_body(self.cur.rest());
        let body_end_offset = self.cur.pos().offset + body_len;

        // An XML-style "/>" self-close: strip the trailing '/' from the body
        // so it is not parsed as a stray attribute.
        let body = &self.cur.src()[self.cur.pos().offset..body_end_offset];
        let self_closing = end_kind == BodyEnd::Gt && body.trim_end().ends_with('/');
        let attr_limit = if self_closing {
            self.cur.pos().offset + body.trim_end().len() - 1
        } else {
            body_end_offset
        };

        let attrs = self.parse_attrs(attr_limit);

        // Step over anything the attribute parser left behind (e.g. the
        // trailing '/' of a self-close), then the closing '>'.
        while self.cur.pos().offset < body_end_offset {
            self.cur.bump();
        }
        if end_kind == BodyEnd::Gt {
            self.cur.bump(); // '>'
        }

        let tag = Tag {
            name,
            attrs,
            self_closing,
            odd_quotes,
            unterminated: end_kind != BodyEnd::Gt,
            space_before_name,
        };
        let kind = if is_end {
            TokenKind::EndTag(tag)
        } else {
            TokenKind::StartTag(tag)
        };
        self.token(start, kind)
    }

    /// Parse attributes up to byte offset `limit` (exclusive).
    fn parse_attrs(&mut self, limit: usize) -> Vec<Attr<'a>> {
        let mut attrs = Vec::new();
        loop {
            self.eat_ws_bounded(limit);
            if self.cur.pos().offset >= limit {
                break;
            }
            let name_start = self.cur.pos();
            let name = self.eat_while_bounded(limit, |c| {
                !c.is_ascii_whitespace() && c != '=' && c != '"' && c != '\''
            });
            if name.is_empty() && self.cur.peek() != Some('=') {
                // Stray quote or junk: skip one character to guarantee progress.
                self.cur.bump();
                continue;
            }
            let name_span = Span::new(name_start, self.cur.pos());
            self.eat_ws_bounded(limit);
            let mut has_eq = false;
            let mut value = None;
            if self.cur.pos().offset < limit && self.cur.peek() == Some('=') {
                has_eq = true;
                self.cur.bump();
                self.eat_ws_bounded(limit);
                if self.cur.pos().offset < limit {
                    value = Some(self.parse_attr_value(limit));
                }
            }
            attrs.push(Attr {
                name,
                value,
                has_eq,
                span: name_span,
            });
        }
        attrs
    }

    fn parse_attr_value(&mut self, limit: usize) -> AttrValue<'a> {
        let first = self.cur.peek();
        match first {
            Some(q @ ('"' | '\'')) => {
                self.cur.bump();
                let vstart = self.cur.pos();
                self.eat_while_bounded(limit, |c| c != q);
                let vspan = Span::new(vstart, self.cur.pos());
                let terminated = self.cur.pos().offset < limit && self.cur.peek() == Some(q);
                if terminated {
                    self.cur.bump();
                }
                AttrValue {
                    raw: vspan.slice(self.cur.src()),
                    quote: if q == '"' {
                        Quote::Double
                    } else {
                        Quote::Single
                    },
                    terminated,
                    span: vspan,
                }
            }
            _ => {
                let vstart = self.cur.pos();
                self.eat_while_bounded(limit, |c| !c.is_ascii_whitespace());
                let vspan = Span::new(vstart, self.cur.pos());
                AttrValue {
                    raw: vspan.slice(self.cur.src()),
                    quote: Quote::None,
                    terminated: true,
                    span: vspan,
                }
            }
        }
    }

    fn eat_ws_bounded(&mut self, limit: usize) {
        while self.cur.pos().offset < limit {
            match self.cur.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.cur.bump();
                }
                _ => break,
            }
        }
    }

    fn eat_while_bounded(&mut self, limit: usize, f: impl Fn(char) -> bool) -> &'a str {
        let start = self.cur.pos().offset;
        while self.cur.pos().offset < limit {
            match self.cur.peek() {
                Some(c) if f(c) => {
                    self.cur.bump();
                }
                _ => break,
            }
        }
        &self.cur.src()[start..self.cur.pos().offset]
    }
}

impl<'a> Tokenizer<'a> {
    /// The one token-producing path, shared by [`Iterator::next`] (eof
    /// semantics) and [`Tokenizer::step`] (which gates it on stability).
    fn next_token(&mut self) -> Option<Token<'a>> {
        if self.cur.is_eof() {
            return None;
        }
        if self.plaintext {
            let start = self.cur.pos();
            let raw = self.cur.eat_to_eof();
            return Some(self.token(start, TokenKind::Text(Text { raw, is_raw: true })));
        }
        if let Some(close) = self.raw_text_until.take() {
            if let Some(tok) = self.scan_raw_text(close) {
                return Some(tok);
            }
        }
        let tok = match (self.cur.peek(), self.cur.peek_nth(1)) {
            (Some('<'), Some('!')) => self.scan_markup_decl(),
            (Some('<'), Some('?')) => self.scan_pi(),
            (Some('<'), Some('/')) => self.scan_tag(true),
            (Some('<'), Some(c)) if c.is_ascii_alphabetic() => self.scan_tag(false),
            (Some(_), _) => self.scan_text(),
            (None, _) => return None,
        };
        if let TokenKind::StartTag(tag) = &tok.kind {
            if tag.name.eq_ignore_ascii_case("plaintext") {
                self.plaintext = true;
            } else if let Some(&(_, close)) = RAW_TEXT_ELEMENTS
                .iter()
                .find(|(name, _)| tag.name.eq_ignore_ascii_case(name))
            {
                self.raw_text_until = Some(close);
            }
        }
        Some(tok)
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        self.next_token()
    }
}

/// Advance the stability scan of the token at the start of `rest` (see
/// [`Scan`]), resuming from `scan`, and report whether the token's extent is
/// already pinned. Each terminator test mirrors the scanner it guards:
///
/// - a text run ([`Tokenizer::scan_text`]) ends only at a `<` that begins
///   markup, so it is pinned once such a `<` is in the buffer;
/// - raw text ends at its close pattern, whose earliest match can only move
///   if it is incomplete, so the search resumes `close.len() - 1` bytes
///   before the buffer end; a match at offset 0 means the end tag parses
///   next instead;
/// - comments end at `-->`, CDATA sections at `]]>`, other declarations and
///   processing instructions at a quote-aware `>`;
/// - a tag's name must end inside the buffer, then its body is walked under
///   the same quote-aware rules as [`scan_tag_body`]: a `>` or `<` outside
///   quotes pins it. An abort (a `<` inside a quote, or a quote run past
///   [`QUOTE_SCAN_CAP`]) falls to the quote-parity heuristic, which cuts at
///   the body's first `>` anywhere, so it is pinned once some `>` is in the
///   buffer.
///
/// Running off the end of the buffer is never stable. Spellings that could
/// still turn into another kind of token (a proper prefix of `<!--` or of
/// `<![CDATA[`) hold the scan at [`Scan::Start`]; none of them contains a
/// terminator, so waiting costs a few bytes at most.
fn advance_scan(rest: &[u8], raw_text_until: Option<&'static str>, scan: &mut Scan) -> bool {
    let len = rest.len();
    loop {
        match *scan {
            Scan::Start => {
                if raw_text_until.is_some() {
                    *scan = Scan::RawText { at: 0 };
                    continue;
                }
                *scan = match (rest.first(), rest.get(1)) {
                    (Some(b'<'), Some(b'!')) if rest.starts_with(b"<!--") => {
                        Scan::Comment { at: 4 }
                    }
                    (Some(b'<'), Some(b'!')) if len < 4 && b"<!--".starts_with(rest) => {
                        return false
                    }
                    (Some(b'<'), Some(b'!' | b'?')) => {
                        const CDATA: &[u8] = b"[CDATA[";
                        let after = &rest[2..];
                        if after.len() >= CDATA.len() && after[..7].eq_ignore_ascii_case(CDATA) {
                            Scan::Cdata {
                                at: 2 + CDATA.len(),
                            }
                        } else if after.len() < CDATA.len()
                            && after.eq_ignore_ascii_case(&CDATA[..after.len()])
                        {
                            return false;
                        } else {
                            Scan::Decl { at: 2, quote: None }
                        }
                    }
                    (Some(b'<'), Some(b'/')) => Scan::TagSpace { at: 2 },
                    (Some(b'<'), Some(c)) if c.is_ascii_alphabetic() => Scan::TagName { at: 1 },
                    // A `<` as the buffer's last byte: could become any
                    // markup class.
                    (Some(b'<'), None) | (None, _) => return false,
                    // Bare `<` followed by a non-markup byte, or any other
                    // first byte: a text run.
                    (Some(_), _) => Scan::Text { at: 0 },
                };
            }
            Scan::Text { mut at } => {
                while let Some(k) = crate::cursor::memchr(b'<', &rest[at..]) {
                    let lt = at + k;
                    match rest.get(lt + 1) {
                        Some(&n) if n.is_ascii_alphabetic() || matches!(n, b'!' | b'?' | b'/') => {
                            return true
                        }
                        Some(_) => at = lt + 1,
                        // A trailing `<`: the next byte decides.
                        None => {
                            *scan = Scan::Text { at: lt };
                            return false;
                        }
                    }
                }
                *scan = Scan::Text { at: len };
                return false;
            }
            Scan::RawText { at } => {
                let Some(close) = raw_text_until else {
                    *scan = Scan::Start;
                    continue;
                };
                match find_from(rest, at, close) {
                    // The close pattern starts the buffer: no content, the
                    // end tag itself comes next.
                    Ok(0) => *scan = Scan::TagSpace { at: 2 },
                    Ok(_) => return true,
                    Err(at) => {
                        *scan = Scan::RawText { at };
                        return false;
                    }
                }
            }
            Scan::Comment { at } => match find_from(rest, at, "-->") {
                Ok(_) => return true,
                Err(at) => {
                    *scan = Scan::Comment { at };
                    return false;
                }
            },
            Scan::Cdata { at } => match find_from(rest, at, "]]>") {
                Ok(_) => return true,
                Err(at) => {
                    *scan = Scan::Cdata { at };
                    return false;
                }
            },
            Scan::Decl { mut at, mut quote } => {
                while at < len {
                    let b = rest[at];
                    match quote {
                        None => match b {
                            b'>' => return true,
                            b'"' | b'\'' => quote = Some(b),
                            _ => {}
                        },
                        Some(q) if b == q => quote = None,
                        Some(_) => {}
                    }
                    at += 1;
                }
                *scan = Scan::Decl { at, quote };
                return false;
            }
            Scan::TagSpace { mut at } => {
                // End tags tolerate whitespace before the name (`</ HEAD>`).
                while at < len && rest[at].is_ascii_whitespace() {
                    at += 1;
                }
                if at == len {
                    *scan = Scan::TagSpace { at };
                    return false;
                }
                *scan = Scan::TagName { at };
            }
            Scan::TagName { mut at } => {
                while at < len && is_name_byte(rest[at]) {
                    at += 1;
                }
                // A name running to the buffer's end could continue.
                if at == len {
                    *scan = Scan::TagName { at };
                    return false;
                }
                *scan = Scan::TagBody {
                    body: at,
                    at,
                    quote: None,
                    quote_start: 0,
                };
            }
            Scan::TagBody {
                body,
                mut at,
                mut quote,
                mut quote_start,
            } => {
                let mut aborted = false;
                while at < len {
                    let b = rest[at];
                    match quote {
                        None => match b {
                            b'>' | b'<' => return true,
                            b'"' | b'\'' => {
                                quote = Some(b);
                                quote_start = at;
                            }
                            _ => {}
                        },
                        Some(q) => {
                            if b == q {
                                quote = None;
                            } else if b == b'<'
                                || ((b & 0xC0) != 0x80 && at - quote_start > QUOTE_SCAN_CAP)
                            {
                                aborted = true;
                                break;
                            }
                        }
                    }
                    at += 1;
                }
                if aborted {
                    // The fallback's `>` may sit anywhere in the body,
                    // inside the abandoned quote included.
                    *scan = Scan::AwaitGt { at: body };
                    continue;
                }
                *scan = Scan::TagBody {
                    body,
                    at,
                    quote,
                    quote_start,
                };
                return false;
            }
            Scan::AwaitGt { at } => match crate::cursor::memchr(b'>', &rest[at..]) {
                Some(_) => return true,
                None => {
                    *scan = Scan::AwaitGt { at: len };
                    return false;
                }
            },
        }
    }
}

/// Search `rest` from `at` for `needle` (ASCII case-insensitively): the
/// offset of the first match, or on a miss the offset to resume from once
/// more bytes arrive — far enough back to catch a match split across the
/// buffer end.
fn find_from(rest: &[u8], at: usize, needle: &str) -> Result<usize, usize> {
    match crate::cursor::find_ci(&rest[at..], needle) {
        Some(k) => Ok(at + k),
        None => Err(at.max((rest.len() + 1).saturating_sub(needle.len()))),
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b':')
}

/// How a tag body scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyEnd {
    /// A closing `>` was found (not included in the body length).
    Gt,
    /// A new `<` interrupted the tag outside any quote.
    EarlyLt,
    /// End-of-file arrived first.
    Eof,
}

/// Find the extent of a tag body (everything between the element name and
/// the closing `>`).
///
/// First a quote-aware walk is attempted: quoted values may contain `>` and
/// newlines. If that walk finds a `<` *inside* a quote, runs past
/// [`QUOTE_SCAN_CAP`] inside a quote, or hits end-of-file inside a quote, the
/// quote is assumed unterminated and weblint's quote-parity fallback applies:
/// the tag is cut at the first `>` regardless of quotes, and `odd_quotes`
/// reports whether the quote count in that span is odd (the paper's §4.2
/// "odd number of quotes in element" diagnostic).
fn scan_tag_body(rest: &str) -> (usize, BodyEnd, bool) {
    // A byte walk, not a char walk: every byte that decides anything
    // (`>` `<` `"` `'`) is ASCII and can never match inside a multibyte
    // character. The cap check fires only at character starts so the abort
    // point is identical to the old per-char scan.
    let bytes = rest.as_bytes();
    let mut in_quote: Option<u8> = None;
    let mut quote_start = 0usize;
    let mut aborted = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match in_quote {
            None => match b {
                b'>' => return (i, BodyEnd::Gt, false),
                b'<' => return (i, BodyEnd::EarlyLt, false),
                b'"' | b'\'' => {
                    in_quote = Some(b);
                    quote_start = i;
                }
                _ => {}
            },
            Some(q) => {
                if b == q {
                    in_quote = None;
                } else if b == b'<' || ((b & 0xC0) != 0x80 && i - quote_start > QUOTE_SCAN_CAP) {
                    aborted = true;
                    break;
                }
            }
        }
        i += 1;
    }
    if !aborted {
        return match in_quote {
            // EOF outside a quote: tag just never closed.
            None => (rest.len(), BodyEnd::Eof, false),
            // EOF inside a quote: fall through to the parity heuristic.
            Some(_) => naive_tag_body(rest),
        };
    }
    naive_tag_body(rest)
}

/// The quote-parity fallback: cut the tag at the first `>` (quote-blind).
fn naive_tag_body(rest: &str) -> (usize, BodyEnd, bool) {
    match rest.find('>') {
        Some(i) => (i, BodyEnd::Gt, odd_quote_count(&rest[..i])),
        None => match rest.find('<') {
            Some(i) => (i, BodyEnd::EarlyLt, odd_quote_count(&rest[..i])),
            None => (rest.len(), BodyEnd::Eof, odd_quote_count(rest)),
        },
    }
}

fn odd_quote_count(s: &str) -> bool {
    let dq = s.bytes().filter(|&b| b == b'"').count();
    let sq = s.bytes().filter(|&b| b == b'\'').count();
    dq % 2 == 1 || sq % 2 == 1
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | ':')
}

/// Heuristic for "this comment contains markup": `<` immediately followed by
/// a letter or `/`.
fn looks_like_markup(text: &str) -> bool {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'<' {
            if let Some(&next) = bytes.get(i + 1) {
                if next.is_ascii_alphabetic() || next == b'/' {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;

    fn kinds(src: &str) -> Vec<String> {
        tokenize(src)
            .iter()
            .map(|t| t.kind.kind_name().to_string())
            .collect()
    }

    fn start_tag<'a>(tok: &'a Token<'a>) -> &'a Tag<'a> {
        match &tok.kind {
            TokenKind::StartTag(t) => t,
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            kinds("<HTML><BODY>hi</BODY></HTML>"),
            ["start-tag", "start-tag", "text", "end-tag", "end-tag"]
        );
    }

    #[test]
    fn tag_names_preserve_case() {
        let toks = tokenize("<BoDy>");
        assert_eq!(start_tag(&toks[0]).name, "BoDy");
        assert_eq!(start_tag(&toks[0]).name_lc(), "body");
    }

    #[test]
    fn attributes_parse_with_all_quote_styles() {
        let toks = tokenize(r#"<BODY BGCOLOR="fffff" TEXT=#00ff00 ALT='x'>"#);
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attrs.len(), 3);
        assert_eq!(tag.attrs[0].name, "BGCOLOR");
        assert_eq!(tag.attrs[0].value_raw(), "fffff");
        assert_eq!(tag.attrs[0].value.as_ref().unwrap().quote, Quote::Double);
        assert_eq!(tag.attrs[1].value_raw(), "#00ff00");
        assert_eq!(tag.attrs[1].value.as_ref().unwrap().quote, Quote::None);
        assert_eq!(tag.attrs[2].value.as_ref().unwrap().quote, Quote::Single);
    }

    #[test]
    fn valueless_attribute() {
        let toks = tokenize("<OPTION SELECTED>");
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attrs.len(), 1);
        assert_eq!(tag.attrs[0].name, "SELECTED");
        assert!(tag.attrs[0].value.is_none());
        assert!(!tag.attrs[0].has_eq);
    }

    #[test]
    fn dangling_equals() {
        let toks = tokenize("<A HREF=>");
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attrs.len(), 1);
        assert!(tag.attrs[0].has_eq);
        assert!(tag.attrs[0].value.is_none());
    }

    #[test]
    fn paper_example_odd_quotes() {
        // §4.2: <A HREF="a.html>here</B></A> — the quote never closes; the
        // tag must end at the first '>' and be flagged.
        let toks = tokenize(r#"<A HREF="a.html>here</B></A>"#);
        assert_eq!(kinds(r#"<A HREF="a.html>here</B></A>"#).len(), 4);
        let tag = start_tag(&toks[0]);
        assert!(tag.odd_quotes);
        assert!(!tag.unterminated);
        assert_eq!(tag.attrs[0].name, "HREF");
        assert_eq!(tag.attrs[0].value_raw(), "a.html");
        assert!(!tag.attrs[0].value.as_ref().unwrap().terminated);
        match &toks[1].kind {
            TokenKind::Text(t) => assert_eq!(t.raw, "here"),
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn quoted_value_may_contain_gt() {
        let toks = tokenize(r#"<IMG ALT="a > b" SRC="x.gif">text"#);
        let tag = start_tag(&toks[0]);
        assert!(!tag.odd_quotes);
        assert_eq!(tag.attr("alt").unwrap().value_raw(), "a > b");
        assert_eq!(tag.attr("src").unwrap().value_raw(), "x.gif");
    }

    #[test]
    fn quoted_value_may_span_lines() {
        let toks = tokenize("<IMG ALT=\"two\nlines\">");
        let tag = start_tag(&toks[0]);
        assert_eq!(tag.attr("alt").unwrap().value_raw(), "two\nlines");
    }

    #[test]
    fn tag_interrupted_by_new_tag() {
        let toks = tokenize("<P <B>x");
        let tag = start_tag(&toks[0]);
        assert!(tag.unterminated);
        assert_eq!(tag.name, "P");
        let b = start_tag(&toks[1]);
        assert_eq!(b.name, "B");
        assert!(!b.unterminated);
    }

    #[test]
    fn tag_at_eof_is_unterminated() {
        let toks = tokenize("<A HREF=x");
        let tag = start_tag(&toks[0]);
        assert!(tag.unterminated);
        assert_eq!(tag.attrs[0].value_raw(), "x");
    }

    #[test]
    fn unterminated_quote_at_eof_uses_parity_fallback() {
        let toks = tokenize("<A HREF=\"x");
        let tag = start_tag(&toks[0]);
        assert!(tag.unterminated);
        assert!(tag.odd_quotes);
    }

    #[test]
    fn self_closing_tag() {
        let toks = tokenize("<BR/>");
        let tag = start_tag(&toks[0]);
        assert!(tag.self_closing);
        assert!(tag.attrs.is_empty());
    }

    #[test]
    fn self_closing_with_attrs() {
        let toks = tokenize(r#"<IMG SRC="x.gif" />"#);
        let tag = start_tag(&toks[0]);
        assert!(tag.self_closing);
        assert_eq!(tag.attrs.len(), 1);
    }

    #[test]
    fn end_tag_with_space_before_name() {
        let toks = tokenize("</ HEAD>");
        match &toks[0].kind {
            TokenKind::EndTag(t) => {
                assert_eq!(t.name, "HEAD");
                assert!(t.space_before_name);
            }
            other => panic!("expected end tag, got {other:?}"),
        }
    }

    #[test]
    fn end_tag_with_attributes_is_preserved() {
        let toks = tokenize("</A HREF=x>");
        match &toks[0].kind {
            TokenKind::EndTag(t) => assert_eq!(t.attrs.len(), 1),
            other => panic!("expected end tag, got {other:?}"),
        }
    }

    #[test]
    fn bare_lt_is_text() {
        let toks = tokenize("i < 3 and j <3");
        assert_eq!(toks.len(), 1);
        match &toks[0].kind {
            TokenKind::Text(t) => assert_eq!(t.raw, "i < 3 and j <3"),
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn numeric_tag_like_h1() {
        let toks = tokenize("<H1>x</H1>");
        assert_eq!(start_tag(&toks[0]).name, "H1");
    }

    #[test]
    fn comment_basic() {
        let toks = tokenize("<!-- hello -->after");
        match &toks[0].kind {
            TokenKind::Comment(c) => {
                assert_eq!(c.text, " hello ");
                assert!(!c.unterminated);
                assert!(!c.contains_markup);
                assert!(!c.interior_dashes);
            }
            other => panic!("expected comment, got {other:?}"),
        }
        assert!(matches!(toks[1].kind, TokenKind::Text(_)));
    }

    #[test]
    fn comment_with_markup_inside() {
        let toks = tokenize("<!-- <B>bold</B> -->");
        match &toks[0].kind {
            TokenKind::Comment(c) => assert!(c.contains_markup),
            other => panic!("expected comment, got {other:?}"),
        }
    }

    #[test]
    fn comment_unterminated() {
        let toks = tokenize("<!-- runs off the end");
        match &toks[0].kind {
            TokenKind::Comment(c) => assert!(c.unterminated),
            other => panic!("expected comment, got {other:?}"),
        }
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn comment_interior_dashes() {
        let toks = tokenize("<!-- a -- b -->");
        match &toks[0].kind {
            TokenKind::Comment(c) => assert!(c.interior_dashes),
            other => panic!("expected comment, got {other:?}"),
        }
    }

    #[test]
    fn doctype_recognised_case_insensitively() {
        let toks = tokenize("<!doctype html><HTML>");
        assert!(matches!(toks[0].kind, TokenKind::Doctype(_)));
        let toks = tokenize(r#"<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN"><HTML>"#);
        match &toks[0].kind {
            TokenKind::Doctype(d) => {
                assert!(d.text.contains("W3C"));
                assert!(!d.unterminated);
            }
            other => panic!("expected doctype, got {other:?}"),
        }
    }

    #[test]
    fn other_markup_decl() {
        let toks = tokenize("<!ENTITY foo \"bar\">x");
        assert!(matches!(toks[0].kind, TokenKind::Decl(_)));
    }

    #[test]
    fn processing_instruction() {
        let toks = tokenize("<?xml version=\"1.0\"?>x");
        assert!(matches!(toks[0].kind, TokenKind::Pi(_)));
        assert!(matches!(toks[1].kind, TokenKind::Text(_)));
    }

    #[test]
    fn cdata_section() {
        let toks = tokenize("<![CDATA[ <not-a-tag> ]]>x");
        match &toks[0].kind {
            TokenKind::Decl(d) => assert_eq!(d.text, " <not-a-tag> "),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn script_content_is_raw() {
        let toks = tokenize("<SCRIPT>if (a<b) { x(); }</SCRIPT>after");
        assert_eq!(
            kinds("<SCRIPT>if (a<b) { x(); }</SCRIPT>after"),
            ["start-tag", "text", "end-tag", "text"]
        );
        match &toks[1].kind {
            TokenKind::Text(t) => {
                assert!(t.is_raw);
                assert_eq!(t.raw, "if (a<b) { x(); }");
            }
            other => panic!("expected raw text, got {other:?}"),
        }
    }

    #[test]
    fn style_close_tag_found_case_insensitively() {
        assert_eq!(
            kinds("<style>b { color: red }</STYLE>"),
            ["start-tag", "text", "end-tag"]
        );
    }

    #[test]
    fn unclosed_script_swallows_to_eof() {
        let toks = tokenize("<SCRIPT>never closed");
        assert_eq!(toks.len(), 2);
        match &toks[1].kind {
            TokenKind::Text(t) => assert!(t.is_raw),
            other => panic!("expected raw text, got {other:?}"),
        }
    }

    #[test]
    fn empty_script_element() {
        assert_eq!(
            kinds("<SCRIPT></SCRIPT>x"),
            ["start-tag", "end-tag", "text"]
        );
    }

    #[test]
    fn plaintext_swallows_rest_of_file() {
        assert_eq!(kinds("<PLAINTEXT><B>not markup</B>"), ["start-tag", "text"]);
    }

    #[test]
    fn line_numbers_match_paper_example() {
        // The §4.2 test.html: TITLE opens on line 3, </HEAD> on line 4,
        // BODY on line 5, H1 on line 6, A on line 7.
        let src = "<HTML>\n<HEAD>\n<TITLE>example page\n</HEAD>\n\
                   <BODY BGCOLOR=\"fffff\" TEXT=#00ff00>\n<H1>My Example</H2>\n\
                   Click <B><A HREF=\"a.html>here</B></A>\nfor more details.\n\
                   </BODY>\n</HTML>\n";
        let lines: Vec<(String, u32)> = tokenize(src)
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::StartTag(tag) => Some((format!("<{}>", tag.name), t.span.line())),
                TokenKind::EndTag(tag) => Some((format!("</{}>", tag.name), t.span.line())),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![
                ("<HTML>".to_string(), 1),
                ("<HEAD>".to_string(), 2),
                ("<TITLE>".to_string(), 3),
                ("</HEAD>".to_string(), 4),
                ("<BODY>".to_string(), 5),
                ("<H1>".to_string(), 6),
                ("</H2>".to_string(), 6),
                ("<B>".to_string(), 7),
                ("<A>".to_string(), 7),
                ("</B>".to_string(), 7),
                ("</A>".to_string(), 7),
                ("</BODY>".to_string(), 9),
                ("</HTML>".to_string(), 10),
            ]
        );
    }

    #[test]
    fn whole_source_is_covered() {
        let src = "<P>one<BR>two <!-- c --> three <B class=x>four</B>";
        let toks = tokenize(src);
        let mut offset = 0;
        for t in &toks {
            assert_eq!(t.span.start.offset, offset, "gap before {t}");
            offset = t.span.end.offset;
        }
        assert_eq!(offset, src.len());
    }

    #[test]
    fn stray_quote_in_tag_does_not_loop() {
        let toks = tokenize("<P \"\">x");
        assert!(!toks.is_empty());
    }

    #[test]
    fn odd_quote_parity_detects_singles() {
        assert!(odd_quote_count("a'b"));
        assert!(!odd_quote_count("a'b'c"));
        assert!(odd_quote_count("\""));
        assert!(!odd_quote_count("\"\""));
    }
}
