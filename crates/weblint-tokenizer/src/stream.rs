//! Incremental tokenization over a growing byte stream.
//!
//! [`StreamTokenizer`] is the buffer-management layer that turns the
//! pull-based [`Tokenizer`] into a push-based one: callers [`feed`] byte
//! chunks as they arrive (off a socket, a pipe, a fetch in progress) and
//! drain the tokens that are already *prefix-stable* — tokens whose extent
//! no future byte can change (see [`Tokenizer::step`]). The token stream,
//! spans included, is byte-identical to tokenizing the concatenated
//! document in one shot.
//!
//! Four pieces of state cross a feed boundary:
//!
//! 1. **The undecoded tail** — up to three bytes of an incomplete UTF-8
//!    sequence, held back so the lossy decode matches
//!    [`String::from_utf8_lossy`] of the whole input.
//! 2. **The unconsumed buffer suffix** — bytes of a token still waiting for
//!    its terminator, plus the global [`Pos`] of its first byte so resumed
//!    spans rebase onto document coordinates.
//! 3. **The tokenizer mode flags** — the pending raw-text close pattern
//!    (`</script` …) and the `PLAINTEXT` latch.
//! 4. **The pending token's stability scan** — how far the check for its
//!    terminator has got, and in what state: the text run's `<` search,
//!    the raw-text close-pattern search (resumed `close.len() - 1` bytes
//!    back so a pattern split by the feed boundary is still found), the
//!    comment `-->` and CDATA `]]>` searches, a declaration's quote-aware
//!    walk, and a tag's name and quote-aware body walk (position, open
//!    quote, where it opened, and the quote-parity fallback waiting for
//!    `>`). A drain resumes it over the new bytes only, so a token that
//!    stays unterminated across many feeds is scanned once, not once per
//!    feed.
//!
//! Consumed prefixes are compacted away, so memory is bounded by the
//! largest single token, not the document.
//!
//! [`feed`]: StreamTokenizer::feed

use crate::pos::{Pos, Span};
use crate::token::{Token, TokenKind};
use crate::tokenizer::{Carry, Step, Tokenizer};

/// Compact the buffer only once this many consumed bytes have piled up (and
/// they are at least half the buffer), so steady chunked feeding does not
/// degenerate into a quadratic memmove.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// A push-based tokenizer over a document that arrives in chunks.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::StreamTokenizer;
///
/// let mut stream = StreamTokenizer::new();
/// let mut names = Vec::new();
/// for chunk in [&b"<HTML><BO"[..], b"DY>hi</BODY", b"></HTML>"] {
///     stream.feed(chunk);
///     names.extend(stream.drain().map(|tok| tok.to_string()));
/// }
/// stream.finish();
/// names.extend(stream.drain().map(|tok| tok.to_string()));
/// assert_eq!(
///     names,
///     ["<HTML>", "<BODY>", "text(2 bytes)", "</BODY>", "</HTML>"]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamTokenizer {
    /// Decoded text not yet fully consumed; `buf[consumed..]` is the
    /// pending suffix the next drain resumes on.
    buf: String,
    /// Byte offset into `buf` of the first unconsumed byte.
    consumed: usize,
    /// Global document position of `buf[consumed]` — survives compaction,
    /// which only moves bytes inside `buf`.
    base: Pos,
    /// Undecoded tail: a so-far-valid prefix of one UTF-8 character cut off
    /// by the chunk boundary (at most 3 bytes).
    pending: Vec<u8>,
    /// Carried tokenizer state: the mode flags and the pending token's
    /// stability scan, whose offsets count from `buf[consumed]`.
    carry: Carry,
    /// `finish` was called: the next drain treats the buffer end as EOF.
    eof: bool,
}

impl StreamTokenizer {
    /// A stream positioned at the start of a document.
    pub fn new() -> StreamTokenizer {
        StreamTokenizer::default()
    }

    /// Append a chunk of the document's bytes.
    ///
    /// Invalid UTF-8 is replaced exactly as [`String::from_utf8_lossy`]
    /// would over the concatenated input; a multibyte character split by the
    /// chunk boundary is held back until its remaining bytes arrive.
    pub fn feed(&mut self, chunk: &[u8]) {
        debug_assert!(!self.eof, "feed after finish");
        if self.pending.is_empty() {
            self.decode(chunk);
        } else {
            let mut tail = std::mem::take(&mut self.pending);
            tail.extend_from_slice(chunk);
            self.decode(&tail);
        }
    }

    /// Declare end-of-input: any held-back partial character becomes one
    /// replacement character (as `from_utf8_lossy` of the full input would
    /// produce), and the next [`drain`](Self::drain) releases every
    /// remaining token.
    pub fn finish(&mut self) {
        if !self.pending.is_empty() {
            self.pending.clear();
            self.buf.push('\u{FFFD}');
        }
        self.eof = true;
    }

    /// Decode `bytes` onto the buffer, stashing an incomplete trailing
    /// character in `pending`.
    fn decode(&mut self, mut bytes: &[u8]) {
        loop {
            match std::str::from_utf8(bytes) {
                Ok(s) => {
                    self.buf.push_str(s);
                    return;
                }
                Err(e) => {
                    let valid = e.valid_up_to();
                    self.buf
                        .push_str(std::str::from_utf8(&bytes[..valid]).unwrap());
                    match e.error_len() {
                        // A valid-so-far sequence cut off by the chunk end.
                        None => {
                            self.pending = bytes[valid..].to_vec();
                            return;
                        }
                        // A definitely-invalid sequence of `n` bytes: one
                        // replacement character, then keep decoding.
                        Some(n) => {
                            self.buf.push('\u{FFFD}');
                            bytes = &bytes[valid + n..];
                        }
                    }
                }
            }
        }
    }

    /// Release every token that is already stable (every remaining token,
    /// after [`finish`](Self::finish)) through one token source for the
    /// whole drain.
    ///
    /// The [`Drain`] yields tokens with **global** (whole-document) spans.
    /// Its [`source`](Drain::source) text and [`offset`](Drain::offset) stay
    /// fixed for the drain and resolve any span a token carries via
    /// `&source[span.start.offset - offset..]`. When the drain is dropped
    /// the stream keeps its place: the next drain starts after the last
    /// token yielded.
    pub fn drain(&mut self) -> Drain<'_> {
        self.compact();
        let StreamTokenizer {
            buf,
            consumed,
            base,
            carry,
            eof,
            ..
        } = self;
        let buf: &String = buf;
        Drain {
            tokens: Tokenizer::resume(&buf[*consumed..], *carry),
            eof: *eof,
            offset: *base,
            end: *base,
            carry,
            consumed,
            base,
        }
    }

    /// Bytes currently buffered (unconsumed suffix plus any undecoded
    /// tail) — the stream's memory footprint, bounded by the largest
    /// in-flight token.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed + self.pending.len()
    }

    /// Drop the consumed prefix once it dominates the buffer. `consumed` is
    /// always a token boundary, hence a character boundary.
    fn compact(&mut self) {
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed >= COMPACT_THRESHOLD && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

/// The token source of one [`StreamTokenizer::drain`]: an iterator over
/// the tokens the stream can release now, rebased onto document
/// coordinates. Dropping it writes back the carried tokenizer state, the
/// consumed byte count and the position of the next token.
#[derive(Debug)]
pub struct Drain<'s> {
    tokens: Tokenizer<'s>,
    eof: bool,
    /// Document position of the source's first byte.
    offset: Pos,
    /// Document position just past the last token yielded.
    end: Pos,
    carry: &'s mut Carry,
    consumed: &'s mut usize,
    base: &'s mut Pos,
}

impl<'s> Drain<'s> {
    /// The buffered text this drain tokenizes: the stream's unconsumed
    /// suffix.
    pub fn source(&self) -> &'s str {
        self.tokens.source()
    }

    /// Global byte offset of the first byte of [`Drain::source`].
    pub fn offset(&self) -> usize {
        self.offset.offset
    }
}

impl<'s> Iterator for Drain<'s> {
    type Item = Token<'s>;

    fn next(&mut self) -> Option<Token<'s>> {
        let Step::Token(mut token) = self.tokens.step(self.eof) else {
            return None;
        };
        rebase_token(&mut token, self.offset);
        self.end = token.span.end;
        Some(token)
    }
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        *self.carry = self.tokens.carry();
        *self.consumed += self.end.offset - self.offset.offset;
        *self.base = self.end;
    }
}

/// Map a position produced over a resumed suffix onto whole-document
/// coordinates: `base` is the document position of the suffix's first byte.
fn rebase_pos(p: Pos, base: Pos) -> Pos {
    Pos {
        line: base.line + p.line - 1,
        // Columns reset at each newline, so only positions still on the
        // suffix's first line shift by the base column.
        col: if p.line == 1 {
            base.col + p.col - 1
        } else {
            p.col
        },
        offset: base.offset + p.offset,
    }
}

fn rebase_span(span: &mut Span, base: Pos) {
    span.start = rebase_pos(span.start, base);
    span.end = rebase_pos(span.end, base);
}

/// Rewrite every span a token carries (its own, each attribute's name span,
/// each attribute value's span) onto whole-document coordinates.
fn rebase_token(token: &mut Token<'_>, base: Pos) {
    if base.offset == 0 {
        return; // the suffix is the document start; spans already global
    }
    rebase_span(&mut token.span, base);
    if let TokenKind::StartTag(tag) | TokenKind::EndTag(tag) = &mut token.kind {
        for attr in &mut tag.attrs {
            rebase_span(&mut attr.span, base);
            if let Some(value) = &mut attr.value {
                rebase_span(&mut value.span, base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;
    use crate::tokenizer::QUOTE_SCAN_CAP;

    /// Render a token to a form that captures everything the engine ever
    /// looks at: kind, span, attribute spans, text content and flags. Debug
    /// output prints slice *contents*, so streamed and one-shot tokens
    /// compare equal iff they are byte-identical.
    ///
    /// Before `finish`, the stream must also have released exactly as many
    /// tokens as one feed of the whole input releases: a scan carried
    /// across feeds has to reach the verdict a fresh scan of the same bytes
    /// reaches, neither committing to a token early nor holding back one
    /// it could already emit.
    fn render_all(src: &[u8], chunks: &[&[u8]]) -> (Vec<String>, Vec<String>) {
        let text = String::from_utf8_lossy(src);
        let one_shot: Vec<String> = tokenize(&text).iter().map(|t| format!("{t:?}")).collect();
        let drain_before_finish = |chunks: &[&[u8]], out: &mut Vec<String>| {
            let mut stream = StreamTokenizer::new();
            for chunk in chunks {
                stream.feed(chunk);
                out.extend(stream.drain().map(|t| format!("{t:?}")));
            }
            stream
        };
        let mut whole = Vec::new();
        drain_before_finish(&[src], &mut whole);
        let mut streamed = Vec::new();
        let mut stream = drain_before_finish(chunks, &mut streamed);
        assert_eq!(
            streamed.len(),
            whole.len(),
            "tokens released before finish, chunks {:?}",
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
        );
        stream.finish();
        streamed.extend(stream.drain().map(|t| format!("{t:?}")));
        (one_shot, streamed)
    }

    fn assert_split_equivalence(src: &[u8]) {
        for cut in 0..=src.len() {
            let (one_shot, streamed) = render_all(src, &[&src[..cut], &src[cut..]]);
            assert_eq!(
                one_shot,
                streamed,
                "split at {cut} of {:?}",
                String::from_utf8_lossy(src)
            );
        }
        // Byte-at-a-time is the adversarial extreme: every boundary at once.
        let singles: Vec<&[u8]> = src.chunks(1).collect();
        let (one_shot, streamed) = render_all(src, &singles);
        assert_eq!(
            one_shot,
            streamed,
            "byte-at-a-time of {:?}",
            String::from_utf8_lossy(src)
        );
    }

    #[test]
    fn every_split_of_every_tricky_document_matches_one_shot() {
        let docs: &[&[u8]] = &[
            b"",
            b"<HTML><BODY>hi</BODY></HTML>",
            b"<A HREF=\"a.html>here</B></A>",
            b"<IMG ALT=\"a > b\" SRC=\"x.gif\">text",
            b"<IMG ALT=\"two\nlines\">",
            b"<P <B>x",
            b"<A HREF=x",
            b"<A HREF=\"x",
            b"i < 3 and j <3",
            b"trailing lt <",
            b"<BR/>",
            b"</ HEAD>",
            b"</A HREF=x>",
            b"</>",
            b"<!-- hello -->after",
            b"<!-- runs off the end",
            b"<!-- a -- b -->",
            b"<!-- <B>bold</B> -->",
            b"<!-->",
            b"<!doctype html><HTML>",
            b"<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\"><HTML>",
            b"<!ENTITY foo \"bar\">x",
            b"<!ENTITY gt \">\" done>y",
            b"<?xml version=\"1.0\"?>x",
            b"<![CDATA[ <not-a-tag> ]]>x",
            b"<![CDATA[ never closed",
            b"<SCRIPT>if (a<b) { x(); }</SCRIPT>after",
            b"<style>b { color: red }</STYLE>",
            b"<SCRIPT>never closed",
            b"<SCRIPT></SCRIPT>x",
            b"<PLAINTEXT><B>not markup</B>",
            b"<P \"\">x",
            "caf\u{e9} \u{65e5}\u{672c}\u{8a9e} text<B>x</B>".as_bytes(),
            "<IMG ALT=\"caf\u{e9}\">".as_bytes(),
            b"<HTML>\n<HEAD>\n<TITLE>example page\n</HEAD>\n<BODY BGCOLOR=\"fffff\" TEXT=#00ff00>\n<H1>My Example</H2>\nClick <B><A HREF=\"a.html>here</B></A>\nfor more details.\n</BODY>\n</HTML>\n",
        ];
        for doc in docs {
            assert_split_equivalence(doc);
        }
    }

    /// Documents whose tokens stay pending across many feeds, so the
    /// carried stability scan resumes mid-construct at every split.
    fn carry_heavy_documents() -> Vec<String> {
        let filler = "lorem ipsum dolor\n".repeat(12);
        let attrs: String = (0..120)
            .map(|i| match i % 4 {
                0 => format!(" A{i}=\"v>{i}\""),
                1 => format!(" B{i}='q\"{i}'"),
                2 => format!(" C{i}=plain{i}"),
                _ => format!("\nD{i}"),
            })
            .collect();
        vec![
            format!("<P><!-- one -- two {filler} -- three --->x<!-- a -- > b -->y<B>z</B>"),
            format!("<SCRIPT>if (a < b) {{ s = \"</scr\" + \"ipt>\"; }}\n{filler}</ScRiPt >after"),
            format!("<STYLE>{filler}</STYLE\n>after</STYLE>"),
            format!("<![CDATA[ {filler} ]] ]> ]]>x<![cdata[ y ]]>"),
            format!("<!DOCTYPE HTML PUBLIC \"-//W3C//DTD {filler}\" '>' >x<? pi \"?>\" ?>"),
            format!("<IMG SRC=\"a.gif\"{attrs}>after"),
            format!("</ {filler}B  >x</A\nHREF=\"{filler}\">"),
            format!("<A HREF=\"a.html>{filler}<B>x</B></A>"),
            format!("<A HREF=\"x>y {filler}< more"),
            format!("text {filler} i < 3 and <"),
        ]
    }

    #[test]
    fn carry_heavy_documents_match_one_shot_at_every_split() {
        for doc in carry_heavy_documents() {
            assert_split_equivalence(doc.as_bytes());
        }
    }

    #[test]
    fn quote_past_the_scan_cap_matches_one_shot() {
        // A quoted value longer than QUOTE_SCAN_CAP with a `<` inside:
        // the quote-aware walk aborts and the parity fallback waits for a
        // `>`, which may sit before the abort point inside the quote.
        let long = "v".repeat(QUOTE_SCAN_CAP + 100);
        let docs = [
            format!("<A HREF=\"{long}<B>x</B>\">after"),
            format!("<A HREF=\"x>y{long}< more"),
            format!("<A TITLE='{long}' HREF=\"z\">after"),
        ];
        for doc in &docs {
            let src = doc.as_bytes();
            // Every split near the constructs that decide the verdict
            // (tag start, quote-cap crossing, `<`, `>`), then whole-stream
            // chunkings down to single bytes.
            let cap = 9 + QUOTE_SCAN_CAP;
            let marks = [
                0,
                cap,
                doc.find('<').unwrap(),
                doc.rfind('<').unwrap(),
                doc.rfind('>').unwrap(),
            ];
            for mark in marks {
                for cut in mark.saturating_sub(40)..(mark + 40).min(src.len()) {
                    let (one_shot, streamed) = render_all(src, &[&src[..cut], &src[cut..]]);
                    assert_eq!(one_shot, streamed, "split at {cut}");
                }
            }
            for size in [1, 7, 512, 4096] {
                let chunks: Vec<&[u8]> = src.chunks(size).collect();
                let (one_shot, streamed) = render_all(src, &chunks);
                assert_eq!(one_shot, streamed, "{size}-byte chunks");
            }
        }
    }

    #[test]
    fn tokens_are_released_as_soon_as_their_end_arrives() {
        // (document, tokens a stream must release before `finish`), at
        // every split: the carried scan may neither wait past a token's
        // terminator nor commit before it.
        let cases: &[(&[u8], usize)] = &[
            (b"<P>text<BR>", 3),
            (b"<SCRIPT>a</scr" as &[u8], 1),
            (b"<SCRIPT>a</script>b", 3),
            (b"<!-- a -- b -->c", 1),
            (b"<!-- a > b", 0),
            (b"<![CDATA[ x ]] ]]>y", 1),
            (b"<!DOCTYPE \"q>\" >z", 1),
            (b"</ HEAD >x", 1),
            (b"<IMG ALT=\"a>b\" SRC=x>y", 1),
            // The quote-parity fallback cuts at a `>` inside the
            // abandoned quote.
            (b"<A HREF=\"x>y <B more", 2),
            (b"<A HREF=\"x <B more", 0),
        ];
        for &(doc, expected) in cases {
            let mut splits: Vec<Vec<&[u8]>> = (0..=doc.len())
                .map(|cut| vec![&doc[..cut], &doc[cut..]])
                .collect();
            splits.push(doc.chunks(1).collect());
            for chunks in splits {
                let mut stream = StreamTokenizer::new();
                let mut released = 0;
                for chunk in &chunks {
                    stream.feed(chunk);
                    released += stream.drain().count();
                }
                assert_eq!(
                    released,
                    expected,
                    "{:?} fed as {:?}",
                    String::from_utf8_lossy(doc),
                    chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn ambiguous_openers_wait_for_their_class() {
        // `<!-` may yet become a comment and `<![CDA` a CDATA section:
        // neither may commit to a declaration scan early.
        for doc in [
            &b"<!-- a > b -->x"[..],
            b"<!-x>y",
            b"<![CDATA[ > ]]>z",
            b"<![CDAX>w",
        ] {
            for cut in 0..=doc.len() {
                let (one_shot, streamed) = render_all(doc, &[&doc[..cut], &doc[cut..]]);
                assert_eq!(one_shot, streamed, "split at {cut}");
            }
        }
    }

    #[test]
    fn invalid_utf8_matches_from_utf8_lossy_at_every_split() {
        let docs: &[&[u8]] = &[
            b"<P>\xff\xfe</P>",
            b"<P>a\xe2\x82</P>",          // truncated 3-byte sequence inside
            b"<P>tail\xe2\x82",           // truncated sequence at EOF
            b"<P>\xf0\x9f\x92\xa9ok</P>", // valid 4-byte char
            b"<P>\xf0\x9f\x92ok</P>",     // its truncation
            b"<B \xc3\x28>x</B>",         // invalid continuation inside a tag
            b"\x80\x80<I>y</I>",          // stray continuation bytes
        ];
        for doc in docs {
            assert_split_equivalence(doc);
        }
    }

    #[test]
    fn spans_are_rebased_to_document_coordinates() {
        let src = "<HTML>\n<BODY CLASS=\"x\">\ntext\n</BODY>\n</HTML>\n";
        let mut expected = Vec::new();
        for t in tokenize(src) {
            expected.push((t.span, format!("{t}")));
        }
        for cut in 0..=src.len() {
            let mut got = Vec::new();
            let mut stream = StreamTokenizer::new();
            stream.feed(&src.as_bytes()[..cut]);
            got.extend(stream.drain().map(|t| (t.span, format!("{t}"))));
            stream.feed(&src.as_bytes()[cut..]);
            stream.finish();
            got.extend(stream.drain().map(|t| (t.span, format!("{t}"))));
            assert_eq!(expected, got, "split at {cut}");
        }
    }

    #[test]
    fn drain_source_resolves_global_spans() {
        let src = b"<HTML>\n<BODY CLASS=\"x\">\ntext\n</BODY>\n";
        let mut stream = StreamTokenizer::new();
        for chunk in src.chunks(5) {
            stream.feed(chunk);
            check_source(stream.drain());
        }
        stream.finish();
        check_source(stream.drain());

        fn check_source(mut drain: Drain<'_>) {
            let (source, offset) = (drain.source(), drain.offset());
            let local = |span: Span| &source[span.start.offset - offset..span.end.offset - offset];
            for t in &mut drain {
                if let TokenKind::Text(text) = &t.kind {
                    assert_eq!(local(t.span), text.raw);
                }
                if let TokenKind::StartTag(tag) = &t.kind {
                    for attr in &tag.attrs {
                        assert_eq!(local(attr.span), attr.name);
                        if let Some(v) = &attr.value {
                            assert_eq!(local(v.span), v.raw);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_drain_dropped_early_resumes_after_its_last_token() {
        let src = "<HTML>\n<BODY>one<B>two</B>\n<SCRIPT>a<b</SCRIPT>x</BODY>";
        let expected: Vec<String> = tokenize(src).iter().map(|t| format!("{t:?}")).collect();
        for take in 1..4 {
            let mut stream = StreamTokenizer::new();
            let mut got = Vec::new();
            for chunk in src.as_bytes().chunks(9) {
                stream.feed(chunk);
                got.extend(stream.drain().take(take).map(|t| format!("{t:?}")));
            }
            stream.finish();
            got.extend(stream.drain().map(|t| format!("{t:?}")));
            assert_eq!(got, expected, "{take} tokens per drain");
        }
    }

    #[test]
    fn memory_stays_bounded_by_token_size_not_document_size() {
        // A long stream of small, self-contained paragraphs: the buffer
        // must keep compacting back down instead of accumulating the
        // document.
        let mut stream = StreamTokenizer::new();
        let para = b"<P CLASS=\"x\">some text content goes here</P>\n";
        let mut peak = 0usize;
        for _ in 0..10_000 {
            stream.feed(para);
            stream.drain().for_each(drop);
            peak = peak.max(stream.buffered());
        }
        assert!(
            peak < 2 * COMPACT_THRESHOLD + para.len(),
            "buffer grew to {peak} bytes over a 460 KB stream"
        );
        stream.finish();
        stream.drain().for_each(drop);
        assert_eq!(stream.buffered(), 0);
    }

    #[test]
    fn step_with_eof_matches_iterator() {
        let src = "<P>one<BR>two <!-- c --> three <B class=x>four</B><A HREF=\"x";
        let mut by_iter = Vec::new();
        for t in Tokenizer::new(src) {
            by_iter.push(format!("{t:?}"));
        }
        let mut by_step = Vec::new();
        let mut tok = Tokenizer::new(src);
        loop {
            match tok.step(true) {
                Step::Token(t) => by_step.push(format!("{t:?}")),
                Step::Done => break,
                Step::NeedMore => panic!("NeedMore is unreachable at eof"),
            }
        }
        assert_eq!(by_iter, by_step);
    }
}
