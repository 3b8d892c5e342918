//! Source positions and spans.

use std::fmt;
use std::ops::Range;

/// A position within a source document.
///
/// Lines and columns are 1-based, matching the line numbers weblint prints
/// (`line 4: no closing </TITLE> seen …`). `offset` is the 0-based byte
/// offset into the source string, useful for slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, counted in characters.
    pub col: u32,
    /// 0-based byte offset into the source.
    pub offset: usize,
}

impl Pos {
    /// The start of a document: line 1, column 1, offset 0.
    pub const START: Pos = Pos {
        line: 1,
        col: 1,
        offset: 0,
    };

    /// Create a position.
    pub fn new(line: u32, col: u32, offset: usize) -> Pos {
        Pos { line, col, offset }
    }

    /// Advance this position over one character.
    ///
    /// A newline moves to column 1 of the next line; anything else advances
    /// the column by one. The byte offset always advances by the character's
    /// UTF-8 length.
    pub fn advance(&mut self, ch: char) {
        self.offset += ch.len_utf8();
        if ch == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }

    /// Advance this position over every character in `s`.
    ///
    /// Equivalent to calling [`Pos::advance`] per character, but works on
    /// bytes: count newlines, then count the characters after the last one
    /// (a character per non-continuation byte). This is what makes skipping
    /// a long text run cheap — the byte loops vectorize, where the per-char
    /// decode loop cannot.
    pub fn advance_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.offset += bytes.len();
        match bytes.iter().rposition(|&b| b == b'\n') {
            Some(last_nl) => {
                let newlines = 1 + bytes[..last_nl].iter().filter(|&&b| b == b'\n').count();
                self.line += newlines as u32;
                self.col = 1 + count_chars(&bytes[last_nl + 1..]) as u32;
            }
            None => self.col += count_chars(bytes) as u32,
        }
    }
}

/// Number of characters in a valid UTF-8 byte sequence: one per byte that
/// is not a continuation byte (`0b10xx_xxxx`).
fn count_chars(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| (b & 0xC0) != 0x80).count()
}

impl Default for Pos {
    fn default() -> Self {
        Pos::START
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open byte range in the source, with the position of its start and
/// the position just past its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Position of the first character.
    pub start: Pos,
    /// Position one past the last character.
    pub end: Pos,
}

impl Span {
    /// Create a span from two positions.
    pub fn new(start: Pos, end: Pos) -> Span {
        Span { start, end }
    }

    /// A zero-length span at `pos`.
    pub fn empty(pos: Pos) -> Span {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The 1-based line number of the span's start — what weblint reports.
    pub fn line(&self) -> u32 {
        self.start.line
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.offset - self.start.offset
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slice `src` to this span's text.
    ///
    /// Returns an empty string if the span is out of bounds for `src` (which
    /// can only happen if the span came from a different document).
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start.offset..self.end.offset).unwrap_or("")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Turns byte ranges within one text run into document spans, walking the
/// line/column count forward from the run's start only as far as the last
/// range asked for. The text scanners ([`crate::scan_entities`],
/// [`crate::scan_metachars`]) report byte ranges, so a run whose hits are
/// never reported costs no position bookkeeping at all.
///
/// Ranges must be asked for in ascending order of their start.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::{Pos, SpanWalker};
///
/// let mut spans = SpanWalker::new("ab\ncd > e", Pos::new(4, 9, 100));
/// let gt = spans.span(6..7);
/// assert_eq!(gt.start, Pos::new(5, 4, 106));
/// assert_eq!(gt.end, Pos::new(5, 5, 107));
/// ```
#[derive(Debug, Clone)]
pub struct SpanWalker<'a> {
    text: &'a str,
    /// Document position of `text[at]`.
    pos: Pos,
    at: usize,
}

impl<'a> SpanWalker<'a> {
    /// A walker over `text`, whose first byte sits at `start`.
    pub fn new(text: &'a str, start: Pos) -> SpanWalker<'a> {
        SpanWalker {
            text,
            pos: start,
            at: 0,
        }
    }

    /// The document span of `text[range]`. `range` must lie on character
    /// boundaries and start no earlier than the previous range did.
    pub fn span(&mut self, range: Range<usize>) -> Span {
        debug_assert!(range.start >= self.at, "ranges must ascend");
        self.pos.advance_str(&self.text[self.at..range.start]);
        self.at = range.start;
        let mut end = self.pos;
        end.advance_str(&self.text[range]);
        Span::new(self.pos, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_plain_chars() {
        let mut p = Pos::START;
        p.advance('a');
        p.advance('b');
        assert_eq!(p, Pos::new(1, 3, 2));
    }

    #[test]
    fn advance_newline_resets_column() {
        let mut p = Pos::START;
        p.advance_str("ab\nc");
        assert_eq!(p, Pos::new(2, 2, 4));
    }

    #[test]
    fn advance_multibyte_counts_chars_not_bytes() {
        let mut p = Pos::START;
        p.advance_str("é"); // 2 bytes, 1 char
        assert_eq!(p, Pos::new(1, 2, 2));
    }

    #[test]
    fn advance_str_matches_per_char_advance() {
        for s in [
            "",
            "plain ascii",
            "ends with newline\n",
            "\n\nleading",
            "mixé\nmulti—byte\n日本語 text",
            "tab\tand\rcarriage",
            "\n",
        ] {
            let mut fast = Pos::new(3, 9, 17);
            fast.advance_str(s);
            let mut slow = Pos::new(3, 9, 17);
            for ch in s.chars() {
                slow.advance(ch);
            }
            assert_eq!(fast, slow, "{s:?}");
        }
    }

    #[test]
    fn span_slice() {
        let src = "hello world";
        let mut end = Pos::START;
        end.advance_str("hello");
        let span = Span::new(Pos::START, end);
        assert_eq!(span.slice(src), "hello");
        assert_eq!(span.len(), 5);
        assert!(!span.is_empty());
    }

    #[test]
    fn span_out_of_bounds_is_empty() {
        let span = Span::new(Pos::new(1, 1, 100), Pos::new(1, 1, 105));
        assert_eq!(span.slice("short"), "");
    }

    #[test]
    fn span_walker_matches_per_char_advance() {
        let text = "x\n\u{e9}t\u{e9} & y\n\n<z> \u{65e5}>";
        let start = Pos::new(7, 3, 40);
        let mut walker = SpanWalker::new(text, start);
        for range in [
            0..1,
            1..2,
            2..4,
            8..9,
            10..10,
            13..14,
            15..16,
            17..20,
            20..21,
        ] {
            let mut slow = start;
            for ch in text[..range.start].chars() {
                slow.advance(ch);
            }
            let s = slow;
            for ch in text[range.clone()].chars() {
                slow.advance(ch);
            }
            assert_eq!(walker.span(range.clone()), Span::new(s, slow), "{range:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pos::new(3, 7, 40).to_string(), "3:7");
        let span = Span::new(Pos::new(1, 1, 0), Pos::new(1, 4, 3));
        assert_eq!(span.to_string(), "1:1..1:4");
    }
}
