//! A character cursor over the source with position tracking.

use crate::pos::Pos;

/// A forward-only cursor over `src` that tracks line/column/offset.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: Pos,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            src,
            pos: Pos::START,
        }
    }

    /// Current position.
    pub(crate) fn pos(&self) -> Pos {
        self.pos
    }

    /// Whole source string.
    pub(crate) fn src(&self) -> &'a str {
        self.src
    }

    /// Remaining unconsumed input.
    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.pos.offset..]
    }

    /// True when all input has been consumed.
    pub(crate) fn is_eof(&self) -> bool {
        self.pos.offset >= self.src.len()
    }

    /// Peek at the next character without consuming it.
    pub(crate) fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Peek at the character `n` characters ahead (0 == `peek`).
    pub(crate) fn peek_nth(&self, n: usize) -> Option<char> {
        self.rest().chars().nth(n)
    }

    /// Consume and return the next character.
    pub(crate) fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos.advance(ch);
        Some(ch)
    }

    /// Whether the remaining input starts with `s` (case-sensitive).
    pub(crate) fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Whether the remaining input starts with `s`, ignoring ASCII case.
    pub(crate) fn starts_with_ci(&self, s: &str) -> bool {
        // Compare as bytes: slicing the str at `s.len()` could split a
        // multibyte character and panic.
        let rest = self.rest().as_bytes();
        let pat = s.as_bytes();
        rest.len() >= pat.len() && rest[..pat.len()].eq_ignore_ascii_case(pat)
    }

    /// Consume `n` bytes, which must fall on a character boundary.
    pub(crate) fn bump_bytes(&mut self, n: usize) {
        let taken = &self.rest()[..n];
        self.pos.advance_str(taken);
    }

    /// Consume characters while `f` holds; return the consumed slice.
    pub(crate) fn eat_while(&mut self, mut f: impl FnMut(char) -> bool) -> &'a str {
        let start = self.pos.offset;
        while let Some(ch) = self.peek() {
            if !f(ch) {
                break;
            }
            self.pos.advance(ch);
        }
        &self.src[start..self.pos.offset]
    }

    /// Consume up to (not including) the next occurrence of the ASCII byte
    /// `stop`, or to end-of-file; return the consumed slice. The byte-level
    /// fast path for long text runs: no character decoding at all.
    pub(crate) fn eat_until_byte(&mut self, stop: u8) -> &'a str {
        debug_assert!(
            stop.is_ascii(),
            "stop byte must be ASCII for boundary safety"
        );
        let rest = self.rest();
        let idx = memchr(stop, rest.as_bytes()).unwrap_or(rest.len());
        let content = &rest[..idx];
        self.pos.advance_str(content);
        content
    }

    /// Consume ASCII whitespace; return true if any was consumed.
    pub(crate) fn eat_ws(&mut self) -> bool {
        !self.eat_while(|c| c.is_ascii_whitespace()).is_empty()
    }

    /// Consume up to and including the next occurrence of `needle`;
    /// return the slice *before* the needle, or `None` (consuming nothing)
    /// if the needle does not occur.
    pub(crate) fn eat_until_and_past(&mut self, needle: &str) -> Option<&'a str> {
        let rest = self.rest();
        let idx = rest.find(needle)?;
        let content = &rest[..idx];
        self.pos.advance_str(content);
        self.pos.advance_str(needle);
        Some(content)
    }

    /// Find the next occurrence of `needle` case-insensitively in the
    /// remaining input; returns byte index relative to [`Cursor::rest`].
    pub(crate) fn find_ci(&self, needle: &str) -> Option<usize> {
        find_ci(self.rest().as_bytes(), needle)
    }

    /// Consume everything to end-of-file; return it.
    pub(crate) fn eat_to_eof(&mut self) -> &'a str {
        let rest = self.rest();
        self.pos.advance_str(rest);
        rest
    }
}

/// Case-insensitive substring search (ASCII case only).
pub(crate) fn find_ci(hay: &[u8], needle: &str) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    let n = needle.len();
    if hay.len() < n {
        return None;
    }
    let pat = needle.as_bytes();
    let first = pat[0];
    // Compare as bytes throughout: a candidate index may fall inside a
    // multibyte character, and `&str` slicing there would panic. The needles
    // are always ASCII (`</script` etc.), so a byte match is also a
    // char-boundary match.
    if !first.is_ascii_alphabetic() {
        // Case-insensitivity is moot for the first byte: jump candidate to
        // candidate with memchr instead of walking every byte.
        let mut i = 0;
        while let Some(j) = memchr(first, &hay[i..]) {
            let at = i + j;
            if at > hay.len() - n {
                return None;
            }
            if hay[at..at + n].eq_ignore_ascii_case(pat) {
                return Some(at);
            }
            i = at + 1;
        }
        return None;
    }
    let first_lo = first.to_ascii_lowercase();
    for i in 0..=hay.len() - n {
        if hay[i].to_ascii_lowercase() == first_lo && hay[i..i + n].eq_ignore_ascii_case(pat) {
            return Some(i);
        }
    }
    None
}

/// Position of the first occurrence of `needle` in `hay` — a SWAR memchr.
///
/// Words are tested eight bytes at a time with the classic zero-byte trick
/// (`(x - 0x01…01) & !x & 0x80…80` is non-zero iff some byte of `x` is
/// zero); the byte loop only runs over the final partial word or the word
/// containing the hit.
pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    const LANES: usize = std::mem::size_of::<usize>();
    const LO: usize = usize::from_ne_bytes([0x01; LANES]);
    const HI: usize = usize::from_ne_bytes([0x80; LANES]);
    let broadcast = usize::from_ne_bytes([needle; LANES]);
    let mut i = 0;
    while i + LANES <= hay.len() {
        let chunk = usize::from_ne_bytes(hay[i..i + LANES].try_into().unwrap());
        let x = chunk ^ broadcast;
        if x.wrapping_sub(LO) & !x & HI != 0 {
            break;
        }
        i += LANES;
    }
    hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
}

/// Position of the first byte of `hay` equal to any of `a`, `b` or `c` —
/// [`memchr`] with three needles: each word is XORed with each broadcast
/// needle and the three results go through the same zero-byte test.
pub(crate) fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> Option<usize> {
    const LANES: usize = std::mem::size_of::<usize>();
    const LO: usize = usize::from_ne_bytes([0x01; LANES]);
    const HI: usize = usize::from_ne_bytes([0x80; LANES]);
    let has_zero = |x: usize| x.wrapping_sub(LO) & !x & HI != 0;
    let (wa, wb, wc) = (
        usize::from_ne_bytes([a; LANES]),
        usize::from_ne_bytes([b; LANES]),
        usize::from_ne_bytes([c; LANES]),
    );
    let mut i = 0;
    while i + LANES <= hay.len() {
        let chunk = usize::from_ne_bytes(hay[i..i + LANES].try_into().unwrap());
        if has_zero(chunk ^ wa) || has_zero(chunk ^ wb) || has_zero(chunk ^ wc) {
            break;
        }
        i += LANES;
    }
    hay[i..]
        .iter()
        .position(|&x| x == a || x == b || x == c)
        .map(|p| i + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_tracks_position() {
        let mut c = Cursor::new("a\nb");
        assert_eq!(c.bump(), Some('a'));
        assert_eq!(c.bump(), Some('\n'));
        assert_eq!(c.pos().line, 2);
        assert_eq!(c.bump(), Some('b'));
        assert!(c.is_eof());
        assert_eq!(c.bump(), None);
    }

    #[test]
    fn eat_while_returns_slice() {
        let mut c = Cursor::new("abc123");
        assert_eq!(c.eat_while(|ch| ch.is_ascii_alphabetic()), "abc");
        assert_eq!(c.rest(), "123");
    }

    #[test]
    fn eat_until_and_past_consumes_needle() {
        let mut c = Cursor::new("foo-->bar");
        assert_eq!(c.eat_until_and_past("-->"), Some("foo"));
        assert_eq!(c.rest(), "bar");
    }

    #[test]
    fn eat_until_missing_needle_consumes_nothing() {
        let mut c = Cursor::new("foobar");
        assert_eq!(c.eat_until_and_past("-->"), None);
        assert_eq!(c.rest(), "foobar");
    }

    #[test]
    fn starts_with_ci_matches_any_case() {
        let c = Cursor::new("DocType html");
        assert!(c.starts_with_ci("doctype"));
        assert!(!c.starts_with("doctype"));
    }

    #[test]
    fn starts_with_ci_survives_multibyte_input() {
        // Regression: the pattern length may fall inside a multibyte
        // character; byte-wise comparison must not panic.
        let c = Cursor::new("<! '-eIn\u{feff} x");
        assert!(!c.starts_with_ci("<!doctype"));
        let c = Cursor::new("é");
        assert!(!c.starts_with_ci("ab"));
    }

    #[test]
    fn find_ci_finds_mixed_case() {
        assert_eq!(find_ci(b"xx</ScRiPt>", "</script"), Some(2));
        assert_eq!(find_ci(b"nothing here", "</script"), None);
        assert_eq!(find_ci(b"abc", ""), Some(0));
        assert_eq!(find_ci(b"ab", "abc"), None);
    }

    #[test]
    fn find_ci_survives_multibyte_haystack() {
        // Regression: candidate offsets can fall inside multibyte
        // characters; the comparison must stay byte-wise.
        let hay = "鄨Q\u{202e}x</script>";
        assert_eq!(
            find_ci(hay.as_bytes(), "</script"),
            Some("鄨Q\u{202e}x".len())
        );
        assert_eq!(find_ci("é鄨\u{202e}".as_bytes(), "</script"), None);
    }

    #[test]
    fn memchr_matches_naive_search() {
        let hay = b"abcabc\x00xyz\xff\x80abc<tail<";
        for len in 0..hay.len() {
            for needle in [b'a', b'<', b'\x00', b'\xff', b'\x80', b'q'] {
                let expected = hay[..len].iter().position(|&b| b == needle);
                assert_eq!(memchr(needle, &hay[..len]), expected, "{needle} in {len}");
            }
        }
        let long = [b'x'; 100];
        assert_eq!(memchr(b'y', &long), None);
        let mut long = long;
        long[83] = b'y';
        assert_eq!(memchr(b'y', &long), Some(83));
    }

    #[test]
    fn memchr3_matches_naive_search() {
        // Every length and every alignment of a haystack that puts each
        // needle, and near-miss bytes, at varied word offsets.
        let hay = b"plain text & more<tail>\x00\xff\x80 x&y<z>w \xc3\xa9 end of it all<";
        let sets: [[u8; 3]; 4] = [*b"<>&", *b"&<>", [b'\x00', b'\xff', b'q'], *b"qrs"];
        for start in 0..hay.len() {
            for end in start..=hay.len() {
                let slice = &hay[start..end];
                for [a, b, c] in sets {
                    let expected = slice.iter().position(|&x| x == a || x == b || x == c);
                    assert_eq!(
                        memchr3(a, b, c, slice),
                        expected,
                        "{start}..{end} {a} {b} {c}"
                    );
                }
            }
        }
        let mut long = [b'x'; 100];
        assert_eq!(memchr3(b'<', b'>', b'&', &long), None);
        long[83] = b'>';
        long[91] = b'<';
        assert_eq!(memchr3(b'<', b'>', b'&', &long), Some(83));
    }

    #[test]
    fn eat_until_byte_stops_or_hits_eof() {
        let mut c = Cursor::new("abé\ncd<ef");
        assert_eq!(c.eat_until_byte(b'<'), "abé\ncd");
        assert_eq!(c.pos().line, 2);
        assert_eq!(c.pos().col, 3);
        assert_eq!(c.rest(), "<ef");
        c.bump();
        assert_eq!(c.eat_until_byte(b'<'), "ef");
        assert!(c.is_eof());
    }

    #[test]
    fn peek_nth() {
        let c = Cursor::new("xyz");
        assert_eq!(c.peek_nth(0), Some('x'));
        assert_eq!(c.peek_nth(2), Some('z'));
        assert_eq!(c.peek_nth(3), None);
    }
}
