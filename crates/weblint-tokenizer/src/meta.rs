//! Scanner for literal metacharacters in text content.
//!
//! HTML text content should escape `<`, `>` and `&` as `&lt;`, `&gt;` and
//! `&amp;`. The tokenizer only produces a bare `<` inside a [`crate::Text`]
//! token when the `<` could not begin markup, so every `<` found here is by
//! construction a literal metacharacter; `>` in text is always literal; `&`
//! is literal when it does not begin an entity reference.

use std::ops::Range;

use crate::cursor::memchr3;
use crate::entity::entity_name_len;

/// Which metacharacter appeared literally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaCharKind {
    /// A bare `<`.
    Lt,
    /// A bare `>`.
    Gt,
    /// A bare `&` that does not begin an entity reference.
    Amp,
}

impl MetaCharKind {
    /// The literal character.
    pub fn ch(self) -> char {
        match self {
            MetaCharKind::Lt => '<',
            MetaCharKind::Gt => '>',
            MetaCharKind::Amp => '&',
        }
    }

    /// The entity reference that should be used instead.
    pub fn escape(self) -> &'static str {
        match self {
            MetaCharKind::Lt => "&lt;",
            MetaCharKind::Gt => "&gt;",
            MetaCharKind::Amp => "&amp;",
        }
    }
}

/// A literal metacharacter occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaChar {
    /// Which character.
    pub kind: MetaCharKind,
    /// Its one-byte range within the scanned text. [`crate::SpanWalker`]
    /// turns it into a document span.
    pub range: Range<usize>,
}

/// Scan a text run for literal `<`, `>` and `&` characters, in order.
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::{scan_metachars, MetaCharKind};
///
/// let hits = scan_metachars("1 < 2 > 0 & true &amp;");
/// let kinds: Vec<_> = hits.iter().map(|m| m.kind).collect();
/// assert_eq!(
///     kinds,
///     [MetaCharKind::Lt, MetaCharKind::Gt, MetaCharKind::Amp]
/// );
/// assert_eq!(hits[2].range, 10..11);
/// ```
pub fn scan_metachars(text: &str) -> Vec<MetaChar> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    // Jump candidate to candidate a word at a time. The candidates are
    // ASCII, so a byte hit is always a whole character.
    let mut i = 0;
    while let Some(j) = memchr3(b'<', b'>', b'&', &bytes[i..]) {
        let hit = i + j;
        i = hit + 1;
        let kind = match bytes[hit] {
            b'<' => MetaCharKind::Lt,
            b'>' => MetaCharKind::Gt,
            // A `&` that begins an entity reference belongs to the entity
            // checks, which see it through `scan_entities`.
            _ if entity_name_len(&bytes[i..]).0 != 0 => continue,
            _ => MetaCharKind::Amp,
        };
        out.push(MetaChar {
            kind,
            range: hit..i,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<MetaCharKind> {
        scan_metachars(text).iter().map(|m| m.kind).collect()
    }

    #[test]
    fn clean_text_has_no_hits() {
        assert!(kinds("perfectly ordinary text").is_empty());
    }

    #[test]
    fn bare_lt_and_gt() {
        assert_eq!(kinds("a < b"), [MetaCharKind::Lt]);
        assert_eq!(kinds("a > b"), [MetaCharKind::Gt]);
    }

    #[test]
    fn amp_starting_entity_is_ignored() {
        assert!(kinds("&amp; &#65; &#x41;").is_empty());
    }

    #[test]
    fn bare_amp_detected() {
        assert_eq!(kinds("R & D"), [MetaCharKind::Amp]);
        assert_eq!(kinds("trailing &"), [MetaCharKind::Amp]);
        assert_eq!(kinds("&# x"), [MetaCharKind::Amp]);
        assert_eq!(kinds("&#x zz"), [MetaCharKind::Amp]);
    }

    #[test]
    fn amp_before_letter_is_left_to_entity_checks() {
        // "&T" could be a (mistyped) entity; the entity table decides.
        assert!(kinds("AT&T").is_empty());
    }

    #[test]
    fn ranges_are_byte_offsets_into_the_text() {
        let hits = scan_metachars("ab\nc\u{e9} > d &");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].range, 7..8);
        assert_eq!(hits[1].range, 11..12);
    }

    #[test]
    fn escape_suggestions() {
        assert_eq!(MetaCharKind::Lt.escape(), "&lt;");
        assert_eq!(MetaCharKind::Gt.escape(), "&gt;");
        assert_eq!(MetaCharKind::Amp.escape(), "&amp;");
        assert_eq!(MetaCharKind::Amp.ch(), '&');
    }
}
