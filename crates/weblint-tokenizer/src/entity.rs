//! Scanner for entity references inside text and attribute values.

use std::ops::Range;

/// One entity reference found in a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityRef<'a> {
    /// The entity name without `&` or `;` — `amp` for `&amp;`, `#224` for
    /// `&#224;`, `#xE0` for `&#xE0;`.
    pub name: &'a str,
    /// Numeric character reference (`&#…;`).
    pub numeric: bool,
    /// Hexadecimal numeric reference (`&#x…;`).
    pub hex: bool,
    /// A closing `;` was present. HTML tolerates its absence in some places
    /// but weblint warns about it.
    pub terminated: bool,
    /// Byte range of the whole reference within the scanned text, from the
    /// `&` through the `;` if present. [`crate::SpanWalker`] turns it into
    /// a document span.
    pub range: Range<usize>,
}

impl EntityRef<'_> {
    /// For numeric references, the referenced code point, if it parses and
    /// is a valid `char`.
    pub fn code_point(&self) -> Option<char> {
        if !self.numeric {
            return None;
        }
        let digits = &self.name[1..]; // strip '#'
        let value = if self.hex {
            u32::from_str_radix(&digits[1..], 16).ok()?
        } else {
            digits.parse::<u32>().ok()?
        };
        char::from_u32(value)
    }
}

/// Scan `text` for entity references, in order.
///
/// Bare ampersands that do not begin an entity reference are *not* reported
/// here — see [`crate::scan_metachars`].
///
/// # Examples
///
/// ```
/// use weblint_tokenizer::scan_entities;
///
/// let refs = scan_entities("caf&eacute; &#224; &undefined x");
/// assert_eq!(refs.len(), 3);
/// assert_eq!(refs[0].name, "eacute");
/// assert_eq!(refs[0].range, 3..11);
/// assert!(refs[1].numeric);
/// assert!(!refs[2].terminated);
/// ```
pub fn scan_entities(text: &str) -> Vec<EntityRef<'_>> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    // Jump ampersand to ampersand: clean text costs one memchr miss.
    let mut i = 0;
    while let Some(j) = crate::cursor::memchr(b'&', &bytes[i..]) {
        let amp = i + j;
        // Decide whether this begins an entity reference.
        let (name_len, numeric, hex) = entity_name_len(&bytes[amp + 1..]);
        if name_len == 0 {
            i = amp + 1;
            continue;
        }
        let name = &text[amp + 1..amp + 1 + name_len];
        let terminated = bytes.get(amp + 1 + name_len) == Some(&b';');
        i = amp + 1 + name_len + usize::from(terminated);
        out.push(EntityRef {
            name,
            numeric,
            hex,
            terminated,
            range: amp..i,
        });
    }
    out
}

/// Length in bytes of the entity name at the start of `bytes` (the text
/// after an `&`), with flags for numeric and hex forms. Returns 0 when
/// `bytes` does not begin an entity reference; the metacharacter scan
/// uses that to leave such an `&` to the entity checks.
pub(crate) fn entity_name_len(bytes: &[u8]) -> (usize, bool, bool) {
    match bytes.first() {
        Some(b'#') => {
            let hex = matches!(bytes.get(1), Some(b'x') | Some(b'X'));
            let digit_start = if hex { 2 } else { 1 };
            let mut len = digit_start;
            while let Some(&b) = bytes.get(len) {
                let ok = if hex {
                    b.is_ascii_hexdigit()
                } else {
                    b.is_ascii_digit()
                };
                if !ok {
                    break;
                }
                len += 1;
            }
            if len == digit_start {
                (0, false, false) // "&#" alone is not a reference
            } else {
                (len, true, hex)
            }
        }
        Some(b) if b.is_ascii_alphabetic() => {
            let mut len = 1;
            while let Some(&b) = bytes.get(len) {
                if !b.is_ascii_alphanumeric() {
                    break;
                }
                len += 1;
            }
            (len, false, false)
        }
        _ => (0, false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entity_terminated() {
        let refs = scan_entities("&amp;");
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].name, "amp");
        assert!(refs[0].terminated);
        assert!(!refs[0].numeric);
        assert_eq!(refs[0].range, 0..5);
    }

    #[test]
    fn named_entity_unterminated() {
        let refs = scan_entities("fish &chips tonight");
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].name, "chips");
        assert!(!refs[0].terminated);
    }

    #[test]
    fn numeric_decimal() {
        let refs = scan_entities("&#224;");
        assert_eq!(refs[0].name, "#224");
        assert!(refs[0].numeric);
        assert!(!refs[0].hex);
        assert_eq!(refs[0].code_point(), Some('à'));
    }

    #[test]
    fn numeric_hex() {
        let refs = scan_entities("&#xE0; and &#X41;");
        assert_eq!(refs[0].code_point(), Some('à'));
        assert!(refs[0].hex);
        assert_eq!(refs[1].code_point(), Some('A'));
    }

    #[test]
    fn numeric_out_of_range_has_no_code_point() {
        let refs = scan_entities("&#1114112;");
        assert_eq!(refs[0].code_point(), None);
    }

    #[test]
    fn bare_ampersand_is_not_a_reference() {
        assert!(scan_entities("R & D, 100% &").is_empty());
        assert!(scan_entities("&# alone").is_empty());
        // "&T," — 'T' is alphabetic so it *does* scan as an (unknown,
        // unterminated) entity. That is the behaviour weblint wants: it
        // cannot know 'T' is not an entity without the entity table.
        let refs = scan_entities("AT&T x");
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].name, "T");
    }

    #[test]
    fn ranges_are_byte_offsets_into_the_text() {
        let refs = scan_entities("a\nb \u{e9} &amp; c &T");
        assert_eq!(refs[0].range, 7..12);
        assert_eq!(refs[1].range, 15..17);
    }

    #[test]
    fn multiple_entities() {
        let refs = scan_entities("&lt;tag&gt;");
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].name, "lt");
        assert_eq!(refs[1].name, "gt");
    }

    #[test]
    fn name_stops_at_non_alphanumeric() {
        let refs = scan_entities("&copy-left;");
        assert_eq!(refs[0].name, "copy");
        assert!(!refs[0].terminated);
    }
}
