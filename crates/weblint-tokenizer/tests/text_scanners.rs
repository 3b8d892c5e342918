//! The text scanners against the position-tracking scanners they replaced.
//!
//! `scan_entities` and `scan_metachars` report byte ranges relative to the
//! text and leave line/column to a [`SpanWalker`]. The oracles below are
//! the earlier scanners, which advanced a [`Pos`] up to every hit; on any
//! text they must agree hit for hit, and every span the walker builds from
//! a range must equal the span a per-character [`Pos::advance`] walk from
//! the text start gives.

use proptest::prelude::*;

use weblint_tokenizer::{scan_entities, scan_metachars, MetaCharKind, Pos, Span, SpanWalker};

/// One entity reference as the oracle reports it.
#[derive(Debug, PartialEq, Eq)]
struct OracleEntity<'a> {
    name: &'a str,
    numeric: bool,
    hex: bool,
    terminated: bool,
    span: Span,
}

/// The position-tracking entity scanner.
fn oracle_entities(text: &str, base: Pos) -> Vec<OracleEntity<'_>> {
    let mut out = Vec::new();
    let mut pos = base;
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(j) = bytes[i..].iter().position(|&b| b == b'&') {
        let amp = i + j;
        pos.advance_str(&text[i..amp]);
        let start = pos;
        let (name_len, numeric, hex) = oracle_name_len(&bytes[amp + 1..]);
        if name_len == 0 {
            pos.advance('&');
            i = amp + 1;
            continue;
        }
        let name = &text[amp + 1..amp + 1 + name_len];
        let terminated = bytes.get(amp + 1 + name_len) == Some(&b';');
        let total = 1 + name_len + usize::from(terminated);
        pos.advance_str(&text[amp..amp + total]);
        i = amp + total;
        out.push(OracleEntity {
            name,
            numeric,
            hex,
            terminated,
            span: Span::new(start, pos),
        });
    }
    out
}

fn oracle_name_len(bytes: &[u8]) -> (usize, bool, bool) {
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
                (0, false, false)
            } else {
                (len, true, hex)
            }
        }
        Some(b) if b.is_ascii_alphabetic() => {
            let len = 1 + bytes[1..]
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric())
                .count();
            (len, false, false)
        }
        _ => (0, false, false),
    }
}

/// The position-tracking metacharacter scanner, one byte at a time.
fn oracle_metachars(text: &str, base: Pos) -> Vec<(MetaCharKind, Span)> {
    let mut out = Vec::new();
    let mut pos = base;
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(j) = bytes[i..]
        .iter()
        .position(|&b| matches!(b, b'<' | b'>' | b'&'))
    {
        let hit = i + j;
        pos.advance_str(&text[i..hit]);
        let ch = bytes[hit] as char;
        let kind = match ch {
            '<' => Some(MetaCharKind::Lt),
            '>' => Some(MetaCharKind::Gt),
            _ => {
                let next = bytes.get(hit + 1).copied();
                let starts_entity = match next {
                    Some(b) if b.is_ascii_alphabetic() => true,
                    Some(b'#') => {
                        let after = bytes.get(hit + 2).copied();
                        matches!(after, Some(b) if b.is_ascii_digit())
                            || (matches!(after, Some(b'x') | Some(b'X'))
                                && matches!(bytes.get(hit + 3), Some(b) if b.is_ascii_hexdigit()))
                    }
                    _ => false,
                };
                (!starts_entity).then_some(MetaCharKind::Amp)
            }
        };
        if let Some(kind) = kind {
            let start = pos;
            let mut end = pos;
            end.advance(ch);
            out.push((kind, Span::new(start, end)));
        }
        pos.advance(ch);
        i = hit + 1;
    }
    out
}

/// The document position of every character boundary of `text`, by
/// per-character [`Pos::advance`] from `base`; `None` inside a character.
fn positions(text: &str, base: Pos) -> Vec<Option<Pos>> {
    let mut at = vec![None; text.len() + 1];
    let mut pos = base;
    for (i, ch) in text.char_indices() {
        at[i] = Some(pos);
        pos.advance(ch);
    }
    at[text.len()] = Some(pos);
    at
}

/// One of `options`, as an owned string.
fn pick(options: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..options.len()).prop_map(move |i| options[i].to_string())
}

/// Text biased toward what the scanners look for.
fn texty() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            8 => proptest::char::range('a', 'z').prop_map(|c| c.to_string()),
            3 => Just(" ".to_string()),
            3 => Just("\n".to_string()),
            3 => Just("&".to_string()),
            3 => Just("<".to_string()),
            3 => Just(">".to_string()),
            2 => Just(";".to_string()),
            2 => Just("&#".to_string()),
            2 => Just("&#x".to_string()),
            2 => Just("&#X".to_string()),
            2 => proptest::char::range('0', '9').prop_map(|c| c.to_string()),
            2 => pick(&["A", "F", "f", "G", "x", "X"]),
            2 => pick(&["&amp;", "&lt", "&eacute;", "&nosuch;", "&#224;", "&#xE0", "&#1114112;", "&T"]),
            2 => pick(&["\u{e9}", "\u{2014}", "\u{65e5}", "\u{1f4a9}"]),
            1 => any::<char>().prop_map(|c| c.to_string()),
        ],
        0..200,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn entities_match_the_position_tracking_scanner(
        text in texty(), line in 1u32..50, col in 1u32..80, offset in 0usize..10_000,
    ) {
        let base = Pos::new(line, col, offset);
        let at = positions(&text, base);
        let oracle = oracle_entities(&text, base);
        let found = scan_entities(&text);
        prop_assert_eq!(found.len(), oracle.len());
        let mut walker = SpanWalker::new(&text, base);
        for (got, want) in found.iter().zip(&oracle) {
            prop_assert_eq!(got.name, want.name);
            prop_assert_eq!(
                (got.numeric, got.hex, got.terminated),
                (want.numeric, want.hex, want.terminated)
            );
            prop_assert_eq!(
                got.range.clone(),
                want.span.start.offset - base.offset..want.span.end.offset - base.offset
            );
            let lazy = walker.span(got.range.clone());
            let per_char = Span::new(at[got.range.start].unwrap(), at[got.range.end].unwrap());
            prop_assert_eq!(lazy, per_char);
            prop_assert_eq!(lazy, want.span);
        }
    }

    #[test]
    fn metachars_match_the_position_tracking_scanner(
        text in texty(), line in 1u32..50, col in 1u32..80, offset in 0usize..10_000,
    ) {
        let base = Pos::new(line, col, offset);
        let at = positions(&text, base);
        let oracle = oracle_metachars(&text, base);
        let found = scan_metachars(&text);
        prop_assert_eq!(found.len(), oracle.len());
        let mut walker = SpanWalker::new(&text, base);
        for (got, (kind, span)) in found.iter().zip(&oracle) {
            prop_assert_eq!(got.kind, *kind);
            prop_assert_eq!(
                got.range.clone(),
                span.start.offset - base.offset..span.end.offset - base.offset
            );
            let lazy = walker.span(got.range.clone());
            let per_char = Span::new(at[got.range.start].unwrap(), at[got.range.end].unwrap());
            prop_assert_eq!(lazy, per_char);
            prop_assert_eq!(lazy, *span);
        }
    }
}
