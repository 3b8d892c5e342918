//! Adversarial documents: inputs shaped to make a linter superlinear.
//!
//! Each [`Shape`] repeats one construct that a naive engine or stream
//! tokenizer handles in more than linear time — a lookup that scans every
//! name seen so far, a check that walks the whole element stack, a
//! streamed token whose unterminated carry is re-scanned on every feed.
//! `size` is the construct's count (names, depth, attributes) or its byte
//! length, so doubling `size` doubles the document and should at most
//! double the lint time. `tests/linear_time.rs` checks exactly that.
//!
//! # Examples
//!
//! ```
//! use weblint_corpus::adversarial::{adversarial, Shape};
//!
//! let doc = adversarial(Shape::DeepNesting, 100, 7);
//! assert_eq!(doc.matches("<DIV>").count(), 100);
//! assert_eq!(doc, adversarial(Shape::DeepNesting, 100, 7));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{word, words};

/// One adversarial construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `size` distinct unknown element names, `<XQZKA><XQZKB>…`: each one
    /// is side-interned and gets a typo-suggestion search.
    UnknownElements,
    /// `size` distinct unknown attribute names, one per `<SPAN>`.
    UnknownAttributes,
    /// `size` distinct unknown end tags with nothing open to match.
    StrayCloses,
    /// A `<SCRIPT>` body of `size` bytes that is never closed.
    OpenScript,
    /// A comment of `size` bytes that is never closed.
    OpenComment,
    /// A quoted attribute value of `size` bytes that is never closed.
    OpenQuote,
    /// `size` nested `<DIV>`s, then their `size` end tags.
    DeepNesting,
    /// One `<IMG>` tag with `size` attributes.
    WideAttributes,
    /// `size` nested `<DIV>`s holding `size` complete `<A HREF>` links.
    DeepAnchors,
    /// `size` nested `<DIV>`s holding `size` complete `<H2>` headings.
    DeepHeadings,
    /// `size` nested `<DIV>`s holding `size` misplaced `<META>` tags.
    DeepMeta,
    /// `size` nested `<DIV>`s followed by `size` stray `</SPAN>`s.
    DeepStrayCloses,
    /// `size` `<B>`s parked on the unresolved stack by an overlapping
    /// `</DIV>`, then `size` stray `</I>`s and the `size` `</B>`s.
    ParkedStrayCloses,
}

impl Shape {
    /// Every shape, in declaration order.
    pub const ALL: [Shape; 13] = [
        Shape::UnknownElements,
        Shape::UnknownAttributes,
        Shape::StrayCloses,
        Shape::OpenScript,
        Shape::OpenComment,
        Shape::OpenQuote,
        Shape::DeepNesting,
        Shape::WideAttributes,
        Shape::DeepAnchors,
        Shape::DeepHeadings,
        Shape::DeepMeta,
        Shape::DeepStrayCloses,
        Shape::ParkedStrayCloses,
    ];

    /// A short snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Shape::UnknownElements => "unknown_elements",
            Shape::UnknownAttributes => "unknown_attributes",
            Shape::StrayCloses => "stray_closes",
            Shape::OpenScript => "open_script",
            Shape::OpenComment => "open_comment",
            Shape::OpenQuote => "open_quote",
            Shape::DeepNesting => "deep_nesting",
            Shape::WideAttributes => "wide_attributes",
            Shape::DeepAnchors => "deep_anchors",
            Shape::DeepHeadings => "deep_headings",
            Shape::DeepMeta => "deep_meta",
            Shape::DeepStrayCloses => "deep_stray_closes",
            Shape::ParkedStrayCloses => "parked_stray_closes",
        }
    }

    /// Whether `size` counts bytes (the unterminated shapes) rather than
    /// names, levels or attributes.
    pub fn sized_in_bytes(self) -> bool {
        matches!(
            self,
            Shape::OpenScript | Shape::OpenComment | Shape::OpenQuote
        )
    }
}

/// Build the document for `shape` at `size`, deterministically from `seed`.
pub fn adversarial(shape: Shape, size: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = String::from("<HTML><HEAD><TITLE>adversarial</TITLE></HEAD><BODY>\n");
    let deep = |doc: &mut String, inner: &dyn Fn(&mut String)| {
        doc.push_str(&"<DIV>".repeat(size));
        for _ in 0..size {
            inner(doc);
        }
        doc.push_str(&"</DIV>".repeat(size));
    };
    match shape {
        Shape::UnknownElements => {
            for (i, name) in distinct_names(&mut rng, size).iter().enumerate() {
                doc.push_str(&format!("<{name}>"));
                line_break(&mut doc, i);
            }
        }
        Shape::UnknownAttributes => {
            for name in distinct_names(&mut rng, size) {
                let value = word(&mut rng);
                doc.push_str(&format!("<SPAN {name}=\"{value}\">t</SPAN>\n"));
            }
        }
        Shape::StrayCloses => {
            for (i, name) in distinct_names(&mut rng, size).iter().enumerate() {
                doc.push_str(&format!("</{name}>"));
                line_break(&mut doc, i);
            }
        }
        Shape::OpenScript => {
            doc.push_str("<SCRIPT TYPE=\"text/javascript\">\n");
            filler(&mut doc, &mut rng, size, |rng| {
                format!(
                    "var {} = {} < {};\n",
                    word(rng),
                    word(rng),
                    rng.random_range(0..999u32)
                )
            });
        }
        Shape::OpenComment => {
            doc.push_str("<!-- ");
            filler(&mut doc, &mut rng, size, |rng| {
                format!("{}\n", words(rng, 2))
            });
        }
        Shape::OpenQuote => {
            doc.push_str("<A HREF=\"");
            filler(&mut doc, &mut rng, size, |rng| {
                format!("{}\n", words(rng, 2))
            });
        }
        Shape::DeepNesting => deep(&mut doc, &|_| {}),
        Shape::WideAttributes => {
            const ATTRS: [&str; 8] = [
                "ALT", "ALIGN", "BORDER", "HEIGHT", "WIDTH", "HSPACE", "VSPACE", "NAME",
            ];
            doc.push_str("<IMG SRC=\"a.gif\"");
            for i in 0..size {
                let value = word(&mut rng);
                doc.push_str(&format!(" {}=\"{value}\"", ATTRS[i % ATTRS.len()]));
                if i % 6 == 5 {
                    doc.push('\n');
                }
            }
            doc.push_str(">\n");
        }
        Shape::DeepAnchors => deep(&mut doc, &|doc| doc.push_str("<A HREF=\"#top\">top</A>\n")),
        Shape::DeepHeadings => deep(&mut doc, &|doc| doc.push_str("<H2>Part</H2>\n")),
        Shape::DeepMeta => deep(&mut doc, &|doc| {
            doc.push_str("<META NAME=\"keywords\" CONTENT=\"lint\">\n")
        }),
        Shape::DeepStrayCloses => {
            doc.push_str(&"<DIV>".repeat(size));
            for i in 0..size {
                doc.push_str("</SPAN>");
                line_break(&mut doc, i);
            }
        }
        Shape::ParkedStrayCloses => {
            doc.push_str("<DIV>");
            doc.push_str(&"<B>".repeat(size));
            doc.push_str("</DIV>\n");
            for i in 0..size {
                doc.push_str("</I>");
                line_break(&mut doc, i);
            }
            doc.push_str(&"</B>".repeat(size));
        }
    }
    if !shape.sized_in_bytes() {
        doc.push_str("\n</BODY></HTML>\n");
    }
    doc
}

/// `count` distinct element or attribute names, none in the HTML tables:
/// `X`, a seeded three-letter prefix, then the index in base 26.
fn distinct_names(rng: &mut StdRng, count: usize) -> Vec<String> {
    let prefix: String = (0..3)
        .map(|_| char::from(b'A' + rng.random_range(0..26u8)))
        .collect();
    (0..count)
        .map(|i| {
            let mut name = format!("X{prefix}");
            let mut n = i;
            loop {
                name.push(char::from(b'A' + (n % 26) as u8));
                n /= 26;
                if n == 0 {
                    break name;
                }
            }
        })
        .collect()
}

/// Break the line after every eighth construct so line numbers grow too.
fn line_break(doc: &mut String, i: usize) {
    if i % 8 == 7 {
        doc.push('\n');
    }
}

/// Append `bytes` bytes of seeded lines free of markup, quotes and dashes,
/// so they can sit inside a comment, script or quoted value without ending
/// it.
fn filler(doc: &mut String, rng: &mut StdRng, bytes: usize, line: impl Fn(&mut StdRng) -> String) {
    let end = doc.len() + bytes;
    while doc.len() < end {
        doc.push_str(&line(rng));
    }
    doc.truncate(end);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_is_deterministic_and_grows_with_size() {
        for shape in Shape::ALL {
            let small = adversarial(shape, 500, 3);
            assert_eq!(small, adversarial(shape, 500, 3), "{}", shape.name());
            let large = adversarial(shape, 1000, 3);
            assert!(large.len() > small.len() * 3 / 2, "{}", shape.name());
        }
    }

    #[test]
    fn byte_sized_shapes_stay_unterminated() {
        let script = adversarial(Shape::OpenScript, 4096, 1);
        assert!(!script.to_ascii_lowercase().contains("</script"));
        let comment = adversarial(Shape::OpenComment, 4096, 1);
        assert!(!comment.contains("-->") && !comment[60..].contains("--"));
        let quote = adversarial(Shape::OpenQuote, 4096, 1);
        let value = &quote[quote.find("HREF=\"").unwrap() + 6..];
        assert!(!value.contains(['"', '<', '>']));
        assert_eq!(value.len(), 4096);
    }

    #[test]
    fn names_are_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut names = distinct_names(&mut rng, 2000);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 2000);
    }

    #[test]
    fn wide_tag_carries_every_attribute() {
        let doc = adversarial(Shape::WideAttributes, 500, 2);
        assert_eq!(doc.matches("=\"").count(), 501);
    }
}
