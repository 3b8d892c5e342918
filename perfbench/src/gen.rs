//! Seeded input generators. The program under test only ever sees the
//! bytes these produce; the same seed always yields the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weblint_core::LintSession;
use weblint_corpus::{all_defect_classes, generate_document, DefectClass};

/// Derive an independent generator for item `index` of stream `stream`.
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ index.wrapping_mul(0x94D0_49BB_1331_11EB),
    )
}

/// `count` sizes spaced evenly on a log scale from `lo` to `hi` bytes.
/// Every seed gets the same size ladder, so a run's mix of page sizes —
/// and with it every per-page percentile — does not move with the seed;
/// only the content does.
pub fn log_sizes(count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    (0..count)
        .map(|i| {
            let t = i as f64 / (count.max(2) - 1) as f64;
            (l + (h - l) * t).exp().round() as usize
        })
        .collect()
}

/// The defect classes pages are planted with: every class whose snippet
/// names only elements and attributes the HTML tables know. Unknown names
/// go through the engine's side intern, which is the `hostile`
/// workload's subject; keeping them out of the pages keeps the workloads
/// apart.
pub fn page_defects() -> Vec<DefectClass> {
    all_defect_classes()
        .iter()
        .copied()
        .filter(|class| {
            let mut session = LintSession::new();
            session.check_string(&format!("<HTML><BODY>{}</BODY></HTML>", class.snippet()));
            session.fallback_interns() == 0
        })
        .collect()
}

/// A valid generated document of about `bytes` with one to three planted
/// defects drawn from `classes`.
pub fn defective_page(
    seed: u64,
    stream: u64,
    index: u64,
    bytes: usize,
    classes: &[DefectClass],
) -> String {
    let mut rng = rng_for(seed, stream, index);
    let mut doc = generate_document(rng.random_range(0..u64::MAX), bytes);
    for _ in 0..rng.random_range(1..=3usize) {
        let class = classes[rng.random_range(0..classes.len())];
        doc = class.inject(&doc, &mut rng);
    }
    doc
}

/// The `corpus` workload's pages: 96 generated pages from 1 KiB to
/// 256 KiB, each with planted defects, named `p<i>.html`.
pub fn corpus_pages(seed: u64) -> Vec<(String, String)> {
    let classes = page_defects();
    log_sizes(96, 1 << 10, 256 << 10)
        .into_iter()
        .enumerate()
        .map(|(i, size)| {
            (
                format!("p{i}.html"),
                defective_page(seed, 1, i as u64, size, &classes),
            )
        })
        .collect()
}

/// The hostile shapes, one per adversarial finding.
pub const SHAPES: [&str; 8] = [
    "unknown_elements",
    "unknown_attributes",
    "stray_closes",
    "open_script",
    "open_comment",
    "open_quote",
    "deep_nesting",
    "wide_attributes",
];

/// The size each shape is generated at: a name count, a byte count, a
/// nesting depth or an attribute count. Each sits where the seed
/// commit's superlinear cost already dominates the run time.
pub fn shape_size(shape: &str) -> usize {
    match shape {
        "unknown_elements" => 1_500,
        "unknown_attributes" | "stray_closes" => 2_500,
        "open_script" => 256 << 10,
        "open_comment" => 1 << 20,
        "open_quote" => 512 << 10,
        "deep_nesting" => 40_000,
        "wide_attributes" => 12_000,
        _ => panic!("unknown shape {shape}"),
    }
}

/// `count` distinct element or attribute names, none of them in the HTML
/// tables: a seeded three-letter prefix, then the index in base 26,
/// shuffled.
pub fn distinct_names(seed: u64, stream: u64, count: usize) -> Vec<String> {
    let mut rng = rng_for(seed, stream, 0);
    let prefix: String = (0..3)
        .map(|_| char::from(b'A' + rng.random_range(0..26u8)))
        .collect();
    let mut names: Vec<String> = (0..count)
        .map(|i| {
            let mut n = i;
            let mut name = format!("X{prefix}");
            loop {
                name.push(char::from(b'A' + (n % 26) as u8));
                n /= 26;
                if n == 0 {
                    break name;
                }
            }
        })
        .collect();
    for i in (1..names.len()).rev() {
        names.swap(i, rng.random_range(0..=i));
    }
    names
}

/// Seeded filler text with no markup characters, quotes or dashes, so it
/// can sit inside a comment, script or quoted value without ending it.
fn filler(rng: &mut StdRng, bytes: usize, line: &dyn Fn(&mut StdRng) -> String) -> String {
    let mut out = String::with_capacity(bytes + 64);
    while out.len() < bytes {
        out.push_str(&line(rng));
    }
    out.truncate(bytes);
    out
}

fn word(rng: &mut StdRng) -> String {
    (0..rng.random_range(2..9usize))
        .map(|_| char::from(b'a' + rng.random_range(0..26u8)))
        .collect()
}

/// Generate one hostile input of the given shape at `size`.
pub fn hostile_input(shape: &str, seed: u64, size: usize) -> String {
    let stream = 100
        + SHAPES
            .iter()
            .position(|s| *s == shape)
            .expect("known shape") as u64;
    let mut rng = rng_for(seed, stream, 1);
    let head = "<HTML><HEAD><TITLE>hostile</TITLE></HEAD><BODY>\n";
    let mut doc = String::from(head);
    match shape {
        "unknown_elements" => {
            for (i, name) in distinct_names(seed, stream, size).iter().enumerate() {
                doc.push_str(&format!("<{name}>"));
                if i % 8 == 7 {
                    doc.push('\n');
                }
            }
        }
        "unknown_attributes" => {
            for name in distinct_names(seed, stream, size) {
                doc.push_str(&format!("<SPAN {name}=\"{}\">t</SPAN>\n", word(&mut rng)));
            }
        }
        "stray_closes" => {
            for (i, name) in distinct_names(seed, stream, size).iter().enumerate() {
                doc.push_str(&format!("</{name}>"));
                if i % 8 == 7 {
                    doc.push('\n');
                }
            }
        }
        "open_script" => {
            doc.push_str("<SCRIPT TYPE=\"text/javascript\">\n");
            doc.push_str(&filler(&mut rng, size, &|r| {
                format!(
                    "var {} = {} < {};\n",
                    word(r),
                    word(r),
                    r.random_range(0..999u32)
                )
            }));
        }
        "open_comment" => {
            doc.push_str("<!-- ");
            doc.push_str(&filler(&mut rng, size, &|r| {
                format!("{} {}\n", word(r), word(r))
            }));
        }
        "open_quote" => {
            doc.push_str("<A HREF=\"");
            doc.push_str(&filler(&mut rng, size, &|r| {
                format!("{} {}\n", word(r), word(r))
            }));
        }
        "deep_nesting" => {
            doc.push_str(&"<DIV>".repeat(size));
            doc.push_str(&word(&mut rng));
            doc.push_str(&"</DIV>".repeat(size));
            doc.push_str("\n</BODY></HTML>\n");
        }
        "wide_attributes" => {
            const ATTRS: [&str; 8] = [
                "ALT", "ALIGN", "BORDER", "HEIGHT", "WIDTH", "HSPACE", "VSPACE", "NAME",
            ];
            doc.push_str("<IMG SRC=\"a.gif\"");
            for i in 0..size {
                doc.push_str(&format!(
                    " {}=\"{}\"",
                    ATTRS[i % ATTRS.len()],
                    word(&mut rng)
                ));
                if i % 6 == 5 {
                    doc.push('\n');
                }
            }
            doc.push_str(">\n</BODY></HTML>\n");
        }
        _ => panic!("unknown shape {shape}"),
    }
    doc
}

/// The placeholder a `serve` page carries so each request can be made
/// unique by rewriting ten digits: the rewrite changes no line, column or
/// diagnostic, so one precomputed report serves every variant.
pub const UNIQUE_MARK: &str = "uniq-0000000000";

/// Rewrite a pool page's placeholder to request id `id`.
pub fn make_unique(text: &str, id: u64) -> String {
    text.replace(UNIQUE_MARK, &format!("uniq-{:010}", id % 10_000_000_000))
}

/// A `serve` pool page of about `bytes` with planted defects and the
/// uniqueness placeholder in a comment right after `<BODY>`.
pub fn serve_page(
    seed: u64,
    stream: u64,
    index: u64,
    bytes: usize,
    classes: &[DefectClass],
) -> String {
    let page = defective_page(seed, stream, index, bytes, classes);
    match page.find("<BODY>") {
        Some(at) => {
            let cut = at + "<BODY>".len();
            format!("{}<!-- {UNIQUE_MARK} -->{}", &page[..cut], &page[cut..])
        }
        None => format!("<!-- {UNIQUE_MARK} -->\n{page}"),
    }
}

/// `count` pages for pool `stream`, sized on the [`log_sizes`] ladder
/// from `lo` to `hi` bytes so every seed gets the same sizes.
pub fn serve_pool(seed: u64, stream: u64, count: usize, lo: usize, hi: usize) -> Vec<String> {
    let classes = page_defects();
    log_sizes(count, lo, hi)
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| serve_page(seed, stream, i as u64, bytes, &classes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_tokenizer::{TokenKind, Tokenizer};

    const SMALL: usize = 300;

    fn small_size(shape: &str) -> usize {
        match shape {
            "open_script" | "open_comment" | "open_quote" => 8 << 10,
            _ => SMALL,
        }
    }

    #[test]
    fn every_generator_is_deterministic_per_seed() {
        assert_eq!(corpus_pages(7), corpus_pages(7));
        assert_ne!(corpus_pages(7), corpus_pages(8));
        for shape in SHAPES {
            let n = small_size(shape);
            assert_eq!(
                hostile_input(shape, 7, n),
                hostile_input(shape, 7, n),
                "{shape}"
            );
        }
        assert_eq!(
            serve_pool(7, 1, 4, 4096, 8192),
            serve_pool(7, 1, 4, 4096, 8192)
        );
        assert_eq!(distinct_names(7, 1, 50), distinct_names(7, 1, 50));
        assert_ne!(distinct_names(7, 1, 50), distinct_names(8, 1, 50));
    }

    #[test]
    fn pages_never_reach_the_side_intern() {
        let classes = page_defects();
        assert!(classes.len() >= 20, "{} classes", classes.len());
        let mut session = LintSession::new();
        for (_, page) in corpus_pages(11) {
            session.check_string(&page);
        }
        assert_eq!(session.fallback_interns(), 0);
    }

    #[test]
    fn corpus_sizes_span_the_ladder() {
        let pages = corpus_pages(3);
        assert_eq!(pages.len(), 96);
        let sizes = log_sizes(96, 1 << 10, 256 << 10);
        assert_eq!((sizes[0], sizes[95]), (1 << 10, 256 << 10));
        for ((_, page), size) in pages.iter().zip(sizes) {
            assert!(page.len() + 64 >= size / 2, "{} vs {size}", page.len());
        }
    }

    /// Names of the open and close tags in `doc`, in order.
    fn tag_names(doc: &str, close: bool) -> Vec<String> {
        Tokenizer::new(doc)
            .filter_map(|t| match t.kind {
                TokenKind::StartTag(tag) if !close => Some(tag.name.to_string()),
                TokenKind::EndTag(tag) if close => Some(tag.name.to_string()),
                _ => None,
            })
            .collect()
    }

    fn distinct(names: &[String]) -> usize {
        let mut sorted = names.to_vec();
        sorted.sort();
        sorted.dedup();
        sorted.len()
    }

    #[test]
    fn unknown_shapes_carry_n_distinct_unknown_names() {
        let session = weblint_core::LintSession::new();
        let doc = hostile_input("unknown_elements", 5, SMALL);
        let opened: Vec<String> = tag_names(&doc, false)
            .into_iter()
            .filter(|n| n.starts_with('X'))
            .collect();
        assert_eq!((opened.len(), distinct(&opened)), (SMALL, SMALL));
        assert!(
            opened
                .iter()
                .all(|n| session.spec().element_any(n).is_none()),
            "a name is known"
        );

        let doc = hostile_input("stray_closes", 5, SMALL);
        let closed: Vec<String> = tag_names(&doc, true)
            .into_iter()
            .filter(|n| n.starts_with('X'))
            .collect();
        assert_eq!((closed.len(), distinct(&closed)), (SMALL, SMALL));

        let doc = hostile_input("unknown_attributes", 5, SMALL);
        let attrs: Vec<String> = Tokenizer::new(&doc)
            .filter_map(|t| match t.kind {
                TokenKind::StartTag(tag) if tag.name == "SPAN" => Some(
                    tag.attrs
                        .iter()
                        .map(|a| a.name.to_string())
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!((attrs.len(), distinct(&attrs)), (SMALL, SMALL));
    }

    #[test]
    fn open_shapes_stay_unterminated_to_eof() {
        let script = hostile_input("open_script", 9, 8 << 10);
        let body = &script[script.find("<SCRIPT").expect("script open")..];
        assert!(!body.contains("</"), "script body closes");
        let comment = hostile_input("open_comment", 9, 8 << 10);
        let body = &comment[comment.find("<!--").expect("comment open") + 4..];
        assert!(
            !body.contains("--") && !body.contains('>'),
            "comment closes"
        );
        let quote = hostile_input("open_quote", 9, 8 << 10);
        let body = &quote[quote.find("HREF=\"").expect("quote open") + 6..];
        assert!(!body.contains('"') && !body.contains('>'), "quote closes");
        for doc in [&script, &comment, &quote] {
            assert!(doc.len() >= 8 << 10);
        }
    }

    #[test]
    fn deep_nesting_reaches_the_stated_depth() {
        let doc = hostile_input("deep_nesting", 2, SMALL);
        let mut depth = 0usize;
        let mut deepest = 0usize;
        for token in Tokenizer::new(&doc) {
            match token.kind {
                TokenKind::StartTag(tag) if tag.name == "DIV" => depth += 1,
                TokenKind::EndTag(tag) if tag.name == "DIV" => depth -= 1,
                _ => {}
            }
            deepest = deepest.max(depth);
        }
        assert_eq!((deepest, depth), (SMALL, 0));
    }

    #[test]
    fn wide_attributes_builds_one_tag_with_the_stated_width() {
        let doc = hostile_input("wide_attributes", 2, SMALL);
        let widths: Vec<usize> = Tokenizer::new(&doc)
            .filter_map(|t| match t.kind {
                TokenKind::StartTag(tag) if tag.name == "IMG" => Some(tag.attrs.len()),
                _ => None,
            })
            .collect();
        assert_eq!(widths, vec![SMALL + 1]);
    }

    #[test]
    fn unique_rewrite_keeps_length_and_lines() {
        let page = serve_page(4, 1, 0, 4096, &page_defects());
        assert_eq!(page.matches(UNIQUE_MARK).count(), 1);
        let unique = make_unique(&page, 42);
        assert_eq!(unique.len(), page.len());
        assert_eq!(unique.lines().count(), page.lines().count());
        assert_ne!(unique, page);
    }
}
