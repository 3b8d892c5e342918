//! The htmlchek-style line checker — the §3.3 comparator.
//!
//! htmlchek was "a perl script (also available in awk) which performs
//! syntax checking similar to weblint". Its essence: per-tag pattern
//! checks plus whole-file open/close *counting*, with no element stack.
//! It catches token-local mistakes and count imbalances, but anything that
//! depends on nesting *order* — overlapping elements, heading pairs closed
//! at the wrong level in a document with other headings, context rules —
//! is invisible to it.

use std::collections::HashMap;

use weblint_html::{AttrStatus, ElementStatus, Extensions, HtmlSpec, HtmlVersion};
use weblint_tokenizer::{scan_entities, scan_metachars, MetaCharKind, Quote, TokenKind, Tokenizer};

use crate::finding::{Finding, HtmlChecker};

/// A stack-less, htmlchek-style checker.
#[derive(Debug, Clone)]
pub struct RegexChecker {
    spec: HtmlSpec,
}

impl RegexChecker {
    /// A checker for HTML 4.0 Transitional.
    pub fn new() -> RegexChecker {
        RegexChecker::with_version(HtmlVersion::Html40Transitional, Extensions::none())
    }

    /// A checker for an explicit version.
    pub fn with_version(version: HtmlVersion, extensions: Extensions) -> RegexChecker {
        RegexChecker {
            spec: HtmlSpec::new(version, extensions),
        }
    }

    /// Run the tag-local and counting checks.
    pub fn run(&self, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        // (opens, closes, first line) per container element name.
        let mut counts: HashMap<String, (i64, i64, u32)> = HashMap::new();
        for token in Tokenizer::new(src) {
            let line = token.span.start.line;
            match &token.kind {
                TokenKind::StartTag(tag) => {
                    let name_lc = tag.name_lc();
                    if tag.odd_quotes {
                        out.push(Finding::new(
                            line,
                            "odd-quotes",
                            format!("odd number of quotes in <{}> tag", tag.name),
                        ));
                    }
                    match self.spec.element_status(&name_lc) {
                        ElementStatus::Active(def) => {
                            self.check_tag_attrs(tag, def, line, &mut out);
                            if def.is_container() && def.end_tag == weblint_html::EndTag::Required {
                                let entry = counts.entry(name_lc).or_insert((0, 0, line));
                                entry.0 += 1;
                            }
                        }
                        _ => {
                            out.push(Finding::new(
                                line,
                                "unknown-tag",
                                format!("<{}> is not a known tag", tag.name),
                            ));
                        }
                    }
                }
                TokenKind::EndTag(tag) => {
                    let name_lc = tag.name_lc();
                    if let ElementStatus::Active(def) = self.spec.element_status(&name_lc) {
                        if def.is_container() && def.end_tag == weblint_html::EndTag::Required {
                            let entry = counts.entry(name_lc).or_insert((0, 0, line));
                            entry.1 += 1;
                        }
                    }
                }
                TokenKind::Text(t) if !t.is_raw => {
                    self.check_text(t.raw, line, &mut out);
                }
                _ => {}
            }
        }
        // Whole-file count imbalances, htmlchek's signature report.
        let mut names: Vec<_> = counts.iter().collect();
        names.sort_by_key(|(name, _)| name.as_str());
        for (name, &(opens, closes, first_line)) in names {
            if opens != closes {
                out.push(Finding::new(
                    first_line,
                    "count-mismatch",
                    format!(
                        "{opens} <{up}> tag(s) but {closes} </{up}> tag(s)",
                        up = name.to_uppercase()
                    ),
                ));
            }
        }
        out
    }

    fn check_tag_attrs(
        &self,
        tag: &weblint_tokenizer::Tag<'_>,
        def: &'static weblint_html::ElementDef,
        line: u32,
        out: &mut Vec<Finding>,
    ) {
        for attr in &tag.attrs {
            let lc = attr.name_lc();
            match self.spec.attr_status(def, &lc) {
                AttrStatus::Active(adef) => {
                    if let Some(v) = &attr.value {
                        if v.quote == Quote::None && v.raw.contains(['#', '/', ':', '?']) {
                            out.push(Finding::new(
                                line,
                                "unquoted-value",
                                format!("value of {} should be quoted", attr.name),
                            ));
                        }
                        if v.quote == Quote::Single {
                            out.push(Finding::new(
                                line,
                                "single-quotes",
                                format!("single-quoted value for {}", attr.name),
                            ));
                        }
                        if !v.raw.is_empty() && !self.spec.validate_attr_value(adef, v.raw) {
                            out.push(Finding::new(
                                line,
                                "bad-value",
                                format!("bad value \"{}\" for {}", v.raw, attr.name),
                            ));
                        }
                    }
                }
                _ => {
                    out.push(Finding::new(
                        line,
                        "unknown-attr",
                        format!("{} is not a known attribute of <{}>", attr.name, tag.name),
                    ));
                }
            }
        }
        for required in def.required_attrs {
            if !tag.has_attr(required) {
                out.push(Finding::new(
                    line,
                    "missing-attr",
                    format!("<{}> needs {}", tag.name, required.to_uppercase()),
                ));
            }
        }
        if def.name == "img" && !tag.has_attr("alt") {
            out.push(Finding::new(line, "no-alt", "IMG without ALT".to_string()));
        }
    }

    fn check_text(&self, raw: &str, line: u32, out: &mut Vec<Finding>) {
        for entity in scan_entities(raw) {
            if !entity.numeric && entity.terminated && self.spec.entity(entity.name).is_none() {
                out.push(Finding::new(
                    line,
                    "unknown-entity",
                    format!("unknown entity &{};", entity.name),
                ));
            }
        }
        for hit in scan_metachars(raw) {
            if hit.kind == MetaCharKind::Lt {
                out.push(Finding::new(
                    line,
                    "loose-lt",
                    "unescaped < in text".to_string(),
                ));
            }
        }
    }
}

impl Default for RegexChecker {
    fn default() -> RegexChecker {
        RegexChecker::new()
    }
}

impl HtmlChecker for RegexChecker {
    fn name(&self) -> &'static str {
        "htmlchek-style"
    }

    fn check(&self, src: &str) -> Vec<Finding> {
        self.run(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        RegexChecker::new()
            .run(src)
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    const CLEAN: &str = "<HTML><HEAD><TITLE>t</TITLE></HEAD>\n\
                         <BODY><H1>h</H1><P>text</P></BODY></HTML>\n";

    #[test]
    fn clean_page_is_quiet() {
        // Note: no doctype check at all — htmlchek predates DOCTYPE zeal.
        assert_eq!(codes(CLEAN), Vec::<String>::new());
    }

    #[test]
    fn catches_token_local_mistakes() {
        assert!(codes("<BLOCKQOUTE>x</BLOCKQOUTE>").contains(&"unknown-tag".to_string()));
        assert!(codes("<P ZZZ=1>x</P>").contains(&"unknown-attr".to_string()));
        assert!(codes("<IMG SRC=\"x.gif\">").contains(&"no-alt".to_string()));
        assert!(codes("<A HREF=a/b.html>x</A>").contains(&"unquoted-value".to_string()));
        assert!(codes("<P>1 < 2</P>").contains(&"loose-lt".to_string()));
        assert!(codes("<P>&zzz;</P>").contains(&"unknown-entity".to_string()));
    }

    #[test]
    fn catches_count_imbalance() {
        let found = codes("<B>unclosed bold");
        assert!(found.contains(&"count-mismatch".to_string()), "{found:?}");
    }

    #[test]
    fn blind_to_overlap() {
        // The defining weakness: overlapping but balanced markup passes.
        assert_eq!(codes("<P><B><I>x</B></I></P>"), Vec::<String>::new());
    }

    #[test]
    fn blind_to_context() {
        // An LI outside any list balances, so nothing fires.
        assert_eq!(codes("<LI>loose</LI>"), Vec::<String>::new());
    }

    #[test]
    fn optional_end_tags_not_counted() {
        // <P> without </P> is fine — counting them would drown in noise.
        assert_eq!(codes("<P>one<P>two"), Vec::<String>::new());
    }
}
