//! The strict content-model validator — the SP/nsgmls comparator (§3.2).
//!
//! Message wording follows the SGML-parser idiom the paper gently mocks:
//! "document type does not allow element X here", "end tag for element X
//! which is not open". No weblint heuristics: recovery is the classic
//! parser kind, which is exactly what makes one authoring mistake cascade.

use weblint_html::{AttrStatus, ElementStatus, Extensions, HtmlSpec, HtmlVersion};
use weblint_tokenizer::{scan_entities, Quote, Tag, TokenKind, Tokenizer};

use crate::content::{exclusions_for, may_contain, pcdata_allowed};
use crate::finding::{Finding, HtmlChecker};

/// A strict, DTD-style validator.
#[derive(Debug, Clone)]
pub struct StrictValidator {
    spec: HtmlSpec,
}

impl StrictValidator {
    /// Validate against the given HTML version.
    pub fn new(version: HtmlVersion, extensions: Extensions) -> StrictValidator {
        StrictValidator {
            spec: HtmlSpec::new(version, extensions),
        }
    }

    /// Validate a document, returning SGML-flavoured findings.
    pub fn validate(&self, src: &str) -> Vec<Finding> {
        let mut v = Run {
            spec: &self.spec,
            out: Vec::new(),
            stack: Vec::new(),
            seen_doctype: false,
            reported_no_doctype: false,
        };
        for token in Tokenizer::new(src) {
            let line = token.span.start.line;
            match &token.kind {
                TokenKind::Doctype(_) => v.seen_doctype = true,
                TokenKind::StartTag(tag) => v.start_tag(tag, line),
                TokenKind::EndTag(tag) => v.end_tag(tag, line),
                TokenKind::Text(t) if !t.is_raw => v.text(t.raw, line),
                _ => {}
            }
        }
        let eof_line = src.lines().count().max(1) as u32;
        while let Some((name, _)) = v.stack.pop() {
            v.out.push(Finding::new(
                eof_line,
                "eof-in-element",
                format!("document ended inside element \"{}\"", name.to_uppercase()),
            ));
        }
        v.out
    }
}

impl Default for StrictValidator {
    /// HTML 4.0 Transitional, like weblint's default.
    fn default() -> StrictValidator {
        StrictValidator::new(HtmlVersion::Html40Transitional, Extensions::none())
    }
}

impl HtmlChecker for StrictValidator {
    fn name(&self) -> &'static str {
        "strict-validator"
    }

    fn check(&self, src: &str) -> Vec<Finding> {
        self.validate(src)
    }
}

struct Run<'a> {
    spec: &'a HtmlSpec,
    out: Vec<Finding>,
    /// (lower-case name, def known) — unknown elements are *not* pushed,
    /// which is parser behaviour and a source of cascades.
    stack: Vec<(String, &'static weblint_html::ElementDef)>,
    seen_doctype: bool,
    reported_no_doctype: bool,
}

impl Run<'_> {
    fn report(&mut self, line: u32, code: &str, message: String) {
        self.out.push(Finding::new(line, code, message));
    }

    fn require_doctype(&mut self, line: u32) {
        if !self.seen_doctype && !self.reported_no_doctype {
            self.reported_no_doctype = true;
            self.report(
                line,
                "no-doctype",
                "no document type declaration; will parse without validation".to_string(),
            );
        }
    }

    fn start_tag(&mut self, tag: &Tag<'_>, line: u32) {
        self.require_doctype(line);
        let name_lc = tag.name_lc();
        let display = name_lc.to_uppercase();
        let def = match self.spec.element_status(&name_lc) {
            ElementStatus::Active(d) => d,
            _ => {
                self.report(
                    line,
                    "undeclared-element",
                    format!("element \"{display}\" undefined"),
                );
                return;
            }
        };
        // SGML omitted-end-tag inference: close optional-end elements that
        // cannot contain the new one.
        while let Some(&(_, top)) = self.stack.last() {
            if may_contain(top, def) {
                break;
            }
            if top.end_tag_optional() {
                self.stack.pop();
            } else {
                break;
            }
        }
        match self.stack.last() {
            Some(&(_, top)) => {
                if !may_contain(top, def) {
                    self.report(
                        line,
                        "not-allowed-here",
                        format!("document type does not allow element \"{display}\" here"),
                    );
                }
            }
            None => {
                if name_lc != "html" {
                    self.report(
                        line,
                        "not-allowed-here",
                        format!(
                            "document type does not allow element \"{display}\" here; \
                             only \"HTML\" is allowed at top level"
                        ),
                    );
                }
            }
        }
        // Exclusions apply to every open ancestor.
        for (open_name, _) in &self.stack {
            if exclusions_for(open_name).contains(&name_lc.as_str()) {
                let ancestor = open_name.to_uppercase();
                self.report(
                    line,
                    "excluded-element",
                    format!("element \"{display}\" is excluded from the content of \"{ancestor}\""),
                );
                break;
            }
        }
        self.check_attrs(tag, def, line);
        if def.is_container() && !tag.self_closing {
            self.stack.push((name_lc, def));
        }
    }

    fn check_attrs(&mut self, tag: &Tag<'_>, def: &'static weblint_html::ElementDef, line: u32) {
        for attr in &tag.attrs {
            let lc = attr.name_lc();
            match self.spec.attr_status(def, &lc) {
                AttrStatus::Active(adef) => {
                    if let Some(v) = &attr.value {
                        if v.quote == Quote::None && needs_literal(v.raw) {
                            self.report(
                                line,
                                "attr-literal",
                                "an attribute value literal can occur in an attribute \
                                 specification list only after a VI delimiter"
                                    .to_string(),
                            );
                        }
                        if !v.raw.is_empty() && !self.spec.validate_attr_value(adef, v.raw) {
                            self.report(
                                line,
                                "bad-attr-value",
                                format!(
                                    "value of attribute \"{}\" cannot be \"{}\"; must be {}",
                                    lc.to_uppercase(),
                                    v.raw,
                                    adef.constraint.describe()
                                ),
                            );
                        }
                    }
                }
                AttrStatus::Inactive(_) | AttrStatus::Unknown => {
                    self.report(
                        line,
                        "no-such-attribute",
                        format!("there is no attribute \"{}\"", lc.to_uppercase()),
                    );
                }
            }
        }
        for required in def.required_attrs {
            if !tag.has_attr(required) {
                self.report(
                    line,
                    "missing-attr",
                    format!(
                        "required attribute \"{}\" not specified",
                        required.to_uppercase()
                    ),
                );
            }
        }
    }

    fn end_tag(&mut self, tag: &Tag<'_>, line: u32) {
        self.require_doctype(line);
        let name_lc = tag.name_lc();
        let display = name_lc.to_uppercase();
        match self.stack.iter().rposition(|(n, _)| *n == name_lc) {
            Some(index) => {
                while self.stack.len() > index + 1 {
                    let (open, open_def) = self.stack.pop().expect("intervening");
                    if !open_def.end_tag_optional() {
                        self.report(
                            line,
                            "omitted-end-tag",
                            format!(
                                "end tag for \"{}\" omitted, but its declaration \
                                 does not permit this",
                                open.to_uppercase()
                            ),
                        );
                    }
                }
                self.stack.pop();
            }
            None => {
                self.report(
                    line,
                    "not-open",
                    format!("end tag for element \"{display}\" which is not open"),
                );
            }
        }
    }

    fn text(&mut self, raw: &str, line: u32) {
        if !raw.trim().is_empty() {
            if let Some(&(_, top)) = self.stack.last() {
                if !pcdata_allowed(top) {
                    self.report(
                        line,
                        "pcdata-not-allowed",
                        "character data is not allowed here".to_string(),
                    );
                }
            }
        }
        for entity in scan_entities(raw) {
            if entity.numeric {
                continue;
            }
            if entity.terminated && self.spec.entity(entity.name).is_none() {
                self.report(
                    line,
                    "undefined-entity",
                    format!(
                        "general entity \"{}\" not defined and no default entity",
                        entity.name
                    ),
                );
            }
        }
    }
}

/// Unquoted values must contain only name characters under SGML rules.
fn needs_literal(value: &str) -> bool {
    !value.is_empty()
        && !value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        StrictValidator::default()
            .validate(src)
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    const CLEAN: &str = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
        <HTML><HEAD><TITLE>t</TITLE></HEAD>\n\
        <BODY><H1>h</H1><P>text</P></BODY></HTML>\n";

    #[test]
    fn clean_document_validates() {
        assert_eq!(codes(CLEAN), Vec::<String>::new());
    }

    #[test]
    fn missing_doctype_reported_once() {
        let found = codes("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</P></BODY></HTML>");
        assert_eq!(found, vec!["no-doctype"]);
    }

    #[test]
    fn undeclared_element() {
        let src = CLEAN.replace("<P>text</P>", "<BLOCKQOUTE>x</BLOCKQOUTE>");
        let found = codes(&src);
        assert!(
            found.contains(&"undeclared-element".to_string()),
            "{found:?}"
        );
        // The close tag of the undeclared element also errors: cascade.
        assert!(found.contains(&"not-open".to_string()), "{found:?}");
    }

    #[test]
    fn block_in_paragraph_not_allowed() {
        // H2 has a required end tag, so no omission can be inferred and the
        // DIV is a hard content-model violation.
        let src = CLEAN.replace("<P>text</P>", "<H2><DIV>x</DIV>oops</H2>");
        let found = codes(&src);
        assert!(found.contains(&"not-allowed-here".to_string()), "{found:?}");
    }

    #[test]
    fn block_in_p_infers_omitted_end() {
        // P is optional-end: SGML infers </P> before the DIV, leaving the
        // explicit </P> dangling — cryptic, but correct parser behaviour.
        let src = CLEAN.replace("<P>text</P>", "<P><DIV>x</DIV>oops</P>");
        assert_eq!(codes(&src), vec!["not-open"]);
    }

    #[test]
    fn text_in_table_not_allowed() {
        let src = CLEAN.replace(
            "<P>text</P>",
            "<TABLE>loose text<TR><TD>x</TD></TR></TABLE>",
        );
        assert!(codes(&src).contains(&"pcdata-not-allowed".to_string()));
    }

    #[test]
    fn overlap_cascades() {
        let src = CLEAN.replace("<P>text</P>", "<P><B><I>x</B></I></P>");
        let found = codes(&src);
        // </B> forces I closed with an error, then </I> is not open:
        // one mistake, two messages — the contrast with weblint's one.
        assert!(found.contains(&"omitted-end-tag".to_string()), "{found:?}");
        assert!(found.contains(&"not-open".to_string()), "{found:?}");
    }

    #[test]
    fn nested_anchor_excluded() {
        let src = CLEAN.replace(
            "<P>text</P>",
            "<P><A HREF=\"x\">a<A HREF=\"y\">b</A></A></P>",
        );
        assert!(codes(&src).contains(&"excluded-element".to_string()));
    }

    #[test]
    fn attribute_messages() {
        let src = CLEAN.replace("<P>text</P>", "<P BLARG=\"x\">text</P>");
        assert!(codes(&src).contains(&"no-such-attribute".to_string()));
        let src = CLEAN.replace("<P>text</P>", "<TEXTAREA NAME=\"t\">x</TEXTAREA>");
        let found = codes(&src);
        assert_eq!(
            found.iter().filter(|c| *c == "missing-attr").count(),
            2,
            "{found:?}"
        );
    }

    #[test]
    fn unquoted_literal_value() {
        let src = CLEAN.replace("<P>text</P>", "<P><A HREF=a/b.html>x</A></P>");
        assert!(codes(&src).contains(&"attr-literal".to_string()));
    }

    #[test]
    fn eof_inside_element() {
        let found = codes("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P><B>x");
        assert!(found.contains(&"eof-in-element".to_string()), "{found:?}");
    }

    #[test]
    fn undefined_entity() {
        let src = CLEAN.replace("<P>text</P>", "<P>&fooby;</P>");
        assert!(codes(&src).contains(&"undefined-entity".to_string()));
    }

    #[test]
    fn omitted_end_tags_are_inferred() {
        // <P> before a block element closes silently, as the DTD allows.
        let src = CLEAN.replace("<P>text</P>", "<P>one<P>two<UL><LI>a<LI>b</UL>");
        assert_eq!(codes(&src), Vec::<String>::new());
    }
}
