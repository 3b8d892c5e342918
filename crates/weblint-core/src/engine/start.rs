//! Start-tag handling: element checks, attribute checks, stack pushes.

use weblint_html::{AttrStatus, ElementCategory, ElementDef, ElementStatus};
use weblint_rules::Rule;
use weblint_tokenizer::{Quote, Span, Tag};

use crate::fix::{Edit, Fix};
use crate::message::Diagnostic;
use crate::options::{edit_distance, CaseStyle};

use super::names::{heading_level, known, NameId};
use super::open::NO_FIX;
use super::{Checker, Open};

/// Cap quoted source text in messages so one mangled tag cannot produce a
/// kilobyte-long diagnostic.
const MAX_QUOTED_SRC: usize = 60;

impl Checker<'_> {
    pub(crate) fn on_start_tag(&mut self, tag: &Tag<'_>, span: Span) {
        let t0 = self.prof_start();
        self.check_first_tag(tag.name, span);
        self.prof_end(Rule::RequireDoctype, t0);
        let id = self.scratch.names.id(tag.name);
        self.check_name_case(tag.name, span, "tag");

        if tag.odd_quotes {
            self.emit(
                Rule::OddQuotes,
                span,
                format!(
                    "odd number of quotes in element {}",
                    clip(self.src.slice(span), MAX_QUOTED_SRC)
                ),
            );
        }
        if tag.unterminated {
            self.emit(
                Rule::UnterminatedTag,
                span,
                format!("<{}> tag is not closed with `>'", tag.name),
            );
        }

        let t0 = self.prof_start();
        let def = self.classify_element(id, tag.name, span);
        self.prof_end(Rule::UnknownElement, t0);

        // A deferred rename fix: set when this element is obsolete and the
        // replacement is a plain element name, completed at close time so
        // both tags are rewritten together (see `close_matched`).
        let mut fix_diag = NO_FIX;
        if let Some(d) = def {
            if let Some(replacement) = d.deprecated {
                self.emit(
                    Rule::ObsoleteElement,
                    span,
                    format!("<{}> is obsolete - use {}", tag.name, replacement),
                );
                // Only rename when the advice is a bare element name
                // ("PRE", "OBJECT") — prose like "CSS instead" is not a
                // mechanical remedy.
                if self.config.emit_fixes
                    && replacement.bytes().all(|b| b.is_ascii_alphanumeric())
                    && self
                        .diags
                        .last()
                        .is_some_and(|d| d.id == "obsolete-element")
                {
                    fix_diag = (self.diags.len() - 1) as u32;
                }
            }
            if let Some(logical) = d.physical {
                self.emit(
                    Rule::PhysicalFont,
                    span,
                    format!(
                        "<{}> is physical font markup - consider logical markup (e.g. {})",
                        tag.name, logical
                    ),
                );
            }
            if self.config.heuristics {
                self.apply_implied_closes(d, span);
            }
            let t0 = self.prof_start();
            self.check_required_context(d, tag.name, span);
            self.prof_end(Rule::RequiredContext, t0);
        }

        let t0 = self.prof_start();
        self.check_nesting(id, tag.name, span);
        self.prof_end(Rule::NestedElement, t0);
        let t0 = self.prof_start();
        self.check_once_only(id, tag.name, span);
        self.prof_end(Rule::OnceOnly, t0);
        let t0 = self.prof_start();
        self.check_structure_on_open(id, span);
        self.prof_end(Rule::MustFollowHead, t0);
        let t0 = self.prof_start();
        self.check_heading_on_open(id, tag.name, span);
        self.prof_end(Rule::HeadingOrder, t0);

        self.check_attrs_lexical(tag, span);
        if let Some(d) = def {
            self.check_attrs_semantic(tag, d, span);
        }
        if tag.self_closing {
            let src = self.src;
            self.emit_fix(
                Rule::XmlSelfClose,
                span,
                span,
                format!("XML-style `/>' is not HTML (<{}/>)", tag.name),
                // Drop the `/` in `/>`; decline if the tag does not end in
                // the plain two-byte form (whitespace, truncation).
                move || {
                    let slash = span.end.offset.checked_sub(2)?;
                    if src.byte(slash) != Some(b'/') {
                        return None;
                    }
                    Some(Fix::one(Edit::delete(slash, slash + 1)))
                },
            );
        }

        // Custom pattern rules run after every built-in check, so a
        // configuration with no rules produces byte-identical output.
        if !self.custom.is_empty() {
            self.check_custom_rules(tag, span);
        }

        // Record the element in the history.
        self.scratch.record_seen(id, span.start.line);
        // A child element counts as content for `empty-container`.
        if let Some(top) = self.scratch.top_mut() {
            top.has_content = true;
        }

        // Push containers; empty elements and XML-style self-closed tags
        // leave the stack alone.
        let is_container = def.map(|d| d.is_container()).unwrap_or(true);
        if is_container && !tag.self_closing {
            let k = known();
            if id == k.a {
                self.scratch.anchor_buf.clear();
                self.scratch.anchor_active = true;
            } else if id == k.title {
                self.scratch.title_buf.clear();
                self.scratch.title_active = true;
            }
            let (orig_start, orig_len) = self.scratch.intern_orig(tag.name);
            self.scratch.push_open(Open {
                id,
                name_span: self.src.sub_span(span, tag.name),
                orig_start,
                orig_len,
                line: span.start.line,
                def,
                has_content: false,
                fix_diag,
                min_fix: NO_FIX,
                prev_same: 0,
            });
        }
    }

    /// First markup in the document: DOCTYPE and outer-element checks.
    pub(crate) fn check_first_tag(&mut self, name: &str, span: Span) {
        if self.first_tag_checked {
            return;
        }
        self.first_tag_checked = true;
        if self.config.fragment {
            return;
        }
        if !self.seen_doctype {
            let public_id = self.spec.version().public_id();
            self.emit_fix(
                Rule::RequireDoctype,
                span,
                span,
                "first element was not DOCTYPE specification".to_string(),
                // Prepend the declaration for the version being checked
                // against.
                move || {
                    Some(Fix::one(Edit::insert(
                        0,
                        format!("<!DOCTYPE HTML PUBLIC \"{public_id}\">\n"),
                    )))
                },
            );
        }
        if !name.eq_ignore_ascii_case("html") {
            self.emit(
                Rule::HtmlOuter,
                span,
                "outer tags should be <HTML> .. </HTML>".to_string(),
            );
        }
    }

    /// Resolve the element against the active spec, reporting typos,
    /// extension markup and wrong-version markup.
    fn classify_element(
        &mut self,
        id: NameId,
        orig: &str,
        span: Span,
    ) -> Option<&'static ElementDef> {
        let status = match id.atom() {
            Some(atom) => self.spec.element_status_atom(atom),
            None => ElementStatus::Unknown,
        };
        match status {
            ElementStatus::Active(d) => Some(d),
            ElementStatus::Extension(d) => {
                self.emit(
                    Rule::ExtensionMarkup,
                    span,
                    format!(
                        "<{}> is {} extension markup (enable with the {} extension)",
                        orig,
                        vendor_name(d.mask),
                        vendor_switch(d.mask)
                    ),
                );
                Some(d)
            }
            ElementStatus::OtherVersion(d) => {
                // Deprecated elements get the more useful obsolete message
                // (emitted by the caller) instead of a version complaint.
                if d.deprecated.is_none() {
                    self.emit(
                        Rule::VersionMarkup,
                        span,
                        format!(
                            "<{}> is not defined in {}",
                            orig,
                            self.spec.version().name()
                        ),
                    );
                }
                Some(d)
            }
            ElementStatus::Unknown => {
                // User-declared tool-specific markup is accepted silently
                // (§4.6's noise problem; §6.1's custom elements).
                let msg = {
                    let name_lc = self.scratch.names.resolve(id);
                    if self.config.is_custom_element(name_lc) {
                        None
                    } else {
                        let mut msg = format!("unknown element <{orig}>");
                        if let Some(suggestion) = self.suggest_element(name_lc) {
                            msg.push_str(&format!(" (perhaps you meant <{}>?)", suggestion));
                        }
                        Some(msg)
                    }
                };
                if let Some(msg) = msg {
                    self.emit(Rule::UnknownElement, span, msg);
                }
                None
            }
        }
    }

    /// Find an active element within edit distance 2 — catches the paper's
    /// `<BLOCKQOUTE>` example.
    ///
    /// Two exact filters rule out most candidates before the distance is
    /// computed: a length difference over 2, and character masks differing
    /// in more than 4 bits (one edit adds or removes at most one character
    /// of each set, so it flips at most two bits). Neither can drop a name
    /// within distance 2, so the suggestion and its tie-breaks are those of
    /// the full scan.
    fn suggest_element(&self, name_lc: &str) -> Option<String> {
        if name_lc.len() < 3 {
            return None;
        }
        let len = name_lc.chars().count();
        let mask = char_mask(name_lc);
        self.spec
            .active_elements()
            .filter(|e| {
                e.name.chars().count().abs_diff(len) <= 2
                    && (char_mask(e.name) ^ mask).count_ones() <= 4
            })
            .map(|e| (e.name, edit_distance(name_lc, e.name)))
            .filter(|&(_, d)| d <= 2)
            .min_by_key(|&(_, d)| d)
            .map(|(name, _)| name.to_ascii_uppercase())
    }

    /// Silently close open elements that this element implies the end of —
    /// `<LI>` closes an open `li`, `<TD>` closes `td`/`th`, block elements
    /// close `p`.
    fn apply_implied_closes(&mut self, def: &'static ElementDef, span: Span) {
        loop {
            let closable = match self.scratch.top() {
                Some(top) => {
                    def.implies_close_of(self.scratch.names.resolve(top.id))
                        && top.silently_closable()
                }
                None => false,
            };
            if !closable {
                break;
            }
            let open = self.scratch.pop_open().expect("stack top exists");
            self.close_bookkeeping(&open, span);
            self.scratch.release_orig(&open);
        }
    }

    fn check_required_context(&mut self, def: &'static ElementDef, orig: &str, span: Span) {
        // HEAD-only elements get the dedicated `head-element` message.
        if def.category == ElementCategory::Head {
            if !self.in_head() && !self.config.fragment {
                self.emit(
                    Rule::HeadElement,
                    span,
                    format!("<{}> can only appear in the HEAD element", orig),
                );
            }
            return;
        }
        let Some(contexts) = def.contexts else {
            return;
        };
        let parent_ok = match self.scratch.top() {
            Some(top) => contexts.contains(&self.scratch.names.resolve(top.id)),
            None => false,
        };
        if !parent_ok {
            let expected = contexts
                .iter()
                .map(|c| c.to_ascii_uppercase())
                .collect::<Vec<_>>()
                .join("|");
            self.emit(
                Rule::RequiredContext,
                span,
                format!(
                    "illegal context for <{}> - must appear in {} element",
                    orig, expected
                ),
            );
        }
    }

    fn check_nesting(&mut self, id: NameId, orig: &str, span: Span) {
        if !known().non_nestable.contains(&id) {
            return;
        }
        let line = match self.scratch.innermost(id) {
            Some(outer) => self.scratch.open_at(outer).line,
            None => return,
        };
        self.emit(
            Rule::NestedElement,
            span,
            format!("<{orig}> cannot be nested - <{orig}> opened on line {line}"),
        );
    }

    fn check_once_only(&mut self, id: NameId, orig: &str, span: Span) {
        let once = id
            .atom()
            .and_then(|atom| self.spec.element_any_atom(atom))
            .map(|d| d.once)
            .unwrap_or(false);
        if !once {
            return;
        }
        let first = self.scratch.seen_line(id);
        if first != 0 {
            self.emit(
                Rule::OnceOnly,
                span,
                format!(
                    "<{orig}> may only appear once per document; it first appeared on line {first}"
                ),
            );
        }
    }

    fn check_structure_on_open(&mut self, id: NameId, span: Span) {
        let k = known();
        // Markup between </HEAD> and <BODY> is as misplaced as text there.
        if self.after_head
            && !self.body_seen
            && !self.config.fragment
            && id != k.body
            && id != k.html
            && id != k.frameset
            && id != k.noframes
        {
            self.emit(
                Rule::MustFollowHead,
                span,
                "<BODY> must immediately follow </HEAD>".to_string(),
            );
            self.after_head = false; // report once
        }
        if id == k.head {
            self.head_seen = true;
        } else if id == k.frameset {
            // In a frameset document, FRAMESET is the body-equivalent.
            self.after_head = false;
        } else if id == k.body {
            if !self.head_seen && !self.config.fragment {
                self.emit(
                    Rule::BodyNoHead,
                    span,
                    "<BODY> seen with no <HEAD> element before it".to_string(),
                );
            }
            self.body_seen = true;
            self.after_head = false;
        }
    }

    fn check_heading_on_open(&mut self, id: NameId, orig: &str, span: Span) {
        let Some(level) = heading_level(id) else {
            return;
        };
        if let Some(last) = self.last_heading {
            if level > last + 1 {
                self.emit(
                    Rule::HeadingOrder,
                    span,
                    format!("bad style - <H{level}> follows <H{last}>"),
                );
            }
        }
        self.last_heading = Some(level);
        if self.scratch.innermost(known().a).is_some() {
            self.emit(
                Rule::HeadingInAnchor,
                span,
                format!("heading <{orig}> inside anchor - put the <A> inside the heading"),
            );
        }
    }

    /// Pass 1 over attributes: purely lexical checks that need no element
    /// table — case, duplicates, missing values, quoting style. Ordering
    /// matters: weblint reports quote problems for a whole tag before value
    /// problems (see the §4.2 example output).
    fn check_attrs_lexical(&mut self, tag: &Tag<'_>, span: Span) {
        self.scratch.begin_attrs();
        for attr in &tag.attrs {
            self.check_name_case(attr.name, attr.span, "attribute");
            let aid = self.scratch.names.id(attr.name);
            if self.scratch.repeated_attr(aid) {
                // Delete this whole repeated attribute (with the whitespace
                // before it). Compute the end of what it wrote in the
                // source; decline when quoting was mangled.
                let del_end = match &attr.value {
                    Some(v) if v.terminated => {
                        Some(v.span.end.offset + usize::from(v.quote != Quote::None))
                    }
                    Some(_) => None,
                    None if !attr.has_eq => Some(attr.span.end.offset),
                    None => None,
                };
                let del_start = attr.span.start.offset;
                let src = self.src;
                self.emit_fix(
                    Rule::DuplicateAttribute,
                    attr.span,
                    attr.span,
                    format!(
                        "attribute {} appears more than once in <{}>",
                        attr.name, tag.name
                    ),
                    move || {
                        let del_end = del_end?;
                        if del_end > src.end_offset() {
                            return None;
                        }
                        let mut from = del_start;
                        while from > 0
                            && src.byte(from - 1).is_some_and(|b| b.is_ascii_whitespace())
                        {
                            from -= 1;
                        }
                        Some(Fix::one(Edit::delete(from, del_end)))
                    },
                );
            }
            match &attr.value {
                None if attr.has_eq => {
                    self.emit(
                        Rule::MissingAttributeValue,
                        attr.span,
                        format!(
                            "attribute {} of <{}> has `=' but no value",
                            attr.name, tag.name
                        ),
                    );
                }
                None => {}
                Some(v) => match v.quote {
                    Quote::Single => {
                        let vspan = v.span;
                        let terminated = v.terminated;
                        let has_dquote = v.raw.contains('"');
                        self.emit_fix(
                            Rule::AttributeDelimiter,
                            attr.span,
                            Span::new(attr.span.start, vspan.end),
                            format!(
                                "use of ' as delimiter for value of attribute {} of element {} \
                                 is not supported by all browsers",
                                attr.name, tag.name
                            ),
                            // Swap both single-quote delimiters (the bytes
                            // just outside the value span) for double
                            // quotes; decline if the value itself contains
                            // one, or the closing quote never came.
                            move || {
                                if !terminated || has_dquote || vspan.start.offset == 0 {
                                    return None;
                                }
                                Some(Fix::new(vec![
                                    Edit::replace(vspan.start.offset - 1, vspan.start.offset, "\""),
                                    Edit::replace(vspan.end.offset, vspan.end.offset + 1, "\""),
                                ]))
                            },
                        );
                    }
                    Quote::None if value_needs_quotes(v.raw) => {
                        let vspan = v.span;
                        let has_dquote = v.raw.contains('"');
                        self.emit_fix(
                            Rule::QuoteAttributeValue,
                            attr.span,
                            Span::new(attr.span.start, vspan.end),
                            format!(
                                "value for attribute {name} ({value}) of element {el} should be \
                                 quoted (i.e. {name}=\"{value}\")",
                                name = attr.name,
                                value = clip(v.raw, MAX_QUOTED_SRC),
                                el = tag.name
                            ),
                            move || {
                                if has_dquote {
                                    return None;
                                }
                                Some(Fix::new(vec![
                                    Edit::insert(vspan.start.offset, "\""),
                                    Edit::insert(vspan.end.offset, "\""),
                                ]))
                            },
                        );
                    }
                    _ => {}
                },
            }
        }
        let _ = span;
    }

    /// Pass 2 over attributes: table-driven checks — unknown/extension
    /// attributes, value validation, required attributes, IMG advice.
    fn check_attrs_semantic(&mut self, tag: &Tag<'_>, def: &'static ElementDef, span: Span) {
        let element_lc = def.name;
        for attr in &tag.attrs {
            // User-declared attributes are accepted on their element (or
            // everywhere, for a `*` declaration) before any table check.
            // The lookup is case-insensitive, so the original-case name can
            // be passed straight through without interning it.
            if !self.config.custom_attributes.is_empty()
                && self.config.is_custom_attribute(element_lc, attr.name)
            {
                continue;
            }
            match self.spec.attr_status(def, attr.name) {
                AttrStatus::Active(adef) => {
                    if adef.deprecated {
                        self.emit(
                            Rule::DeprecatedAttribute,
                            attr.span,
                            format!("attribute {} of <{}> is deprecated", attr.name, tag.name),
                        );
                    }
                    if let Some(v) = &attr.value {
                        if !v.raw.is_empty() && !self.spec.validate_attr_value(adef, v.raw) {
                            self.emit(
                                Rule::AttributeValue,
                                attr.span,
                                format!(
                                    "illegal value for {} attribute of {} ({})",
                                    attr.name,
                                    tag.name,
                                    clip(v.raw, MAX_QUOTED_SRC)
                                ),
                            );
                        }
                    }
                }
                AttrStatus::Inactive(adef) => {
                    if adef.mask & weblint_html::mask::ANYSTD == 0 {
                        self.emit(
                            Rule::ExtensionAttribute,
                            attr.span,
                            format!(
                                "attribute {} of <{}> is {} extension markup",
                                attr.name,
                                tag.name,
                                vendor_name(adef.mask)
                            ),
                        );
                    } else {
                        self.emit(
                            Rule::VersionMarkup,
                            attr.span,
                            format!(
                                "attribute {} of <{}> is not defined in {}",
                                attr.name,
                                tag.name,
                                self.spec.version().name()
                            ),
                        );
                    }
                }
                AttrStatus::Unknown => {
                    self.emit(
                        Rule::UnknownAttribute,
                        attr.span,
                        format!("unknown attribute {} for element <{}>", attr.name, tag.name),
                    );
                }
            }
        }
        for required in def.required_attrs {
            if !tag.has_attr(required) {
                self.emit(
                    Rule::RequiredAttribute,
                    span,
                    format!(
                        "<{}> requires the {} attribute",
                        tag.name,
                        required.to_ascii_uppercase()
                    ),
                );
            }
        }
        if def.name == "img" {
            if !tag.has_attr("alt") {
                let broken = tag.unterminated || tag.odd_quotes || tag.self_closing;
                let src = self.src;
                self.emit_fix(
                    Rule::ImgAlt,
                    span,
                    span,
                    "IMG element has no ALT attribute - ALT text helps non-graphical browsing"
                        .to_string(),
                    // Insert an empty ALT just before the closing `>`. The
                    // author still owes real ALT text, but the page now
                    // degrades gracefully in text browsers.
                    move || {
                        if broken {
                            return None;
                        }
                        let at = span.end.offset.checked_sub(1)?;
                        if src.byte(at) != Some(b'>') {
                            return None;
                        }
                        Some(Fix::one(Edit::insert(at, " ALT=\"\"")))
                    },
                );
            }
            if !tag.has_attr("width") || !tag.has_attr("height") {
                self.emit(
                    Rule::ImgSize,
                    span,
                    "IMG element lacks WIDTH and HEIGHT attributes, which help browsers \
                     lay out the page sooner"
                        .to_string(),
                );
            }
        }
        if def.name == "a" {
            if let Some(href) = tag.attr("href") {
                let value = href.value_raw().as_bytes();
                if value.len() >= 7 && value[..7].eq_ignore_ascii_case(b"mailto:") {
                    self.emit(
                        Rule::MailtoLink,
                        span,
                        "A HREF uses a mailto: link".to_string(),
                    );
                }
            }
        }
    }

    /// Style check for tag/attribute name case (`upper-case`/`lower-case`).
    ///
    /// `name` must be a subslice of the source (tag and attribute names
    /// are), so the fix can rewrite exactly its bytes.
    pub(crate) fn check_name_case(&mut self, name: &str, span: Span, what: &str) {
        let (check, to_case): (_, fn(&str) -> String) = match self.config.case_style() {
            CaseStyle::Any => return,
            CaseStyle::Upper if name.bytes().any(|b| b.is_ascii_lowercase()) => {
                (Rule::UpperCase, str::to_ascii_uppercase)
            }
            CaseStyle::Lower if name.bytes().any(|b| b.is_ascii_uppercase()) => {
                (Rule::LowerCase, str::to_ascii_lowercase)
            }
            _ => return,
        };
        let (start, len) = self.src.range_of(name);
        let direction = if check == Rule::UpperCase {
            "upper"
        } else {
            "lower"
        };
        self.emit_fix(
            check,
            span,
            span,
            format!(
                "{what} name {name} should be in {direction} case ({})",
                to_case(name)
            ),
            move || {
                let start = start as usize;
                Some(Fix::one(Edit::replace(
                    start,
                    start + len as usize,
                    to_case(name),
                )))
            },
        );
    }

    /// Interpret the enabled custom pattern rules against this start tag.
    ///
    /// Each rule is a conjunction of predicates — element name, required
    /// attributes (optionally value-matched), forbidden attributes — and a
    /// message template. Matches bypass [`Checker::emit`]: custom ids are
    /// not registry rules, so their diagnostics are built directly.
    fn check_custom_rules(&mut self, tag: &Tag<'_>, span: Span) {
        for i in 0..self.custom.len() {
            // Copy the reference out so pushing diagnostics below does not
            // alias the borrow of `self.custom`.
            let rule = self.custom[i];
            let t0 = self.prof_start();
            let mut fired = false;
            if rule.element_matches(tag.name) {
                let mut ok = true;
                // The first required attribute's value feeds `{value}`.
                let mut value: Option<&str> = None;
                for pred in &rule.require {
                    match tag.attr(&pred.name) {
                        Some(attr) => {
                            let raw = attr.value_raw();
                            if let Some(m) = &pred.matcher {
                                if !m.matches(raw) {
                                    ok = false;
                                    break;
                                }
                            }
                            if value.is_none() {
                                value = Some(raw);
                            }
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    ok = !rule.forbid.iter().any(|name| tag.has_attr(name));
                }
                if ok {
                    let message = rule.render_message(tag.name, value);
                    self.diags
                        .push(Diagnostic::at(rule.id, rule.category, span, message));
                    fired = true;
                }
            }
            if let Some(p) = self.profile.as_deref_mut() {
                if fired {
                    p.hit_custom(rule.id);
                }
                if let Some(t0) = t0 {
                    p.add_custom_time(rule.id, t0.elapsed());
                }
            }
        }
    }
}

/// SGML allows unquoted attribute values containing only name characters;
/// anything else should be quoted.
fn value_needs_quotes(value: &str) -> bool {
    !value.is_empty()
        && !value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.')
}

/// The set of characters in `s`, folded into 64 bits by code point.
fn char_mask(s: &str) -> u64 {
    s.chars().fold(0, |mask, c| mask | 1 << (c as u32 % 64))
}

/// Truncate long source excerpts for messages.
fn clip(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &s[..end])
}

/// Human name for the vendor(s) in an extension mask.
fn vendor_name(mask: u16) -> &'static str {
    let ns = mask & weblint_html::mask::NS != 0;
    let ie = mask & weblint_html::mask::IE != 0;
    match (ns, ie) {
        (true, true) => "Netscape/Microsoft",
        (true, false) => "Netscape",
        (false, true) => "Microsoft",
        (false, false) => "vendor",
    }
}

/// The `-x` switch name that would enable the vendor's markup.
fn vendor_switch(mask: u16) -> &'static str {
    if mask & weblint_html::mask::NS != 0 {
        "netscape"
    } else {
        "microsoft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_requirements() {
        assert!(!value_needs_quotes("100"));
        assert!(!value_needs_quotes("a.html"));
        assert!(!value_needs_quotes("top-left"));
        assert!(value_needs_quotes("#00ff00"));
        assert!(value_needs_quotes("a b"));
        assert!(value_needs_quotes("x/y"));
        assert!(!value_needs_quotes(""));
    }

    #[test]
    fn clip_truncates_at_char_boundary() {
        assert_eq!(clip("short", 60), "short");
        let long = "é".repeat(40);
        let clipped = clip(&long, 61);
        assert!(clipped.ends_with("..."));
        assert!(clipped.len() <= 64);
    }

    #[test]
    fn vendor_names() {
        use weblint_html::mask;
        assert_eq!(vendor_name(mask::NS), "Netscape");
        assert_eq!(vendor_name(mask::IE), "Microsoft");
        assert_eq!(vendor_name(mask::NS | mask::IE), "Netscape/Microsoft");
        assert_eq!(vendor_switch(mask::NS), "netscape");
        assert_eq!(vendor_switch(mask::IE), "microsoft");
    }
}
