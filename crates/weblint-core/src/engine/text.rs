//! Text, comment and DOCTYPE handling.

use weblint_rules::Rule;
use weblint_tokenizer::{scan_entities, scan_metachars, Comment, Decl, MetaCharKind, Span, Text};

use crate::fix::{Edit, Fix};

use super::Checker;

/// A fix that appends the missing `;` of an entity reference.
fn terminate_entity(span: Span) -> impl FnOnce() -> Option<Fix> {
    move || Some(Fix::one(Edit::insert(span.end.offset, ";")))
}

impl Checker<'_> {
    pub(crate) fn on_text(&mut self, text: &Text<'_>, span: Span) {
        if text.is_raw {
            // SCRIPT/STYLE content: not HTML, nothing to check, but it does
            // count as content.
            if let Some(top) = self.scratch.top_mut() {
                top.has_content = true;
            }
            return;
        }
        let significant = !text.raw.trim().is_empty();
        if significant {
            if let Some(top) = self.scratch.top_mut() {
                top.has_content = true;
            }
            let t0 = self.prof_start();
            self.check_text_context(span);
            self.prof_end(Rule::BadTextContext, t0);
            if self.after_head && !self.body_seen && !self.config.fragment {
                self.emit(
                    Rule::MustFollowHead,
                    span,
                    "<BODY> must immediately follow </HEAD>".to_string(),
                );
                self.after_head = false; // report once
            }
        }
        if self.scratch.anchor_active {
            self.scratch.anchor_buf.push_str(text.raw);
        }
        if self.scratch.title_active {
            self.scratch.title_buf.push_str(text.raw);
        }
        let t0 = self.prof_start();
        self.check_entities(text.raw, span);
        self.prof_end(Rule::UnknownEntity, t0);
        let t0 = self.prof_start();
        self.check_metachars(text.raw, span);
        self.prof_end(Rule::LiteralMetacharacter, t0);
    }

    fn check_text_context(&mut self, span: Span) {
        let Some(top) = self.scratch.top().copied() else {
            return;
        };
        let no_text = top.def.map(|d| d.no_direct_text).unwrap_or(false);
        if no_text {
            let orig = top.orig(&self.scratch.origs);
            self.emit(
                Rule::BadTextContext,
                span,
                format!("text appears directly in <{orig}> - it belongs inside a child element"),
            );
        }
    }

    fn check_entities(&mut self, raw: &str, span: Span) {
        for entity in scan_entities(raw, span.start) {
            if entity.numeric {
                if entity.code_point().is_none() {
                    self.emit(
                        Rule::UnknownEntity,
                        entity.span,
                        format!(
                            "numeric character reference &{}; is out of range",
                            entity.name
                        ),
                    );
                } else if !entity.terminated {
                    self.emit_fix(
                        Rule::UnterminatedEntity,
                        entity.span,
                        entity.span,
                        format!(
                            "entity reference &{} is missing the trailing `;'",
                            entity.name
                        ),
                        terminate_entity(entity.span),
                    );
                }
                continue;
            }
            if self.spec.entity(entity.name).is_some() {
                if !entity.terminated {
                    self.emit_fix(
                        Rule::UnterminatedEntity,
                        entity.span,
                        entity.span,
                        format!(
                            "entity reference &{} is missing the trailing `;'",
                            entity.name
                        ),
                        terminate_entity(entity.span),
                    );
                }
            } else if entity.terminated {
                // An unterminated unknown name ("AT&T x") is almost always a
                // literal ampersand, which the metachar scan cannot see (the
                // name *looks* like an entity). Only a terminated unknown
                // reference is confidently a mistake.
                let mut msg = format!("unknown entity reference &{};", entity.name);
                let suggestion = self.suggest_entity(entity.name);
                if let Some(s) = &suggestion {
                    msg.push_str(&format!(" (perhaps you meant &{s};?)"));
                }
                let espan = entity.span;
                self.emit_fix(
                    Rule::UnknownEntity,
                    espan,
                    espan,
                    msg,
                    // Only repairable when a correctly-cased form of the
                    // name exists.
                    move || {
                        let s = suggestion?;
                        Some(Fix::one(Edit::replace(
                            espan.start.offset,
                            espan.end.offset,
                            format!("&{s};"),
                        )))
                    },
                );
            } else {
                let espan = entity.span;
                self.emit_fix(
                    Rule::LiteralMetacharacter,
                    espan,
                    espan,
                    "literal `&' should be written as &amp;".to_string(),
                    // Escape just the ampersand; what follows it is text.
                    move || {
                        Some(Fix::one(Edit::replace(
                            espan.start.offset,
                            espan.start.offset + 1,
                            "&amp;",
                        )))
                    },
                );
            }
        }
    }

    /// Suggest the correctly-cased form of a mistyped entity (`&EACUTE;` →
    /// `&Eacute;`/`&eacute;`).
    fn suggest_entity(&self, name: &str) -> Option<String> {
        [name.to_ascii_lowercase(), capitalise(name)]
            .into_iter()
            .find(|candidate| candidate != name && self.spec.entity(candidate).is_some())
    }

    fn check_metachars(&mut self, raw: &str, span: Span) {
        for hit in scan_metachars(raw, span.start) {
            let (message, escaped) = match hit.kind {
                MetaCharKind::Lt => ("literal `<' should be written as &lt;", "&lt;"),
                MetaCharKind::Gt => ("literal `>' should be written as &gt;", "&gt;"),
                MetaCharKind::Amp => ("literal `&' should be written as &amp;", "&amp;"),
            };
            let hspan = hit.span;
            self.emit_fix(
                Rule::LiteralMetacharacter,
                hspan,
                hspan,
                message.to_string(),
                move || {
                    Some(Fix::one(Edit::replace(
                        hspan.start.offset,
                        hspan.end.offset,
                        escaped,
                    )))
                },
            );
        }
    }

    pub(crate) fn on_comment(&mut self, comment: &Comment<'_>, span: Span) {
        if comment.unterminated {
            self.emit(
                Rule::UnclosedComment,
                span,
                "comment is never closed (no `-->' seen)".to_string(),
            );
        }
        if comment.contains_markup {
            self.emit(
                Rule::MarkupInComment,
                span,
                "markup embedded in a comment can confuse some browsers".to_string(),
            );
        }
        if comment.interior_dashes {
            self.emit(
                Rule::CommentDashes,
                span,
                "comment contains `--', which is not legal inside an SGML comment".to_string(),
            );
        }
    }

    pub(crate) fn on_doctype(&mut self, decl: &Decl<'_>, span: Span) {
        // The state update is unconditional — later checks depend on it
        // even when doctype-version itself is disabled.
        self.seen_doctype = true;
        let t0 = self.prof_start();
        let expected = self.spec.version().public_id();
        if !decl.text.contains(expected) {
            let unterminated = decl.unterminated;
            self.emit_fix(
                Rule::DoctypeVersion,
                span,
                span,
                format!(
                    "DOCTYPE does not declare {} (expected \"{expected}\")",
                    self.spec.version().name()
                ),
                // Replace the whole declaration with the canonical one for
                // the version being checked against.
                move || {
                    if unterminated || span.is_empty() {
                        return None;
                    }
                    Some(Fix::one(Edit::replace(
                        span.start.offset,
                        span.end.offset,
                        format!("<!DOCTYPE HTML PUBLIC \"{expected}\">"),
                    )))
                },
            );
        }
        self.prof_end(Rule::DoctypeVersion, t0);
    }
}

/// First letter upper-cased, rest unchanged (`eacute` → `Eacute`).
fn capitalise(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::capitalise;

    #[test]
    fn capitalise_first_letter() {
        assert_eq!(capitalise("eacute"), "Eacute");
        assert_eq!(capitalise("E"), "E");
        assert_eq!(capitalise(""), "");
    }
}
