//! An entry on the element stack.

use weblint_html::ElementDef;
use weblint_tokenizer::Span;

use super::names::NameId;

/// One open element, as held on the main stack (and, after an overlap, the
/// secondary "unresolved" stack).
///
/// Holds no strings: the name is a [`NameId`] and the as-written spelling
/// is a range into the [`super::Scratch`] orig-name arena, so pushing an
/// element never allocates (beyond the arena's amortized growth) and the
/// stacks can live in reusable session scratch. The arena — not the source
/// — carries the spelling because in streaming mode the source window may
/// have scrolled past the open tag by the time its close is seen.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open {
    /// Interned lower-case element name, for table lookups and matching.
    pub id: NameId,
    /// Span of the name exactly as written, in whole-document coordinates.
    /// Used only for fix edit offsets; the text it covers may no longer be
    /// in the visible source window.
    pub name_span: Span,
    /// Range of the as-written name in the scratch orig-name arena.
    pub orig_start: u32,
    /// Length of the as-written name in the arena.
    pub orig_len: u32,
    /// Line the open tag appeared on — weblint's messages quote it
    /// ("for <TITLE> on line 3").
    pub line: u32,
    /// The element's table entry, if the name is known at all.
    pub def: Option<&'static ElementDef>,
    /// Whether any non-whitespace content (text or child elements) has been
    /// seen inside, for the `empty-container` check.
    pub has_content: bool,
    /// Index into the diagnostics of a pending fix for this element
    /// (currently: an `obsolete-element` rename that must also rewrite the
    /// matching end tag), or [`NO_FIX`] when there is none.
    pub fix_diag: u32,
    /// The lowest `fix_diag` of this entry and every entry below it on the
    /// main stack. Set by [`super::Scratch::push_open`].
    pub min_fix: u32,
    /// Main-stack index of the next-outer open element with the same
    /// name, so the innermost one can be found again after a pop. Set by
    /// [`super::Scratch::push_open`].
    pub prev_same: u32,
}

/// Sentinel for [`Open::fix_diag`]: no deferred fix.
pub(crate) const NO_FIX: u32 = u32::MAX;

impl Open {
    /// The element name exactly as written, resolved from the scratch
    /// orig-name arena.
    pub fn orig<'s>(&self, origs: &'s str) -> &'s str {
        let start = self.orig_start as usize;
        origs
            .get(start..start + self.orig_len as usize)
            .unwrap_or("")
    }

    /// Whether the §5.1 heuristics may close this element silently when a
    /// mismatched end tag or end-of-file forces it off the stack.
    pub fn silently_closable(&self) -> bool {
        self.def.map(|d| d.end_tag_optional()).unwrap_or(true)
    }

    /// Whether this element is inline (text-level) markup. Mismatched
    /// closes around inline elements are reported as *overlap* (the
    /// markup is interleaved); around structural elements as *unclosed*
    /// (the author forgot the end tag).
    pub fn is_inline(&self) -> bool {
        self.def
            .map(|d| matches!(d.category, weblint_html::ElementCategory::Inline))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::super::names::NameTable;
    use super::*;
    use weblint_html::HtmlSpec;
    use weblint_tokenizer::Pos;

    fn open(names: &mut NameTable, name: &str) -> Open {
        let spec = HtmlSpec::default();
        Open {
            id: names.id(name),
            name_span: Span::empty(Pos::START),
            orig_start: 0,
            orig_len: 0,
            line: 1,
            def: spec.element_any(name),
            has_content: false,
            fix_diag: NO_FIX,
            min_fix: NO_FIX,
            prev_same: 0,
        }
    }

    #[test]
    fn optional_end_is_silently_closable() {
        let mut n = NameTable::default();
        assert!(open(&mut n, "p").silently_closable());
        assert!(open(&mut n, "li").silently_closable());
        assert!(!open(&mut n, "title").silently_closable());
        assert!(!open(&mut n, "a").silently_closable());
    }

    #[test]
    fn unknown_elements_close_silently() {
        let mut n = NameTable::default();
        assert!(open(&mut n, "nosuchtag").silently_closable());
    }

    #[test]
    fn inline_classification() {
        let mut n = NameTable::default();
        assert!(open(&mut n, "a").is_inline());
        assert!(open(&mut n, "b").is_inline());
        assert!(!open(&mut n, "title").is_inline());
        assert!(!open(&mut n, "div").is_inline());
        assert!(!open(&mut n, "nosuchtag").is_inline());
    }

    #[test]
    fn orig_resolves_from_arena() {
        let origs = "HTMLTITLE";
        let o = Open {
            id: NameTable::default().id("title"),
            name_span: Span::empty(Pos::START),
            orig_start: 4,
            orig_len: 5,
            line: 1,
            def: None,
            has_content: false,
            fix_diag: NO_FIX,
            min_fix: NO_FIX,
            prev_same: 0,
        };
        assert_eq!(o.orig(origs), "TITLE");
        assert_eq!(o.orig("short"), "", "out-of-range range resolves empty");
    }
}
