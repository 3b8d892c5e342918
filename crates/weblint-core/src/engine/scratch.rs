//! Reusable engine working memory.
//!
//! Everything the checker allocates per document — the two element stacks,
//! the per-name tables (seen line, innermost open element, attribute
//! dedup), the side name intern, the anchor/title text accumulators —
//! lives here so a [`crate::LintSession`] can lint document after document
//! without re-allocating any of it. [`Scratch::reset`] erases the contents
//! but keeps every buffer's capacity.
//!
//! Every question the engine asks of the stacks per tag — is an `<A>`
//! open, where is the innermost open `<DIV>`, which held-back fix is the
//! oldest — is answered in O(1) from indexes kept here, so a document
//! nested thousands deep costs the same per tag as a flat one.
//! The stacks are private to keep those indexes in step with them.

use weblint_html::Atom;

use super::names::{NameId, NameTable};
use super::open::{Open, NO_FIX};

/// [`NameSlot`] and [`Open::prev_same`] value: no such element.
const NO_INDEX: u32 = u32::MAX;

/// Per-document facts about one name, indexed by [`NameId::index`].
#[derive(Debug, Clone, Copy)]
struct NameSlot {
    /// First line the name was seen on as an element; 0 means "not seen"
    /// (real lines are 1-based).
    seen: u32,
    /// Main-stack index of the innermost open element with this name, or
    /// [`NO_INDEX`].
    innermost: u32,
    /// Secondary-stack index of the most recently parked element with
    /// this name, or [`NO_INDEX`].
    parked: u32,
    /// Serial of the last tag that carried this name as an attribute.
    attr_tag: u32,
}

const EMPTY_SLOT: NameSlot = NameSlot {
    seen: 0,
    innermost: NO_INDEX,
    parked: NO_INDEX,
    attr_tag: 0,
};

/// The per-session working memory of the lint engine.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// The main stack of open elements.
    stack: Vec<Open>,
    /// The secondary stack of unresolved (overlapped) elements. An entry
    /// leaves when its own end tag arrives, wherever it sits, leaving a
    /// hole; holes at the top are trimmed.
    unresolved: Vec<Option<Open>>,
    /// Per-name tables, grown as side-interned ids appear.
    slots: Vec<NameSlot>,
    /// Serial of the tag whose attributes are being checked; see
    /// [`Scratch::repeated_attr`].
    attr_tag: u32,
    /// Name identities for this document.
    pub(crate) names: NameTable,
    /// Accumulated visible text of the innermost open `<A>`.
    pub(crate) anchor_buf: String,
    /// Whether an `<A>` is open and accumulating into `anchor_buf`.
    pub(crate) anchor_active: bool,
    /// Accumulated text of an open `<TITLE>`.
    pub(crate) title_buf: String,
    /// Whether a `<TITLE>` is open and accumulating into `title_buf`.
    pub(crate) title_active: bool,
    /// As-written spellings of the elements on the two stacks, packed
    /// end-to-end. [`Open`] entries index into this arena instead of the
    /// source because in streaming mode the source window may scroll past
    /// an open tag before its close arrives.
    pub(crate) origs: String,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            stack: Vec::new(),
            unresolved: Vec::new(),
            slots: vec![EMPTY_SLOT; Atom::count()],
            attr_tag: 0,
            names: NameTable::default(),
            anchor_buf: String::new(),
            anchor_active: false,
            title_buf: String::new(),
            title_active: false,
            origs: String::new(),
        }
    }
}

impl Scratch {
    /// Erase per-document state, keeping capacity. Cumulative metrics
    /// (the intern fallback counter) survive.
    pub(crate) fn reset(&mut self) {
        self.stack.clear();
        self.unresolved.clear();
        self.slots.clear();
        self.slots.resize(Atom::count(), EMPTY_SLOT);
        self.attr_tag = 0;
        self.names.clear();
        self.anchor_buf.clear();
        self.anchor_active = false;
        self.title_buf.clear();
        self.title_active = false;
        self.origs.clear();
    }

    /// The innermost open element, if any.
    pub(crate) fn top(&self) -> Option<&Open> {
        self.stack.last()
    }

    /// Mutable access to the innermost open element, for its content flag.
    pub(crate) fn top_mut(&mut self) -> Option<&mut Open> {
        self.stack.last_mut()
    }

    /// Number of elements on the main stack.
    pub(crate) fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Push an element onto the main stack, linking it into its name's
    /// innermost-open chain and the stack's running fix minimum.
    pub(crate) fn push_open(&mut self, mut open: Open) {
        let index = self.stack.len() as u32;
        let slot = self.slot_mut(open.id);
        open.prev_same = std::mem::replace(&mut slot.innermost, index);
        open.min_fix = self
            .stack
            .last()
            .map_or(open.fix_diag, |top| top.min_fix.min(open.fix_diag));
        self.stack.push(open);
    }

    /// Pop the innermost element off the main stack.
    pub(crate) fn pop_open(&mut self) -> Option<Open> {
        let open = self.stack.pop()?;
        self.slot_mut(open.id).innermost = open.prev_same;
        Some(open)
    }

    /// Main-stack index of the innermost open element named `id`.
    pub(crate) fn innermost(&self, id: NameId) -> Option<usize> {
        match self.slots.get(id.index()).map_or(NO_INDEX, |s| s.innermost) {
            NO_INDEX => None,
            index => Some(index as usize),
        }
    }

    /// The element at main-stack `index` (0 is the outermost).
    pub(crate) fn open_at(&self, index: usize) -> &Open {
        &self.stack[index]
    }

    /// Park an element displaced by overlapping markup on the secondary
    /// stack.
    pub(crate) fn park(&mut self, mut open: Open) {
        let index = self.unresolved.len() as u32;
        open.prev_same = std::mem::replace(&mut self.slot_mut(open.id).parked, index);
        self.unresolved.push(Some(open));
    }

    /// Take the most recently parked element named `id` off the secondary
    /// stack, if there is one.
    pub(crate) fn unpark(&mut self, id: NameId) -> Option<Open> {
        let index = self.slots.get(id.index())?.parked;
        let open = self.unresolved.get_mut(index as usize)?.take()?;
        self.slot_mut(id).parked = open.prev_same;
        while let Some(None) = self.unresolved.last() {
            self.unresolved.pop();
        }
        Some(open)
    }

    /// The lowest diagnostic index a still-open element may yet amend with
    /// a deferred fix, or [`NO_FIX`] when none can. Parked elements never
    /// amend: their end tag resolves silently and completes no fix.
    pub(crate) fn lowest_pending_fix(&self) -> u32 {
        self.stack.last().map_or(NO_FIX, |top| top.min_fix)
    }

    /// Start checking a new tag's attributes for repeats.
    pub(crate) fn begin_attrs(&mut self) {
        self.attr_tag = self.attr_tag.wrapping_add(1);
        if self.attr_tag == 0 {
            // Serials wrapped: forget every stamp so none can alias.
            for slot in &mut self.slots {
                slot.attr_tag = 0;
            }
            self.attr_tag = 1;
        }
    }

    /// Record attribute `id` on the current tag; true when the tag already
    /// carried it.
    pub(crate) fn repeated_attr(&mut self, id: NameId) -> bool {
        let tag = self.attr_tag;
        let slot = self.slot_mut(id);
        let repeated = slot.attr_tag == tag;
        slot.attr_tag = tag;
        repeated
    }

    fn slot_mut(&mut self, id: NameId) -> &mut NameSlot {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize(index + 1, EMPTY_SLOT);
        }
        &mut self.slots[index]
    }

    /// Copy an as-written element name into the orig-name arena, returning
    /// its (start, len) for an [`Open`] entry.
    pub(crate) fn intern_orig(&mut self, name: &str) -> (u32, u32) {
        let start = self.origs.len() as u32;
        self.origs.push_str(name);
        (start, name.len() as u32)
    }

    /// Return an element's arena slot after it permanently leaves both
    /// stacks. Reclaims the bytes when they sit at the arena top (the
    /// common LIFO case); out-of-order releases (overlap parking) leave a
    /// hole that is swept once both stacks drain.
    pub(crate) fn release_orig(&mut self, open: &Open) {
        if open.orig_start as usize + open.orig_len as usize == self.origs.len() {
            self.origs.truncate(open.orig_start as usize);
        }
        if self.stack.is_empty() && self.unresolved.is_empty() {
            self.origs.clear();
        }
    }

    /// First line `id` was seen on, or 0 if unseen.
    pub(crate) fn seen_line(&self, id: NameId) -> u32 {
        self.slots.get(id.index()).map_or(0, |s| s.seen)
    }

    /// Record that `id` appeared on `line`, keeping the first occurrence.
    pub(crate) fn record_seen(&mut self, id: NameId, line: u32) {
        let slot = self.slot_mut(id);
        if slot.seen == 0 {
            slot.seen = line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_tokenizer::{Pos, Span};

    fn open(id: NameId, fix_diag: u32) -> Open {
        Open {
            id,
            name_span: Span::empty(Pos::START),
            orig_start: 0,
            orig_len: 0,
            line: 1,
            def: None,
            has_content: false,
            fix_diag,
            min_fix: NO_FIX,
            prev_same: 0,
        }
    }

    #[test]
    fn innermost_follows_nested_names_through_pops() {
        let mut s = Scratch::default();
        let (div, b) = (s.names.id("div"), s.names.id("b"));
        for id in [div, b, div] {
            s.push_open(open(id, NO_FIX));
        }
        assert_eq!(s.innermost(div), Some(2));
        assert_eq!(s.innermost(b), Some(1));
        s.pop_open();
        assert_eq!(s.innermost(div), Some(0));
        s.pop_open();
        assert_eq!(s.innermost(b), None);
        s.pop_open();
        assert_eq!(s.innermost(div), None);
    }

    #[test]
    fn unpark_takes_the_latest_of_a_name_and_trims_holes() {
        let mut s = Scratch::default();
        let (b, i) = (s.names.id("b"), s.names.id("nosuchtag"));
        for (id, line) in [(b, 1), (i, 2), (b, 3)] {
            s.park(Open {
                line,
                ..open(id, NO_FIX)
            });
        }
        assert_eq!(s.unpark(b).map(|o| o.line), Some(3));
        assert_eq!(s.unpark(b).map(|o| o.line), Some(1));
        assert!(s.unpark(b).is_none());
        assert_eq!(s.unpark(i).map(|o| o.line), Some(2));
        assert!(s.unresolved.is_empty(), "holes are trimmed");
    }

    #[test]
    fn lowest_pending_fix_is_the_minimum_below_the_top() {
        let mut s = Scratch::default();
        let div = s.names.id("div");
        assert_eq!(s.lowest_pending_fix(), NO_FIX);
        for fix in [NO_FIX, 7, NO_FIX, 3, 9] {
            s.push_open(open(div, fix));
        }
        assert_eq!(s.lowest_pending_fix(), 3);
        s.pop_open();
        s.pop_open();
        assert_eq!(s.lowest_pending_fix(), 7);
        s.pop_open();
        s.pop_open();
        assert_eq!(s.lowest_pending_fix(), NO_FIX);
    }

    #[test]
    fn repeated_attributes_are_per_tag() {
        let mut s = Scratch::default();
        let (alt, odd) = (s.names.id("alt"), s.names.id("nosuchattr"));
        s.begin_attrs();
        assert!(!s.repeated_attr(alt));
        assert!(!s.repeated_attr(odd));
        assert!(s.repeated_attr(alt));
        assert!(s.repeated_attr(odd));
        s.begin_attrs();
        assert!(!s.repeated_attr(alt), "a new tag starts clean");
    }

    #[test]
    fn seen_lines_keep_first_occurrence() {
        let mut s = Scratch::default();
        let id = s.names.id("title");
        assert_eq!(s.seen_line(id), 0);
        s.record_seen(id, 4);
        s.record_seen(id, 9);
        assert_eq!(s.seen_line(id), 4);
    }

    #[test]
    fn side_interned_ids_grow_the_table() {
        let mut s = Scratch::default();
        let id = s.names.id("nosuchtag");
        assert_eq!(s.seen_line(id), 0);
        s.record_seen(id, 2);
        assert_eq!(s.seen_line(id), 2);
    }

    #[test]
    fn reset_clears_document_state() {
        let mut s = Scratch::default();
        let id = s.names.id("nosuchtag");
        s.record_seen(id, 2);
        s.anchor_active = true;
        s.anchor_buf.push_str("text");
        s.reset();
        assert_eq!(s.seen_line(id), 0);
        assert!(!s.anchor_active);
        assert!(s.anchor_buf.is_empty());
        assert_eq!(s.names.fallbacks(), 1, "counter survives reset");
    }
}
