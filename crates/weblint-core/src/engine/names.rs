//! Per-document name identity: static atoms with a side intern.
//!
//! Every name the engine tracks — element names on the stack, the
//! `seen`-line history, attribute dedup — is keyed by a [`NameId`] instead
//! of a lower-cased `String`. Names in the static tables resolve to their
//! [`Atom`] without allocating; names outside the tables (unknown elements
//! and attributes, the rare case) fall back to a small per-document side
//! intern, hashed so that a document full of distinct unknown names still
//! interns each in O(1). Comparing two `NameId`s is a `u32` compare, which
//! is what makes stack matching and dedup allocation-free.

use std::collections::HashMap;
use std::sync::OnceLock;

use weblint_html::Atom;

/// Identity of a name within one document: an atom index, or
/// `Atom::count() + n` for the `n`th side-interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameId(u32);

impl NameId {
    /// The id of a statically interned name.
    pub(crate) fn from_atom(atom: Atom) -> NameId {
        NameId(atom.index() as u32)
    }

    /// The atom behind this id, if it is statically interned.
    pub(crate) fn atom(self) -> Option<Atom> {
        if (self.0 as usize) < Atom::count() {
            Some(Atom::from_index(self.0 as usize))
        } else {
            None
        }
    }

    /// Index into a dense per-document table (`seen` lines).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One side-interned name: its lower-case spelling's range in
/// [`NameTable::spellings`], and the next entry whose spelling hashes alike.
#[derive(Debug, Clone, Copy)]
struct Extra {
    start: u32,
    len: u32,
    next: u32,
}

/// End of an [`Extra::next`] chain.
const NO_NEXT: u32 = u32::MAX;

/// The per-document name table: atoms plus a side intern for everything
/// else. The side intern is cleared between documents; the fallback counter
/// is cumulative across a session — it is the allocation canary, and stays
/// at zero while every name a document uses is in the static tables.
///
/// The side intern maps the FNV-1a hash of a name's lower-cased bytes to
/// the newest entry with that hash, and entries chain to older ones, so a
/// lookup hashes the name as written and compares case-insensitively: a
/// repeated unknown name resolves without allocating, whatever its case.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    /// Lower-case spellings of the side-interned names, end to end.
    spellings: String,
    extra: Vec<Extra>,
    by_hash: HashMap<u64, u32>,
    fallbacks: u64,
}

impl NameTable {
    /// Intern `name` (any ASCII case). Allocation-free for table names and
    /// for repeats of a side-interned name.
    pub(crate) fn id(&mut self, name: &str) -> NameId {
        if let Some(atom) = Atom::from_ascii(name.as_bytes()) {
            return NameId::from_atom(atom);
        }
        let hash = fold_hash(name);
        let head = self.by_hash.get(&hash).copied().unwrap_or(NO_NEXT);
        let mut pos = head;
        while pos != NO_NEXT {
            let entry = self.extra[pos as usize];
            if self.spelling(entry).eq_ignore_ascii_case(name) {
                return NameId(Atom::count() as u32 + pos);
            }
            pos = entry.next;
        }
        self.fallbacks += 1;
        let pos = self.extra.len() as u32;
        let start = self.spellings.len() as u32;
        self.spellings.push_str(name);
        self.spellings[start as usize..].make_ascii_lowercase();
        self.extra.push(Extra {
            start,
            len: self.spellings.len() as u32 - start,
            next: head,
        });
        self.by_hash.insert(hash, pos);
        NameId(Atom::count() as u32 + pos)
    }

    fn spelling(&self, entry: Extra) -> &str {
        &self.spellings[entry.start as usize..(entry.start + entry.len) as usize]
    }

    /// The canonical lower-case spelling behind an id.
    pub(crate) fn resolve(&self, id: NameId) -> &str {
        match id.atom() {
            Some(atom) => atom.as_str(),
            None => self.spelling(self.extra[id.index() - Atom::count()]),
        }
    }

    /// Drop the per-document side intern, keeping its capacity; ids from
    /// earlier documents become invalid. The fallback counter survives.
    pub(crate) fn clear(&mut self) {
        self.spellings.clear();
        self.extra.clear();
        self.by_hash.clear();
    }

    /// Cumulative count of names that missed the static atom table.
    pub(crate) fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

/// FNV-1a over the ASCII-lower-cased bytes of `name`: equal for any two
/// spellings that differ only in ASCII case.
fn fold_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Ids of the element names the engine special-cases, resolved from the
/// atom table once per process.
#[derive(Debug)]
pub(crate) struct Known {
    pub(crate) a: NameId,
    pub(crate) title: NameId,
    pub(crate) head: NameId,
    pub(crate) body: NameId,
    pub(crate) html: NameId,
    pub(crate) frameset: NameId,
    pub(crate) noframes: NameId,
    /// `h1`..`h6`, in order.
    pub(crate) headings: [NameId; 6],
    /// Elements that must not be nested inside themselves.
    pub(crate) non_nestable: [NameId; 7],
}

/// The process-wide [`Known`] ids.
pub(crate) fn known() -> &'static Known {
    static KNOWN: OnceLock<Known> = OnceLock::new();
    KNOWN.get_or_init(|| {
        let at = |name: &str| {
            NameId::from_atom(Atom::from_ascii(name.as_bytes()).expect("name is in the atom table"))
        };
        Known {
            a: at("a"),
            title: at("title"),
            head: at("head"),
            body: at("body"),
            html: at("html"),
            frameset: at("frameset"),
            noframes: at("noframes"),
            headings: [at("h1"), at("h2"), at("h3"), at("h4"), at("h5"), at("h6")],
            non_nestable: [
                at("a"),
                at("form"),
                at("label"),
                at("button"),
                at("select"),
                at("style"),
                at("script"),
            ],
        }
    })
}

/// Heading level of `h1`..`h6` ids.
pub(crate) fn heading_level(id: NameId) -> Option<u8> {
    known()
        .headings
        .iter()
        .position(|&h| h == id)
        .map(|i| (i + 1) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_intern_without_fallback() {
        let mut t = NameTable::default();
        let id = t.id("TABLE");
        assert_eq!(id, t.id("table"));
        assert_eq!(t.resolve(id), "table");
        assert_eq!(t.fallbacks(), 0);
        assert!(id.atom().is_some());
    }

    #[test]
    fn unknown_names_side_intern_once() {
        let mut t = NameTable::default();
        let id = t.id("BLOCKQOUTE");
        assert_eq!(id, t.id("blockqoute"));
        assert_eq!(t.resolve(id), "blockqoute");
        assert_eq!(t.fallbacks(), 1);
        assert!(id.atom().is_none());
        // A second distinct unknown name gets its own id and fallback.
        let other = t.id("nosuchtag");
        assert_ne!(id, other);
        assert_eq!(t.fallbacks(), 2);
    }

    #[test]
    fn side_intern_resolves_many_names_in_any_case() {
        let mut t = NameTable::default();
        let ids: Vec<NameId> = (0..2000).map(|i| t.id(&format!("Xq{i}"))).collect();
        assert_eq!(t.fallbacks(), 2000);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.id(&format!("XQ{i}")), id);
            assert_eq!(t.resolve(id), format!("xq{i}"));
        }
        assert_eq!(t.fallbacks(), 2000, "repeats must not intern again");
    }

    #[test]
    fn hash_collisions_keep_names_apart() {
        // Force every name onto one chain: lookups must still compare the
        // spelling, not trust the hash.
        let mut t = NameTable::default();
        let a = t.id("nosuch-a");
        let pos = (a.index() - Atom::count()) as u32;
        t.by_hash.insert(fold_hash("nosuch-b"), pos);
        let b = t.id("nosuch-b");
        assert_ne!(a, b);
        assert_eq!(t.id("NOSUCH-A"), a);
        assert_eq!(t.id("NoSuch-B"), b);
        assert_eq!(t.fallbacks(), 2);
    }

    #[test]
    fn clear_drops_side_intern_keeps_counter() {
        let mut t = NameTable::default();
        t.id("nosuchtag");
        t.clear();
        t.id("nosuchtag");
        assert_eq!(t.fallbacks(), 2);
    }

    #[test]
    fn heading_levels_resolve() {
        let mut t = NameTable::default();
        assert_eq!(heading_level(t.id("h1")), Some(1));
        assert_eq!(heading_level(t.id("H6")), Some(6));
        assert_eq!(heading_level(t.id("h7")), None);
        assert_eq!(heading_level(t.id("hr")), None);
        assert_eq!(heading_level(t.id("p")), None);
    }

    #[test]
    fn known_ids_differ() {
        let k = known();
        assert_ne!(k.a, k.title);
        assert!(k.non_nestable.contains(&k.a));
        assert!(!k.non_nestable.contains(&k.body));
    }
}
