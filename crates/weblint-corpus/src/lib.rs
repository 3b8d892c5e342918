//! Deterministic HTML corpus generation for tests and benchmarks.
//!
//! The paper evaluated weblint against four years of real pages from the
//! weblint-victims community; that corpus is not available, so this crate
//! generates a synthetic equivalent (DESIGN.md, substitutions): seedable
//! valid-by-construction documents, a catalogue of defect-injection
//! operators modelled on the mistake classes the paper lists (§4.2, §4.3),
//! and whole-site generation for the `-R`/robot experiments.
//!
//! Everything is deterministic given a seed, so test failures reproduce and
//! benchmarks measure the same bytes run over run.
//!
//! # Examples
//!
//! ```
//! use weblint_corpus::{generate_document, DefectClass};
//! use rand::SeedableRng;
//!
//! let doc = generate_document(42, 2_000);
//! assert!(doc.starts_with("<!DOCTYPE"));
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let broken = DefectClass::OddQuotes.inject(&doc, &mut rng);
//! assert_ne!(doc, broken);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
mod defect;
mod gen;
mod mega;
mod site;
mod words;

pub use defect::{all_defect_classes, DefectClass};
pub use gen::{generate_document, generate_document_with, GenOptions};
pub use mega::{MegaSite, MegaSiteOptions};
pub use site::{generate_site, GeneratedPage, SiteOptions, SiteSpec};
pub(crate) use words::{sentence, word, words};
