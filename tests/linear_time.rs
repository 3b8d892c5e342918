//! Lint time must be linear in input size for any input (ROADMAP aim 3).
//!
//! Every shape in [`weblint_corpus::adversarial`] repeats one construct
//! that a naive engine or stream tokenizer handles superlinearly: unknown
//! names, stack-walking checks under deep nesting, unterminated tokens
//! carried across many feeds. For each shape and each way of feeding it —
//! one-shot, 512-byte chunks, single bytes — this suite lints the shape at
//! size n and 2n and requires the best-of-N time to grow by at most
//! [`MAX_DOUBLING`]. A quadratic path reads about 4 here.
//!
//! It also pins the streamed diagnostics to the one-shot ones for every
//! shape and feed size.
//!
//! The timing assertions arm only in release builds (`ci.sh` runs this
//! with `--release` under `timeout`); a debug `cargo test` checks parity
//! at reduced sizes.

use std::time::{Duration, Instant};

use weblint_core::{Diagnostic, LintSession};
use weblint_corpus::adversarial::{adversarial, Shape};

/// Highest acceptable t(2n) / t(n).
const MAX_DOUBLING: f64 = 2.5;

/// Timed runs per size; the fastest counts.
const RUNS: usize = 7;

/// Measurement rounds before a shape is declared superlinear. A host
/// slowdown can inflate one round; a quadratic path fails every round.
const ROUNDS: usize = 3;

/// Ways to feed a document.
#[derive(Debug, Clone, Copy)]
enum Feed {
    OneShot,
    Chunks(usize),
}

const FEEDS: [Feed; 3] = [Feed::OneShot, Feed::Chunks(512), Feed::Chunks(1)];

/// The base size n of each shape: names, levels or attributes, or bytes
/// for the unterminated shapes. Chosen so one release-mode lint at n takes
/// a few milliseconds.
fn base_size(shape: Shape) -> usize {
    match shape {
        Shape::OpenScript | Shape::OpenComment | Shape::OpenQuote => 1 << 20,
        Shape::UnknownElements | Shape::UnknownAttributes => 4_000,
        // Below this width the smaller tag's attribute vectors stay
        // cache-resident and the doubling reads high for that reason alone.
        Shape::WideAttributes => 16_000,
        _ => 8_000,
    }
}

fn lint(session: &mut LintSession, doc: &str, feed: Feed) -> Vec<Diagnostic> {
    match feed {
        Feed::OneShot => session.check_string(doc),
        Feed::Chunks(size) => {
            let mut diags = Vec::new();
            for chunk in doc.as_bytes().chunks(size) {
                diags.extend(session.feed(chunk));
            }
            diags.extend(session.finish());
            diags
        }
    }
}

fn time(session: &mut LintSession, doc: &str, feed: Feed) -> Duration {
    let t0 = Instant::now();
    let diags = lint(session, doc, feed);
    let elapsed = t0.elapsed();
    std::hint::black_box(diags);
    elapsed
}

/// Best-of-[`RUNS`] t(n) and t(2n), the two sizes interleaved so a slow
/// spell of the host hits both alike.
fn best_times(
    session: &mut LintSession,
    small: &str,
    large: &str,
    feed: Feed,
) -> (Duration, Duration) {
    let (mut best_small, mut best_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        best_small = best_small.min(time(session, small, feed));
        best_large = best_large.min(time(session, large, feed));
    }
    (best_small, best_large)
}

#[test]
fn streamed_diagnostics_match_one_shot_for_every_shape() {
    let mut session = LintSession::new();
    for shape in Shape::ALL {
        let size = if cfg!(debug_assertions) {
            base_size(shape) / 16
        } else {
            base_size(shape)
        };
        let doc = adversarial(shape, size, 7);
        let one_shot = session.check_string(&doc);
        assert!(!one_shot.is_empty(), "{}: expected findings", shape.name());
        for feed in [Feed::Chunks(512), Feed::Chunks(1)] {
            let streamed = lint(&mut session, &doc, feed);
            assert!(
                streamed == one_shot,
                "{} fed as {feed:?}: {} diagnostics streamed, {} one-shot",
                shape.name(),
                streamed.len(),
                one_shot.len()
            );
        }
    }
}

#[test]
fn lint_time_is_linear_for_every_shape_and_feed() {
    if cfg!(debug_assertions) {
        eprintln!("linear_time: timing assertions arm only in release builds");
        return;
    }
    let mut session = LintSession::new();
    let mut failures = Vec::new();
    for shape in Shape::ALL {
        let n = base_size(shape);
        let small = adversarial(shape, n, 7);
        let large = adversarial(shape, 2 * n, 7);
        for feed in FEEDS {
            let mut ratios = Vec::new();
            let mut t_n = Duration::ZERO;
            for _ in 0..ROUNDS {
                let (small_t, large_t) = best_times(&mut session, &small, &large, feed);
                t_n = small_t;
                let ratio = large_t.as_secs_f64() / small_t.as_secs_f64();
                ratios.push(ratio);
                if ratio <= MAX_DOUBLING {
                    break;
                }
            }
            let ratio = ratios[ratios.len() - 1];
            eprintln!(
                "linear_time: {:<20} {:<12} t(n) = {:>8.3} ms  t(2n)/t(n) = {ratio:.2}",
                shape.name(),
                format!("{feed:?}"),
                t_n.as_secs_f64() * 1e3
            );
            if ratio > MAX_DOUBLING {
                failures.push(format!(
                    "{} fed as {feed:?}: t(2n)/t(n) = {ratios:.2?}",
                    shape.name()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "superlinear lint time (max {MAX_DOUBLING}):\n{}",
        failures.join("\n")
    );
}
