//! E20: the incremental lint session — time-to-first-finding and the
//! one-shot floor.
//!
//! Two claims to earn. First, latency: a streaming consumer hears about a
//! defect as soon as its trigger token closes, so time-to-first-finding
//! must be flat in document size — a finding near the top of a 6 MiB page
//! arrives as fast as in a 64 KiB page, while the one-shot path cannot
//! say anything until it has linted every byte. Second, a small toll:
//! one-shot `check_string` and streamed `feed` + `finish` run the same
//! token loop and checker over two token sources (a whole-document
//! tokenizer, or the stream's drain with the checker resumed once per
//! feed), so streaming a document may cost only a bounded factor over
//! linting it in one shot.
//!
//! The shape pass prints `E20-RESULT` lines for BENCH_E20.json and gates
//! both claims: TTFF at 100x size within a small factor of 1x (plus a
//! millisecond of scheduler slack), and streamed full-document throughput,
//! timed on the same warmed session as one-shot, within a fixed factor of
//! one-shot on two documents: `big.html` (one 2 MB text token) and a
//! tag-dense generated page, where a per-token cost in the feed path
//! would show.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;
use weblint_bench::experiment_header;
use weblint_core::LintSession;

/// Feed granularity: the size a socket read or stdin read hands over.
const CHUNK: usize = 8 << 10;

/// TTFF document sizes: 1x, 10x, 100x.
const SIZES: &[(usize, &str)] = &[(64 << 10, "1x"), (640 << 10, "10x"), (6400 << 10, "100x")];

/// TTFF at 100x must stay within this factor of 1x (plus absolute
/// slack below) — linear scaling would put it at ~100x.
const FLAT_FACTOR: f64 = 10.0;
const FLAT_SLACK_SECS: f64 = 0.001;

/// Streamed full-document throughput on `big.html` must stay within this
/// factor of one-shot: the session's chunk bookkeeping may not tax the
/// engine.
const STREAM_TOLL: f64 = 0.70;

/// The same bound on a tag-dense page, where every token crosses the feed
/// path: a per-token resume of the checker there would breach it.
const DENSE_STREAM_TOLL: f64 = 0.75;

/// Size of the tag-dense generated page.
const DENSE_BYTES: usize = 256 << 10;

fn big_html() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../big.html");
    std::fs::read_to_string(path).expect("big.html fixture at repo root")
}

/// A document of roughly `bytes` with one malformed heading right at the
/// top of the body — the first finding's trigger closes within the first
/// chunk, so TTFF measures delivery latency, not defect position.
fn early_defect_document(seed: u64, bytes: usize) -> String {
    let doc = weblint_corpus::generate_document(seed, bytes);
    doc.replacen("<BODY>", "<BODY>\n<H1>early finding</H2>", 1)
}

fn best_secs<F: FnMut() -> f64>(iters: usize, mut f: F) -> f64 {
    (0..iters).fold(f64::INFINITY, |best, _| best.min(f()))
}

fn result_line(name: &str, value: f64, unit: &str) {
    println!("  E20-RESULT {name} {value:.1} {unit}");
}

/// Seconds from first byte fed until the session yields its first
/// diagnostic.
fn streamed_ttff(doc: &[u8]) -> f64 {
    let mut session = LintSession::new();
    let started = Instant::now();
    for chunk in doc.chunks(CHUNK) {
        if session.feed(chunk).next().is_some() {
            return started.elapsed().as_secs_f64();
        }
    }
    let _ = session.finish().next();
    started.elapsed().as_secs_f64()
}

/// Seconds until the one-shot path can hand over any diagnostic: the
/// whole document, linted.
fn one_shot_ttff(session: &mut LintSession, doc: &str) -> f64 {
    let started = Instant::now();
    black_box(session.check_string(doc));
    started.elapsed().as_secs_f64()
}

fn bench_ttff(c: &mut Criterion) {
    experiment_header(
        "E20a",
        "time-to-first-finding: streamed flat in document size, one-shot linear",
    );
    let mut flat = Vec::new();
    for &(bytes, label) in SIZES {
        let doc = early_defect_document(0xE20, bytes);
        println!("  {label}: {} bytes", doc.len());
        let mut warm = LintSession::new();
        warm.check_string(&doc);

        let streamed = best_secs(9, || streamed_ttff(doc.as_bytes()));
        let one_shot = best_secs(9, || one_shot_ttff(&mut warm, &doc));
        result_line(&format!("ttff_streamed_{label}"), streamed * 1e6, "us");
        result_line(&format!("ttff_one_shot_{label}"), one_shot * 1e6, "us");
        flat.push((label, streamed, one_shot));

        let mut group = c.benchmark_group("streaming_ttff");
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("streamed", label), &doc, |b, doc| {
            b.iter(|| black_box(streamed_ttff(doc.as_bytes())))
        });
        group.finish();
    }

    let ttff_1x = flat[0].1;
    let ttff_100x = flat[flat.len() - 1].1;
    assert!(
        ttff_100x <= ttff_1x * FLAT_FACTOR + FLAT_SLACK_SECS,
        "streamed TTFF is not flat: {:.1} us at 1x vs {:.1} us at 100x",
        ttff_1x * 1e6,
        ttff_100x * 1e6
    );
    // The one-shot path at 100x pays the whole document before its first
    // finding; streaming must beat it by a wide margin there.
    let one_shot_100x = flat[flat.len() - 1].2;
    assert!(
        ttff_100x * 5.0 <= one_shot_100x,
        "streaming TTFF should win at 100x: streamed {:.1} us, one-shot {:.1} us",
        ttff_100x * 1e6,
        one_shot_100x * 1e6
    );
}

/// Best-of-`iters` throughput in MiB/s of `doc` linted one-shot and
/// streamed in [`CHUNK`] feeds, both on the same warmed session. The two
/// are timed in alternation, so a slow spell of the host lands on both
/// sides rather than on whichever ran during it.
fn toll_row(session: &mut LintSession, doc: &str, iters: usize) -> (f64, f64) {
    let mib = doc.len() as f64 / (1 << 20) as f64;
    session.check_string(doc); // warm the scratch buffers
    let (mut one_shot, mut streamed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        let started = Instant::now();
        black_box(session.check_string(doc));
        one_shot = one_shot.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let mut diags = Vec::new();
        for chunk in doc.as_bytes().chunks(CHUNK) {
            diags.extend(session.feed(chunk));
        }
        diags.extend(session.finish());
        black_box(diags);
        streamed = streamed.min(started.elapsed().as_secs_f64());
    }
    (mib / one_shot, mib / streamed)
}

fn bench_one_shot_floor(c: &mut Criterion) {
    experiment_header(
        "E20b",
        "one token loop, two sources: big.html one-shot holds the E14 floor; \
         streamed within a fixed factor on big.html and on a tag-dense page",
    );
    let big = big_html();
    let dense = weblint_corpus::generate_document(0xE20, DENSE_BYTES);
    let mut session = LintSession::new();

    let (one_shot_mib_s, streamed_mib_s) = toll_row(&mut session, &big, 15);
    result_line("one_shot_big_mb_per_sec", one_shot_mib_s, "MiB/s");
    result_line("streamed_big_mb_per_sec", streamed_mib_s, "MiB/s");
    let (dense_one_shot, dense_streamed) = toll_row(&mut session, &dense, 61);
    result_line("one_shot_dense_mb_per_sec", dense_one_shot, "MiB/s");
    result_line("streamed_dense_mb_per_sec", dense_streamed, "MiB/s");
    println!(
        "  streamed / one-shot: big.html {:.2}x (gate {STREAM_TOLL}x), \
         dense {:.2}x (gate {DENSE_STREAM_TOLL}x)",
        streamed_mib_s / one_shot_mib_s,
        dense_streamed / dense_one_shot
    );
    assert!(
        streamed_mib_s >= one_shot_mib_s * STREAM_TOLL,
        "streaming tolls the engine on big.html: {streamed_mib_s:.1} MiB/s \
         streamed vs {one_shot_mib_s:.1} MiB/s one-shot"
    );
    assert!(
        dense_streamed >= dense_one_shot * DENSE_STREAM_TOLL,
        "streaming tolls the engine on a tag-dense page: {dense_streamed:.1} MiB/s \
         streamed vs {dense_one_shot:.1} MiB/s one-shot"
    );

    let mut group = c.benchmark_group("streaming_floor");
    group.throughput(Throughput::Bytes(big.len() as u64));
    group.bench_function("one_shot_big", |b| {
        b.iter(|| black_box(session.check_string(black_box(&big))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_ttff, bench_one_shot_floor
}
criterion_main!(benches);
