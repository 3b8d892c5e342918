//! The `corpus` and `hostile` workloads: documents linted in-process,
//! one-shot and rendered, then streamed in 8 KiB and in 512 B feeds,
//! back to back on one thread.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use weblint_core::{format_report, Category, Diagnostic, LintConfig, LintSession, OutputFormat};
use weblint_tokenizer::Tokenizer;

use crate::gen::{corpus_pages, hostile_input, shape_size, SHAPES};
use crate::stats::{best, fresh_setup, median, quantile, self_peak_rss_mib};
use crate::trace::{self_times, totals, Tracer, ROOT};
use crate::{Config, Outcome};

const FEED: usize = 8 << 10;
const FEED_SMALL: usize = 512;
const MIB: f64 = (1 << 20) as f64;
/// Set-up samples taken before the first pass; one more precedes each.
const SETUP_SAMPLES: usize = 5;

/// The first document a fresh session lints when set-up is timed.
const FIRST_USE: &str = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>";

/// Seconds from nothing to a first rendered report: a session built, a
/// small page linted and rendered. Run once in a fresh process (see
/// `perfbench setup-probe`), so the tables the engine and the HTML spec
/// build on first use are built inside the timed span.
pub fn first_use() -> f64 {
    let start = Instant::now();
    let mut session = LintSession::new();
    let diags = session.check_string(FIRST_USE);
    black_box(format_report(&diags, "t.html", OutputFormat::Lint));
    start.elapsed().as_secs_f64()
}

struct Doc {
    name: String,
    text: String,
    /// The hostile shape this input was generated for.
    shape: Option<&'static str>,
    /// The generator planted defects, so the report may not be empty.
    planted: bool,
}

pub fn run_corpus(config: &Config) -> Result<Outcome, String> {
    let mut docs: Vec<Doc> = corpus_pages(config.seed)
        .into_iter()
        .map(|(name, text)| Doc {
            name,
            text,
            shape: None,
            planted: true,
        })
        .collect();
    let big = std::fs::read_to_string("big.html")
        .map_err(|e| format!("big.html at the checkout root: {e}"))?;
    docs.push(Doc {
        name: "big.html".to_string(),
        text: big,
        shape: None,
        planted: false,
    });
    run_docs(config, "corpus", &docs)
}

pub fn run_hostile(config: &Config) -> Result<Outcome, String> {
    let docs: Vec<Doc> = SHAPES
        .iter()
        .map(|&shape| Doc {
            name: format!("{shape}.html"),
            text: hostile_input(shape, config.seed, shape_size(shape)),
            shape: Some(shape),
            planted: true,
        })
        .collect();
    run_docs(config, "hostile", &docs)
}

/// Stream `bytes` through `session` in `chunk`-byte feeds. Records the
/// time to the first diagnostic and, when `carry` is given, the peak of
/// the bytes the session holds between feeds.
fn stream(
    session: &mut LintSession,
    bytes: &[u8],
    chunk: usize,
    first: &mut Option<Duration>,
    mut carry: Option<&mut usize>,
) -> Vec<Diagnostic> {
    let start = Instant::now();
    let mut diags = Vec::new();
    for piece in bytes.chunks(chunk) {
        diags.extend(session.feed(piece));
        if first.is_none() && !diags.is_empty() {
            *first = Some(start.elapsed());
        }
        if let Some(peak) = carry.as_deref_mut() {
            *peak = (*peak).max(session.stream_buffered());
        }
    }
    diags.extend(session.finish());
    if first.is_none() {
        *first = Some(start.elapsed());
    }
    diags
}

/// Per-document timings of one untraced pass, in seconds.
#[derive(Default, Clone, Copy)]
struct Times {
    lint: f64,
    format: f64,
    stream: f64,
    stream512: f64,
}

fn run_docs(config: &Config, workload: &str, docs: &[Doc]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup = || fresh_setup(workload, config.seed);
    let mut setups = (0..SETUP_SAMPLES)
        .map(|_| setup())
        .collect::<Result<Vec<f64>, _>>()?;

    // With tracing on, these untraced passes take part of the time and
    // still give the per-call rates and per-shape times.
    let untraced_budget = if config.trace {
        config.seconds * 0.4
    } else {
        config.seconds
    };
    let mut session = LintSession::new();
    let mut reference: Vec<Option<String>> = vec![None; docs.len()];
    let mut passes: Vec<Vec<Times>> = Vec::new();
    let mut ttff = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < untraced_budget {
        setups.push(setup()?);
        let mut pass = Vec::with_capacity(docs.len());
        for (i, doc) in docs.iter().enumerate() {
            let t0 = Instant::now();
            let diags = session.check_string(&doc.text);
            let t1 = Instant::now();
            let report = format_report(&diags, &doc.name, OutputFormat::Lint);
            let t2 = Instant::now();
            let mut first = None;
            let streamed = stream(&mut session, doc.text.as_bytes(), FEED, &mut first, None);
            let t3 = Instant::now();
            let streamed512 = stream(
                &mut session,
                doc.text.as_bytes(),
                FEED_SMALL,
                &mut None,
                None,
            );
            let t4 = Instant::now();
            check_doc(
                &mut out,
                doc,
                &diags,
                &streamed,
                &streamed512,
                &report,
                &mut reference[i],
            );
            if doc.shape.is_none() {
                ttff.push(first.unwrap_or_default().as_secs_f64());
            }
            pass.push(Times {
                lint: (t1 - t0).as_secs_f64(),
                format: (t2 - t1).as_secs_f64(),
                stream: (t3 - t2).as_secs_f64(),
                stream512: (t4 - t3).as_secs_f64(),
            });
        }
        passes.push(pass);
    }

    // Every figure is built from each document's best time for each call
    // over the passes; a document's full pass is the sum of its calls.
    let per_doc = |f: fn(&Times) -> f64| -> Vec<f64> {
        (0..docs.len())
            .map(|i| best(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>()))
            .collect()
    };
    let calls = [
        per_doc(|t| t.lint),
        per_doc(|t| t.format),
        per_doc(|t| t.stream),
        per_doc(|t| t.stream512),
    ];
    let full_pass: Vec<f64> = (0..docs.len())
        .map(|i| calls.iter().map(|c| c[i]).sum())
        .collect();
    let mib = docs.iter().map(|d| d.text.len() as f64).sum::<f64>() / MIB;
    let rate = |f: fn(&Times) -> f64| mib / per_doc(f).iter().sum::<f64>();
    let ops_ms: Vec<f64> = full_pass.iter().map(|s| s * 1e3).collect();
    out.set("setup_s", median(&setups));
    out.set("mib_s", mib / full_pass.iter().sum::<f64>());
    out.set("p50_ms", median(&ops_ms));
    out.set("p99_ms", quantile(&ops_ms, 0.99));
    out.set("lint_mib_s", rate(|t| t.lint));
    out.set("stream_mib_s", rate(|t| t.stream));
    out.set("stream512_mib_s", rate(|t| t.stream512));
    if !ttff.is_empty() {
        out.set("ttff_us", median(&ttff) * 1e6);
    }
    for (i, doc) in docs.iter().enumerate() {
        let Some(shape) = doc.shape else { continue };
        let per_pass =
            |f: fn(&Times) -> f64| -> Vec<f64> { passes.iter().map(|p| f(&p[i]) * 1e3).collect() };
        out.set(
            &format!("shape.{shape}.oneshot_ms"),
            best(&per_pass(|t| t.lint)),
        );
        out.set(
            &format!("shape.{shape}.stream512_ms"),
            best(&per_pass(|t| t.stream512)),
        );
        out.notes.push(format!(
            "{shape}: {} bytes, one-shot {:.1} ms, 8 KiB feeds {:.1} ms, 512 B feeds {:.1} ms",
            doc.text.len(),
            best(&per_pass(|t| t.lint)),
            best(&per_pass(|t| t.stream)),
            best(&per_pass(|t| t.stream512)),
        ));
    }
    out.notes.push(format!(
        "{workload}: {} pass(es) over {} document(s), {mib:.1} MiB per pass",
        passes.len(),
        docs.len(),
    ));

    if config.trace {
        traced(config, workload, docs, &mut out, &mut reference)?;
    }
    out.set("peak_rss_mib", self_peak_rss_mib());
    Ok(out)
}

/// The checks every pass makes: both streamed runs equal one-shot, the
/// rendered report repeats exactly across passes, and the planted
/// defects are found.
fn check_doc(
    out: &mut Outcome,
    doc: &Doc,
    diags: &[Diagnostic],
    streamed: &[Diagnostic],
    streamed512: &[Diagnostic],
    report: &str,
    reference: &mut Option<String>,
) {
    if doc.planted {
        out.check(!diags.is_empty(), || {
            format!("{}: planted defects not found", doc.name)
        });
    }
    out.check(streamed == diags, || {
        format!(
            "{}: 8 KiB streamed diagnostics differ from one-shot",
            doc.name
        )
    });
    out.check(streamed512 == diags, || {
        format!(
            "{}: 512 B streamed diagnostics differ from one-shot",
            doc.name
        )
    });
    match reference {
        Some(first) => out.check(first == report, || {
            format!("{}: report changed between passes", doc.name)
        }),
        None => *reference = Some(report.to_string()),
    }
}

/// Time `f` as a span when tracing, or just run it.
fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: usize,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, parent, request, f),
        None => f(),
    }
}

/// The traced run: each document through each layer's public function
/// in turn, every call recorded as a span under one root per document.
/// Traced passes alternate with untraced passes of the same calls, and
/// `trace.overhead` is the ratio of their median pass times.
fn traced(
    config: &Config,
    workload: &str,
    docs: &[Doc],
    out: &mut Outcome,
    reference: &mut [Option<String>],
) -> Result<(), String> {
    let tracer = Tracer::default();
    let mut session = LintSession::new();
    let mut walk_config = LintConfig::default();
    for category in [Category::Error, Category::Warning, Category::Style] {
        walk_config.set_category_enabled(category, false);
    }
    let mut walk_only = LintSession::with_config(walk_config);
    let (mut tokens, mut diagnostics, mut carry_peak) = (0usize, 0usize, 0usize);
    let interns_before = session.fallback_interns();
    let mut pass = |tracer: Option<&Tracer>, pass_no: usize| {
        for (i, doc) in docs.iter().enumerate() {
            let request = (pass_no * docs.len() + i) as u64;
            let root = tracer.map_or(ROOT, |t| t.open("input", ROOT, request));
            tokens += span(tracer, "tokenizer", root, request, || {
                Tokenizer::new(&doc.text).count()
            });
            span(tracer, "core.walk", root, request, || {
                black_box(walk_only.check_string(&doc.text))
            });
            let diags = span(tracer, "rules", root, request, || {
                session.check_string(&doc.text)
            });
            let report = span(tracer, "core.format", root, request, || {
                format_report(&diags, &doc.name, OutputFormat::Lint)
            });
            let streamed = span(tracer, "core.session.feed8k", root, request, || {
                stream(
                    &mut session,
                    doc.text.as_bytes(),
                    FEED,
                    &mut None,
                    Some(&mut carry_peak),
                )
            });
            let streamed512 = span(tracer, "core.session.feed512", root, request, || {
                stream(
                    &mut session,
                    doc.text.as_bytes(),
                    FEED_SMALL,
                    &mut None,
                    Some(&mut carry_peak),
                )
            });
            if let Some(tracer) = tracer {
                tracer.close(root);
            }
            diagnostics += diags.len();
            check_doc(
                out,
                doc,
                &diags,
                &streamed,
                &streamed512,
                &report,
                &mut reference[i],
            );
        }
    };
    // Pass times, untraced and traced.
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let budget = config.seconds * 0.6;
    let started = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || started.elapsed().as_secs_f64() < budget {
        // Each round is two passes; every other round the traced one
        // goes first.
        let traced_first = passes / 2 % 2 == 1;
        for traced in [traced_first, !traced_first] {
            let start = Instant::now();
            pass(traced.then_some(&tracer), passes);
            walls[traced as usize].push(start.elapsed().as_secs_f64());
            passes += 1;
        }
    }
    let spans = tracer.spans();
    // Each layer's cost per pass: every document at its best traced
    // pass, summed. A layer's self time is its call minus the call one
    // layer down on the same document; the difference is signed, since
    // two calls can cost the same.
    let layer_ms = |name: &str| -> f64 {
        let mut per_doc = vec![Vec::new(); docs.len()];
        for span in spans.iter().filter(|s| s.name == name) {
            per_doc[span.request as usize % docs.len()].push(span.dur_ns() as f64 / 1e6);
        }
        per_doc.iter().map(|d| best(d)).sum()
    };
    let tokenizer = layer_ms("tokenizer");
    let walk = layer_ms("core.walk");
    let rules = layer_ms("rules");
    out.set("tokenizer.self_ms", tokenizer);
    out.set("tokenizer.tokens", (tokens / passes) as f64);
    out.set("core.walk.self_ms", walk - tokenizer);
    out.set("rules.self_ms", rules - walk);
    out.set("core.diagnostics", (diagnostics / passes) as f64);
    out.set(
        "core.fallback_interns",
        ((session.fallback_interns() - interns_before) / passes as u64) as f64,
    );
    out.set("core.format.self_ms", layer_ms("core.format"));
    out.set("core.session.toll", layer_ms("core.session.feed8k") / rules);
    out.set(
        "core.session.toll512",
        layer_ms("core.session.feed512") / rules,
    );
    out.set("core.session.carry_peak_kib", carry_peak as f64 / 1024.0);
    // Each root holds nothing but the named layer calls, so in-process
    // this share is the tracer's own gaps: about 0 by construction.
    let root_self = self_times(&spans).get("input").copied().unwrap_or(0);
    let root_total = totals(&spans).get("input").copied().unwrap_or(0);
    out.set("unexplained_share", root_self as f64 / root_total as f64);
    out.set("trace.overhead", median(&walls[1]) / median(&walls[0]));
    for doc in docs {
        if let Some(shape) = doc.shape {
            doubling(config, shape, &mut session, out);
        }
    }
    let path = Path::new(&config.out_dir).join(format!("spans-{workload}-{}.tsv", config.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "{workload}: {} traced and {} untraced pass(es), {} spans written to {}",
        walls[1].len(),
        walls[0].len(),
        spans.len(),
        path.display()
    ));
    Ok(())
}

/// How the seconds for one shape grow when its size doubles: one-shot
/// plus 512 B streamed time at the workload's size over the same at
/// half that size. Linear cost reads about 2.
fn doubling(config: &Config, shape: &'static str, session: &mut LintSession, out: &mut Outcome) {
    let full = shape_size(shape);
    let mut cost = |size: usize| -> (f64, f64) {
        let text = hostile_input(shape, config.seed, size);
        let start = Instant::now();
        black_box(session.check_string(&text));
        let one_shot = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(stream(
            session,
            text.as_bytes(),
            FEED_SMALL,
            &mut None,
            None,
        ));
        (one_shot, start.elapsed().as_secs_f64())
    };
    let (half_one, half_512) = cost(full / 2);
    let (one, s512) = cost(full);
    out.set(
        &format!("shape.{shape}.doubling"),
        (one + s512) / (half_one + half_512),
    );
    out.notes.push(format!(
        "{shape}: size x2 -> one-shot x{:.2}, 512 B streamed x{:.2}",
        one / half_one,
        s512 / half_512
    ));
}
