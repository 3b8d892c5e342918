//! End-to-end and per-layer benchmark for weblint-rs.
//!
//! `perfbench --workload <corpus|hostile|serve|crawl> --seed N
//! --seconds S --trace <0|1>` generates the workload's inputs from the
//! seed, drives them through the public API (and, for `serve`, the
//! release `weblint-serve` binary), checks every output, and prints one
//! JSON object as its last line. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` a separate traced run reports the
//! per-layer metrics and writes its spans under the build directory.
//! Any wrong output makes it exit 1. `perfbench setup-probe <workload>
//! SEED` is the child the workloads start to time set-up in a fresh
//! process.

mod crawl;
mod docs;
mod gen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics and their units, printed for every workload with
/// `--trace 0`. The list must match `end_to_end` in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("mib_s", "MiB/s"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics and their units, printed for every workload with
/// `--trace 1`. A layer the workload never reaches reports 0. The list
/// must match `per_layer` in BENCHMARK.json. `p99_ms` is here rather than
/// end to end: on a shared two-core host tail latency moved by up to 27%
/// (interquartile share over ten runs) between calm and busy spells of the
/// host, more than any bound allows.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p99_ms", "ms"),
    ("tokenizer.self_ms", "ms"),
    ("tokenizer.tokens", "count"),
    ("core.walk.self_ms", "ms"),
    ("rules.self_ms", "ms"),
    ("core.diagnostics", "count"),
    ("core.fallback_interns", "count"),
    ("shape.unknown_elements.oneshot_ms", "ms"),
    ("shape.unknown_elements.stream512_ms", "ms"),
    ("shape.unknown_elements.doubling", "ratio"),
    ("shape.unknown_attributes.oneshot_ms", "ms"),
    ("shape.unknown_attributes.stream512_ms", "ms"),
    ("shape.unknown_attributes.doubling", "ratio"),
    ("shape.stray_closes.oneshot_ms", "ms"),
    ("shape.stray_closes.stream512_ms", "ms"),
    ("shape.stray_closes.doubling", "ratio"),
    ("shape.open_script.oneshot_ms", "ms"),
    ("shape.open_script.stream512_ms", "ms"),
    ("shape.open_script.doubling", "ratio"),
    ("shape.open_comment.oneshot_ms", "ms"),
    ("shape.open_comment.stream512_ms", "ms"),
    ("shape.open_comment.doubling", "ratio"),
    ("shape.open_quote.oneshot_ms", "ms"),
    ("shape.open_quote.stream512_ms", "ms"),
    ("shape.open_quote.doubling", "ratio"),
    ("shape.deep_nesting.oneshot_ms", "ms"),
    ("shape.deep_nesting.stream512_ms", "ms"),
    ("shape.deep_nesting.doubling", "ratio"),
    ("shape.wide_attributes.oneshot_ms", "ms"),
    ("shape.wide_attributes.stream512_ms", "ms"),
    ("shape.wide_attributes.doubling", "ratio"),
    ("core.format.self_ms", "ms"),
    ("core.session.toll", "ratio"),
    ("core.session.toll512", "ratio"),
    ("core.session.carry_peak_kib", "KiB"),
    ("lint_mib_s", "MiB/s"),
    ("stream_mib_s", "MiB/s"),
    ("stream512_mib_s", "MiB/s"),
    ("ttff_us", "us"),
    ("service.self_us_p50", "us"),
    ("service.self_us_p99", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("httpd.self_us_p50", "us"),
    ("httpd.self_us_p99", "us"),
    ("httpd.chunked.self_us_p50", "us"),
    ("httpd.chunked.self_us_p99", "us"),
    ("httpd.streamed_share", "ratio"),
    ("httpd.requests_per_conn", "ratio"),
    ("httpd.wakeups_per_req", "ratio"),
    ("httpd.shed", "count"),
    ("serve.goodput_rps", "1/s"),
    ("serve.max_rps", "1/s"),
    ("serve.late_ms_p99", "ms"),
    ("serve.reconnects", "count"),
    ("site.transport.calls", "count"),
    ("site.transport.busy_ms", "ms"),
    ("site.fetch_useful_ratio", "ratio"),
    ("site.retries", "count"),
    ("site.hedges", "count"),
    ("site.hedge_won_ratio", "ratio"),
    ("site.lint_ms", "ms"),
    ("site.waves", "count"),
    ("crawl_pages_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("unexplained_share", "ratio"),
    ("trace.overhead", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// Everything a workload run is given.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered rates of the `serve` ladder, requests per second.
    pub serve_rates: Vec<f64>,
    /// Latency limit a `serve` response must meet to count as goodput.
    pub serve_limit: Duration,
    /// The release `weblint-serve` binary.
    pub serve_bin: String,
    /// Where the traced run writes its spans.
    pub out_dir: String,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric; its name must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        self.metrics.insert(name.to_string(), value);
    }

    /// Count one checked operation; `ok` false counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("WRONG OUTPUT: {}", what()));
            }
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <corpus|hostile|serve|crawl> --seed N --seconds S \
     --trace <0|1> --serve-rates R1,R2,.. --serve-limit-ms MS"
        .to_string()
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut rates = None;
    let mut limit = None;
    // Builds land in $CARGO_TARGET_DIR, as `run.py` arranges.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let mut config = Config {
        seed: 1,
        seconds: 20.0,
        trace: false,
        serve_rates: Vec::new(),
        serve_limit: Duration::ZERO,
        serve_bin: format!("{target}/release/weblint-serve"),
        out_dir: format!("{target}/perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => config.trace = value()? == "1",
            "--serve-rates" => {
                rates = Some(
                    value()?
                        .split(',')
                        .map(|r| r.parse().map_err(|e| format!("--serve-rates: {e}")))
                        .collect::<Result<Vec<f64>, _>>()?,
                )
            }
            "--serve-limit-ms" => {
                let ms: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--serve-limit-ms: {e}"))?;
                limit = Some(ms);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    // The offered rates and the latency limit have no defaults: the
    // benchmark's command in BENCHMARK.json is their one home.
    config.serve_rates = rates.ok_or("--serve-rates is required")?;
    let limit_ms = limit.ok_or("--serve-limit-ms is required")?;
    let positive = |v: f64| v.is_finite() && v > 0.0;
    if !positive(config.seconds)
        || !positive(limit_ms)
        || config.serve_rates.is_empty()
        || !config.serve_rates.iter().all(|&r| positive(r))
    {
        return Err("--seconds, --serve-rates and --serve-limit-ms must be positive".to_string());
    }
    config.serve_limit = Duration::from_secs_f64(limit_ms / 1e3);
    Ok((workload.ok_or("--workload is required")?, config))
}

/// Format a metric value with every digit it has.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// `perfbench setup-probe <workload> <seed>`: time the workload's set-up
/// and first use once, in this fresh process, and print the seconds.
/// The workloads run this as a child to sample `setup_s`, so one-time
/// initialisation (lazily built tables, first-touched code) is paid in
/// every sample.
fn setup_probe(args: &[String]) -> ExitCode {
    let seed = args.get(1).and_then(|s| s.parse().ok());
    let seconds = match (args.first().map(String::as_str), seed) {
        (Some("corpus" | "hostile"), Some(_)) => docs::first_use(),
        (Some("crawl"), Some(seed)) => crawl::first_use(seed),
        _ => {
            eprintln!("usage: perfbench setup-probe <corpus|hostile|crawl> SEED");
            return ExitCode::from(2);
        }
    };
    println!("{seconds}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("setup-probe") {
        return setup_probe(&args[1..]);
    }
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "corpus" => docs::run_corpus(&config),
        "hostile" => docs::run_hostile(&config),
        "serve" => serve::run(&config),
        "crawl" => crawl::run(&config),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {workload}: {message}");
            return ExitCode::from(1);
        }
    };
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("fail_ratio", fail_ratio);

    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value) in &outcome.metrics {
        let unit = unit_of(name).unwrap_or("");
        println!("# {workload} {name} = {} {unit}", number(*value));
    }
    let names: &[(&str, &str)] = if config.trace { PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            None if config.trace => 0.0,
            None => {
                eprintln!("perfbench: {workload} did not measure {name}");
                return ExitCode::from(1);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (name, unit) pairs in `section` of BENCHMARK.json, in order.
    fn metrics_in(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present");
            entry[at + key.len() + 2..]
                .split('"')
                .nth(1)
                .expect("quoted value")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(metrics_in("end_to_end"), owned(&END_TO_END));
        assert_eq!(metrics_in("per_layer"), owned(PER_LAYER));
    }
}
