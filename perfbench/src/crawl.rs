//! The `crawl` workload: a seeded mega-site federation crawled by the
//! sharded robot through a benchmark-owned transport that sleeps a real
//! round trip per HEAD and GET, under a fetch stack with seeded faults,
//! retries, AIMD pacing and hedging.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use weblint_core::{format_report, LintConfig, LintSession, OutputFormat};
use weblint_corpus::{MegaSite, MegaSiteOptions};
use weblint_site::{
    FaultSpec, FetchStack, Fetcher, Robot, RobotOptions, RobotReport, ShardedOptions,
    ShardedReport, Status, Url,
};

use crate::stats::{fresh_setup, median, quantile, self_peak_rss_mib};
use crate::trace::{self_times, totals, Tracer, ROOT};
use crate::{Config, Outcome};

const HOSTS: usize = 6;
const PAGES_PER_HOST: usize = 20;
const SHARDS: usize = 2;
const JOBS: usize = 4;
/// The real round trip every HEAD and GET sleeps.
const RTT: Duration = Duration::from_millis(1);
/// Faults the stack retries past; none of them loses a page.
const FAULTS: &str = "5%:latency+timeout+5xx+reset";
/// Set-up samples taken before the first crawl; one more precedes every
/// fourth.
const SETUP_SAMPLES: usize = 5;
/// The feed size the robot lints fetched bodies in.
const FETCH_CHUNK: usize = 4096;

/// Counters and spans the transport keeps while a crawl runs.
#[derive(Default)]
struct Ledger {
    calls: AtomicU64,
    resolved: Mutex<BTreeSet<String>>,
    /// The traced crawl's root span, when tracing.
    root: Option<(usize, u64)>,
}

/// The benchmark's transport: the generated federation behind a real
/// sleep per request.
#[derive(Clone, Copy)]
struct Transport<'a> {
    site: &'a MegaSite,
    rtt: Duration,
    ledger: &'a Ledger,
    tracer: Option<&'a Tracer>,
}

impl Transport<'_> {
    fn call<T>(&self, url: &Url, f: impl FnOnce(Option<(String, String)>) -> T) -> T {
        let start = Instant::now();
        if !self.rtt.is_zero() {
            std::thread::sleep(self.rtt);
        }
        let found = self.site.resolve(&url.host, &url.path);
        self.ledger.calls.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.ledger
                .resolved
                .lock()
                .expect("ledger lock poisoned")
                .insert(url.to_string());
        }
        let out = f(found);
        if let (Some(tracer), Some((root, request))) = (self.tracer, self.ledger.root) {
            tracer.record("site.transport", root, request, start, Instant::now());
        }
        out
    }
}

impl Fetcher for Transport<'_> {
    fn head(&self, url: &Url) -> (Status, String) {
        self.call(url, |found| match found {
            Some((content_type, _)) => (Status::Ok, content_type),
            None => (Status::NotFound, String::new()),
        })
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        self.call(url, |found| match found {
            Some((content_type, body)) => (Status::Ok, content_type, body),
            None => (Status::NotFound, String::new(), String::new()),
        })
    }
}

fn robot(site: &MegaSite) -> Robot {
    Robot::new(
        RobotOptions::builder()
            .max_pages(site.total_pages() + 8)
            .jobs(JOBS)
            .check_external(false)
            .lint(LintConfig::default())
            .build(),
    )
}

fn starts(site: &MegaSite) -> Vec<Url> {
    site.start_urls()
        .iter()
        .map(|u| Url::parse(u).expect("generated start URL"))
        .collect()
}

/// Seconds from nothing to a first crawl: the robot and its per-shard
/// stacks built, then a one-page site crawled through an instant
/// transport. Run once in a fresh process (see `perfbench setup-probe`),
/// so everything the robot, the stacks and the engine initialise on first
/// use is inside the timed span. The one-page site is generated first,
/// outside it.
pub fn first_use(seed: u64) -> f64 {
    let tiny = MegaSite::new(
        seed,
        &MegaSiteOptions {
            hosts: 1,
            pages_per_host: 1,
            ..MegaSiteOptions::default()
        },
    );
    let spec = FaultSpec::parse(FAULTS).expect("the fault spec parses");
    let ledger = Ledger::default();
    let transport = Transport {
        site: &tiny,
        rtt: Duration::ZERO,
        ledger: &ledger,
        tracer: None,
    };
    let start = Instant::now();
    let robot = robot(&tiny);
    black_box(crawl(&robot, &starts(&tiny), transport, seed, Some(&spec)).ok());
    start.elapsed().as_secs_f64()
}

/// One crawl. `faults` puts the full stack over the transport; without
/// it the transport is used bare.
fn crawl(
    robot: &Robot,
    starts: &[Url],
    transport: Transport<'_>,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Result<ShardedReport, String> {
    let make_stack = |shard: usize| {
        let builder = FetchStack::new(transport);
        match faults {
            Some(spec) => builder
                .faults(spec.clone(), seed.wrapping_add(shard as u64))
                .resilience_defaults()
                .adaptive_defaults()
                .hedging_defaults()
                .build(),
            None => builder.build(),
        }
    };
    let options = ShardedOptions {
        shards: SHARDS,
        seed,
        ..ShardedOptions::default()
    };
    robot
        .crawl_sharded(starts, make_stack, &options)
        .map_err(|e| format!("sharded crawl: {e}"))
}

/// The report rendered canonically, for byte comparison.
fn canonical(report: &RobotReport) -> String {
    let mut out = String::new();
    for page in &report.pages {
        let url = page.url.to_string();
        out.push_str(&format!(
            "{url} depth={} links={}\n",
            page.depth, page.link_count
        ));
        out.push_str(&format_report(&page.diagnostics, &url, OutputFormat::Lint));
    }
    for dead in &report.dead_links {
        out.push_str(&format!(
            "dead {} {} {}\n",
            dead.page, dead.href, dead.reason
        ));
    }
    out
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let site = MegaSite::new(
        config.seed,
        &MegaSiteOptions {
            hosts: HOSTS,
            pages_per_host: PAGES_PER_HOST,
            ..MegaSiteOptions::default()
        },
    );
    let spec = FaultSpec::parse(FAULTS)?;
    let starts = starts(&site);

    let setup = || fresh_setup("crawl", config.seed);
    let mut setups = (0..SETUP_SAMPLES)
        .map(|_| setup())
        .collect::<Result<Vec<f64>, _>>()?;

    // The fault-free, instant crawl every measured crawl must reproduce.
    let robot = robot(&site);
    let ledger = Ledger::default();
    let instant = Transport {
        site: &site,
        rtt: Duration::ZERO,
        ledger: &ledger,
        tracer: None,
    };
    let reference = crawl(&robot, &starts, instant, config.seed, None)?;
    let expected = canonical(&reference.report);
    let pages = reference.report.pages.len();
    if pages != site.total_pages() {
        return Err(format!(
            "the reference crawl reached {pages} of {} live pages",
            site.total_pages()
        ));
    }
    let page_bytes: usize = reference
        .report
        .pages
        .iter()
        .filter_map(|p| site.resolve(&p.url.host, &p.url.path))
        .map(|(_, body)| body.len())
        .sum();

    let untraced_budget = if config.trace {
        config.seconds * 0.4
    } else {
        config.seconds
    };
    let mut walls = Vec::new();
    let (mut retries, mut hedges, mut hedges_won, mut waves) = (0u64, 0u64, 0u64, 0usize);
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < untraced_budget {
        if walls.len() % 4 == 0 {
            setups.push(setup()?);
        }
        let ledger = Ledger::default();
        let transport = Transport {
            site: &site,
            rtt: RTT,
            ledger: &ledger,
            tracer: None,
        };
        let start = Instant::now();
        let run = crawl(&robot, &starts, transport, config.seed, Some(&spec))?;
        walls.push(start.elapsed().as_secs_f64());
        check_crawl(&mut out, &run, &expected, site.total_pages());
        for (_, telemetry) in &run.telemetry {
            retries += telemetry
                .resilience
                .as_ref()
                .map_or(0, |r| r.retries_total());
            if let Some(pacing) = &telemetry.pacing {
                hedges += pacing.hedges_fired_total();
                hedges_won += pacing.hedges_won_total();
            }
        }
        waves += run.waves;
    }
    let crawls = walls.len() as f64;
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("setup_s", median(&setups));
    out.set(
        "mib_s",
        page_bytes as f64 / (1 << 20) as f64 / median(&walls),
    );
    out.set("p50_ms", median(&walls_ms));
    out.set("p99_ms", quantile(&walls_ms, 0.99));
    out.set("crawl_pages_s", pages as f64 / median(&walls));
    out.set("site.retries", retries as f64 / crawls);
    out.set("site.hedges", hedges as f64 / crawls);
    out.set(
        "site.hedge_won_ratio",
        hedges_won as f64 / hedges.max(1) as f64,
    );
    out.set("site.waves", waves as f64 / crawls);
    out.notes.push(format!(
        "crawl: {} crawl(s) of {pages} pages on {HOSTS} hosts, {SHARDS} shards, \
         {} ms RTT, faults {FAULTS}",
        walls.len(),
        RTT.as_millis()
    ));

    if config.trace {
        traced(config, &mut out, &site, &robot, &starts, &spec, &expected)?;
    }
    out.set("peak_rss_mib", self_peak_rss_mib());
    Ok(out)
}

fn check_crawl(out: &mut Outcome, run: &ShardedReport, expected: &str, live: usize) {
    out.check(run.report.pages.len() == live, || {
        format!(
            "crawl reached {} of {live} live pages",
            run.report.pages.len()
        )
    });
    out.check(canonical(&run.report) == expected, || {
        "crawl report differs from the fault-free reference crawl".to_string()
    });
}

/// Traced crawls: every transport call is a span under the crawl's root
/// span, and the fetched bodies are linted again afterwards to price the
/// lint the robot does on its fetch workers. An untraced crawl precedes
/// each traced one, and `trace.overhead` is the ratio of their median
/// wall times.
fn traced(
    config: &Config,
    out: &mut Outcome,
    site: &MegaSite,
    robot: &Robot,
    starts: &[Url],
    spec: &FaultSpec,
    expected: &str,
) -> Result<(), String> {
    let tracer = Tracer::default();
    let mut session = LintSession::new();
    let (mut calls, mut useful, mut lint_s) = (0u64, 0usize, 0.0f64);
    let (mut walls, mut untraced) = (Vec::new(), Vec::new());
    let budget = config.seconds * 0.6;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < budget {
        let ledger = Ledger::default();
        let transport = Transport {
            site,
            rtt: RTT,
            ledger: &ledger,
            tracer: None,
        };
        let start = Instant::now();
        let run = crawl(robot, starts, transport, config.seed, Some(spec))?;
        untraced.push(start.elapsed().as_secs_f64());
        check_crawl(out, &run, expected, site.total_pages());

        let request = walls.len() as u64;
        let root = tracer.open("crawl", ROOT, request);
        let ledger = Ledger {
            root: Some((root, request)),
            ..Ledger::default()
        };
        let transport = Transport {
            site,
            rtt: RTT,
            ledger: &ledger,
            tracer: Some(&tracer),
        };
        let start = Instant::now();
        let run = crawl(robot, starts, transport, config.seed, Some(spec))?;
        walls.push(start.elapsed().as_secs_f64());
        tracer.close(root);
        check_crawl(out, &run, expected, site.total_pages());
        calls += ledger.calls.load(Ordering::Relaxed);
        useful += ledger.resolved.lock().expect("ledger lock poisoned").len();
        for page in &run.report.pages {
            let Some((_, body)) = site.resolve(&page.url.host, &page.url.path) else {
                continue;
            };
            let lint_start = Instant::now();
            for chunk in body.as_bytes().chunks(FETCH_CHUNK) {
                black_box(session.feed(chunk).count());
            }
            black_box(session.finish().count());
            lint_s += lint_start.elapsed().as_secs_f64();
        }
    }
    let crawls = walls.len() as f64;
    let spans = tracer.spans();
    let total = totals(&spans);
    let t = |name: &str| total.get(name).copied().unwrap_or(0) as f64;
    out.set("site.transport.calls", calls as f64 / crawls);
    out.set("site.transport.busy_ms", t("site.transport") / 1e6 / crawls);
    out.set(
        "site.fetch_useful_ratio",
        useful as f64 / calls.max(1) as f64,
    );
    out.set("site.lint_ms", lint_s * 1e3 / crawls);
    let root_self = self_times(&spans).get("crawl").copied().unwrap_or(0) as f64;
    out.set("unexplained_share", root_self / t("crawl"));
    out.set("trace.overhead", median(&walls) / median(&untraced));
    let path = Path::new(&config.out_dir).join(format!("spans-crawl-{}.tsv", config.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "crawl: traced {} crawl(s), {} spans written to {}",
        walls.len(),
        spans.len(),
        path.display()
    ));
    Ok(())
}
