//! The `serve` workload: the release `weblint-serve` binary in its
//! default event-loop mode with its default result cache, driven by an
//! open-loop generator at fixed offered rates over at most two
//! pipelined keep-alive connections from a single thread.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::Rng;
use weblint_core::{format_report, LintSession, OutputFormat};
use weblint_gateway::Gateway;
use weblint_service::{LintService, ServiceConfig};

use crate::gen::{make_unique, rng_for, serve_pool, UNIQUE_MARK};
use crate::stats::{best, median, proc_status_kib, quantile};
use crate::trace::{Tracer, ROOT};
use crate::{Config, Outcome};

/// Requests the server answers on one connection before closing it
/// (`weblint-serve`'s default `-max-requests`). The generator opens a
/// fresh connection after this many instead of pipelining into a
/// connection that is about to close.
const MAX_PER_CONN: usize = 100;
/// Connections the generator keeps open: one per core of the
/// two-core hosts this runs on.
const CONNS: usize = 2;
/// Chunk size of `Transfer-Encoding: chunked` uploads.
const CHUNK: usize = 8 << 10;
/// How long a phase may take to drain after its last scheduled send.
const DRAIN: Duration = Duration::from_secs(3);
/// A request that loses its connection is sent again at most this often.
const RETRIES: u32 = 3;
const NAME: &str = "p.html";
/// Servers started only to time set-up: `SETUPS_BEFORE` before the
/// first round and `SETUPS_PER_ROUND` after every round.
const SETUPS_BEFORE: usize = 5;
const SETUPS_PER_ROUND: usize = 4;
/// Rounds of the rate ladder per run, each on a server of its own;
/// latency percentiles are taken per round and the best round is
/// reported, and the peak memory is the median round's, so a slow spell
/// of the shared host cannot set a run's figure.
const ROUNDS: usize = 10;

/// The request classes of the mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Unique 4–16 KiB page, plain lint report (streamed on the loop).
    Text,
    /// Unique 4–16 KiB page, `Accept: application/json`.
    Json,
    /// A page from a small hot set, `Accept: text/html`: the gateway
    /// report, linted through the service pool and its result cache.
    HotHtml,
    /// Unique 4–16 KiB page, `Accept: text/html`: pool, cache misses.
    UniqueHtml,
    /// Unique 64–256 KiB page sent `Transfer-Encoding: chunked`.
    Chunked,
}

/// Every block of 20 consecutive requests holds exactly these kinds, in
/// a seeded order, so the shares never drift with the seed or the run
/// length: 40% text, 25% JSON, 20% hot HTML, 10% unique HTML, 5%
/// chunked. The shares are chosen, not measured; LEDGER.md gives the
/// reason for each.
const BLOCK: [Kind; 20] = [
    Kind::Text,
    Kind::Text,
    Kind::Text,
    Kind::Text,
    Kind::Text,
    Kind::Text,
    Kind::Text,
    Kind::Text,
    Kind::Json,
    Kind::Json,
    Kind::Json,
    Kind::Json,
    Kind::Json,
    Kind::HotHtml,
    Kind::HotHtml,
    Kind::HotHtml,
    Kind::HotHtml,
    Kind::UniqueHtml,
    Kind::UniqueHtml,
    Kind::Chunked,
];

/// A pool page and where its uniqueness placeholder sits.
struct Page {
    text: String,
    mark: usize,
}

impl Page {
    fn new(text: String) -> Page {
        let mark = text
            .find(UNIQUE_MARK)
            .expect("serve pages carry the placeholder");
        Page { text, mark }
    }

    /// The page made unique for request `id`.
    fn unique(&self, id: u64) -> Vec<u8> {
        let mut body = self.text.clone().into_bytes();
        body[self.mark..self.mark + UNIQUE_MARK.len()].copy_from_slice(unique_tag(id).as_bytes());
        body
    }
}

/// What `make_unique` writes over the placeholder for request `id`.
fn unique_tag(id: u64) -> String {
    make_unique(UNIQUE_MARK, id)
}

/// The response body a request must get back.
#[derive(Clone, Copy)]
enum Expect {
    SmallText(usize),
    SmallJson(usize),
    HotHtml(usize),
    /// The HTML report embeds the source, so it carries the request's
    /// tag wherever the placeholder was.
    UniqueHtml(usize, u64),
    BigText(usize),
}

/// Seeded pages and the responses the server must give for them,
/// rendered in-process by the same library code.
struct Mix {
    seed: u64,
    small: Vec<Page>,
    hot: Vec<String>,
    big: Vec<Page>,
    small_text: Vec<String>,
    small_json: Vec<String>,
    /// Each small page's HTML report, split at the placeholder.
    small_html: Vec<Vec<String>>,
    hot_html: Vec<String>,
    big_text: Vec<String>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let small = serve_pool(seed, 10, 384, 4 << 10, 16 << 10);
        let hot = serve_pool(seed, 11, 24, 4 << 10, 16 << 10);
        let big = serve_pool(seed, 12, 16, 64 << 10, 256 << 10);
        let gateway = Gateway::default();
        let mut session = LintSession::new();
        let mut html_session = LintSession::with_config(gateway.lint_config().clone());
        let mut text = |pages: &[String], format| -> Vec<String> {
            pages
                .iter()
                .map(|p| format_report(&session.check_string(p), NAME, format))
                .collect()
        };
        let small_text = text(&small, OutputFormat::Lint);
        let small_json = text(&small, OutputFormat::Json);
        let big_text = text(&big, OutputFormat::Lint);
        let mut html = |pages: &[String]| -> Vec<String> {
            pages
                .iter()
                .map(|p| gateway.render(NAME, p, &html_session.check_string(p)))
                .collect()
        };
        let small_html = html(&small)
            .iter()
            .map(|r| r.split(UNIQUE_MARK).map(str::to_string).collect())
            .collect();
        let hot_html = html(&hot);
        Mix {
            seed,
            small: small.into_iter().map(Page::new).collect(),
            hot,
            big: big.into_iter().map(Page::new).collect(),
            small_text,
            small_json,
            small_html,
            hot_html,
            big_text,
        }
    }

    /// Request number `id` of the seeded stream: its bytes on the wire,
    /// the body it must get back, and the document bytes it carries.
    fn request(&self, id: u64) -> Req {
        let block = id / BLOCK.len() as u64;
        let mut order = BLOCK;
        let mut shuffle = rng_for(self.seed, 20, block);
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.random_range(0..=i));
        }
        let kind = order[(id % BLOCK.len() as u64) as usize];
        let mut rng = rng_for(self.seed, 21, id);
        let small = rng.random_range(0..self.small.len());
        let (body, expect, accept) = match kind {
            Kind::Text => (self.small[small].unique(id), Expect::SmallText(small), None),
            Kind::Json => (
                self.small[small].unique(id),
                Expect::SmallJson(small),
                Some("application/json"),
            ),
            Kind::HotHtml => {
                let p = rng.random_range(0..self.hot.len());
                (
                    self.hot[p].clone().into_bytes(),
                    Expect::HotHtml(p),
                    Some("text/html"),
                )
            }
            Kind::UniqueHtml => (
                self.small[small].unique(id),
                Expect::UniqueHtml(small, id),
                Some("text/html"),
            ),
            Kind::Chunked => {
                // One per block: walk the size ladder in order.
                let p = block as usize % self.big.len();
                (self.big[p].unique(id), Expect::BigText(p), None)
            }
        };
        Req {
            wire: wire(&body, accept, kind == Kind::Chunked),
            expect,
            doc_bytes: body.len(),
        }
    }

    /// Whether `body` is exactly the response `expect` names.
    fn matches(&self, expect: Expect, body: &[u8]) -> bool {
        match expect {
            Expect::SmallText(p) => body == self.small_text[p].as_bytes(),
            Expect::SmallJson(p) => body == self.small_json[p].as_bytes(),
            Expect::HotHtml(p) => body == self.hot_html[p].as_bytes(),
            Expect::BigText(p) => body == self.big_text[p].as_bytes(),
            Expect::UniqueHtml(p, id) => {
                let tag = unique_tag(id);
                let parts = &self.small_html[p];
                let mut rest = body;
                for (i, part) in parts.iter().enumerate() {
                    let Some(after) = rest.strip_prefix(part.as_bytes()) else {
                        return false;
                    };
                    rest = after;
                    if i + 1 < parts.len() {
                        let Some(after) = rest.strip_prefix(tag.as_bytes()) else {
                            return false;
                        };
                        rest = after;
                    }
                }
                rest.is_empty()
            }
        }
    }
}

/// A `POST /lint` on the wire, `Content-Length` or chunked.
fn wire(body: &[u8], accept: Option<&str>, chunked: bool) -> Vec<u8> {
    let mut head = format!("POST /lint?name={NAME} HTTP/1.1\r\nHost: perfbench\r\n");
    if let Some(accept) = accept {
        head.push_str(&format!("Accept: {accept}\r\n"));
    }
    let mut out = Vec::with_capacity(body.len() + 256);
    if chunked {
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        out.extend_from_slice(head.as_bytes());
        for piece in body.chunks(CHUNK) {
            out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            out.extend_from_slice(piece);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
    } else {
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body);
    }
    out
}

struct Req {
    wire: Vec<u8>,
    expect: Expect,
    doc_bytes: usize,
}

/// A parsed response: status, whether the server closes after it, body.
struct Response {
    status: u16,
    close: bool,
    body: Vec<u8>,
}

/// Parse one complete response from the front of `buf`; returns it and
/// the bytes it took, or `None` until more bytes arrive.
fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let (mut length, mut close) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    let body = buf[start..start + length].to_vec();
    Ok(Some((
        Response {
            status,
            close,
            body,
        },
        start + length,
    )))
}

/// The server under test, killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Start the binary on an ephemeral port and wait until `/health`
    /// answers 200.
    fn spawn(bin: &str) -> Result<Server, String> {
        let mut command = Command::new(bin);
        command
            .args(["-port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            command.pre_exec(|| {
                sys::die_with_parent();
                sys::lower_priority();
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("starting {bin}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        let mut server = Server {
            child,
            addr: addr.unwrap_or_default(),
            _stdout: stdout,
        };
        if read.is_err() || server.addr.is_empty() {
            return Err(format!("{bin} did not announce its address: {line:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut conn) = TcpStream::connect(&server.addr) {
                let reply = roundtrip(
                    &mut conn,
                    b"GET /health HTTP/1.1\r\nHost: perfbench\r\n\r\n",
                );
                if matches!(reply, Ok(ref r) if r.status == 200) {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                let _ = server.child.kill();
                return Err("the server never answered /health".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn metrics(&self) -> Result<String, String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let reply = roundtrip(
            &mut conn,
            b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n",
        )?;
        String::from_utf8(reply.body).map_err(|_| "non-UTF-8 /metrics".to_string())
    }
}

/// One blocking request and its response.
fn roundtrip(conn: &mut TcpStream, request: &[u8]) -> Result<Response, String> {
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.write_all(request).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    loop {
        if let Some((response, _)) = parse_response(&buf)? {
            return Ok(response);
        }
        match conn.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// CPU seconds the server's threads have run, to the nanosecond: the sum
/// of the first field of every `/proc/<pid>/task/<tid>/schedstat`.
fn cpu_seconds(server: &Server) -> Result<f64, String> {
    let dir = format!("/proc/{}/task", server.child.id());
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("reading {dir}: {e}"))?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(ns as f64 / 1e9)
}

/// Counters from the server's `/metrics` page.
#[derive(Default, Debug, Clone, Copy)]
struct ServerCounters {
    accepted: f64,
    wakeups: f64,
    served: f64,
    streamed: f64,
    shed: f64,
    cache_hits: f64,
    cache_misses: f64,
    coalesced: f64,
}

/// The numbers on the first line of `/metrics` that starts with `prefix`
/// and contains `marker`.
fn numbers(text: &str, prefix: &str, marker: &str) -> Vec<f64> {
    text.lines()
        .map(str::trim)
        .find(|l| l.starts_with(prefix) && l.contains(marker))
        .map(|l| {
            l.split(|c: char| !c.is_ascii_digit() && c != '.')
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn counters(text: &str) -> ServerCounters {
    let first = |prefix, marker| {
        numbers(text, prefix, marker)
            .first()
            .copied()
            .unwrap_or(0.0)
    };
    let nth =
        |prefix, marker, i: usize| numbers(text, prefix, marker).get(i).copied().unwrap_or(0.0);
    ServerCounters {
        accepted: first("conns:", "accepted"),
        wakeups: nth("loop:", "wakeup", 1),
        served: first("reqs:", "served"),
        streamed: nth("reqs:", "served", 1),
        shed: first("load:", "shed"),
        cache_hits: first("cache:", "hit"),
        cache_misses: nth("cache:", "hit", 1),
        coalesced: numbers(text, "load:", "coalesced")
            .last()
            .copied()
            .unwrap_or(0.0),
    }
}

// --- the generator ---------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
        fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;

    /// Ask the kernel to kill this process when its parent dies, so a
    /// benchmark killed mid-run cannot leave its server behind.
    pub fn die_with_parent() {
        // SAFETY: PR_SET_PDEATHSIG takes one integer argument, the
        // signal; the call touches no memory of this process.
        unsafe {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
        }
    }

    const PRIO_PROCESS: c_int = 0;
    /// Niceness of the server under test.
    const SERVER_NICE: c_int = 10;

    /// Run this process (the server) below the generator's priority, so
    /// the generator is not starved of the shared cores: a send it makes
    /// late is then the server's doing, not a scheduling accident.
    pub fn lower_priority() {
        // SAFETY: setpriority on the calling process takes plain
        // integers and touches no memory of this process.
        unsafe {
            setpriority(PRIO_PROCESS, 0, SERVER_NICE);
        }
    }

    /// Wait until a descriptor is ready or `timeout` passes, with
    /// nanosecond resolution (`poll` only takes milliseconds).
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let timeout = Timespec {
            tv_sec: timeout.as_secs().min(60) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `fds.len()` structs laid out as C `struct pollfd`; `timeout`
        // lives across the call; a null signal mask leaves the mask
        // unchanged. The return value only says how many are ready,
        // which the caller learns from `revents`.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &timeout,
                std::ptr::null(),
            );
        }
    }
}

struct Pending {
    id: u64,
    req: Req,
    due: Instant,
    /// When the request was first handed to a connection.
    sent: Instant,
    tries: u32,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
    assigned: usize,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    ok: u64,
    good: u64,
    failed: u64,
    doc_bytes: u64,
    /// Each answered request: id, when it was due, sent and answered.
    spans: Vec<(u64, Instant, Instant, Instant)>,
}

struct Generator<'a> {
    mix: &'a Mix,
    addr: String,
    conns: Vec<Option<Conn>>,
    /// Whether each slot has held a connection: filling such a slot
    /// again is a reconnect.
    used: Vec<bool>,
    backlog: VecDeque<Pending>,
    next_id: u64,
    reconnects: u64,
    limit: Duration,
    notes: Vec<String>,
}

impl<'a> Generator<'a> {
    fn new(mix: &'a Mix, limit: Duration) -> Generator<'a> {
        Generator {
            mix,
            addr: String::new(),
            conns: (0..CONNS).map(|_| None).collect(),
            used: vec![false; CONNS],
            backlog: VecDeque::new(),
            next_id: 0,
            reconnects: 0,
            limit,
            notes: Vec::new(),
        }
    }

    /// Send to the server at `addr` from now on, on new connections.
    fn retarget(&mut self, addr: &str) {
        self.addr = addr.to_string();
        self.conns.iter_mut().for_each(|c| *c = None);
        self.used.iter_mut().for_each(|u| *u = false);
    }

    fn connect(&mut self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
            assigned: 0,
        })
    }

    fn inflight(&self) -> usize {
        self.conns.iter().flatten().map(|c| c.inflight.len()).sum()
    }

    /// Hand backlog requests to connections with room: an empty slot
    /// gets a fresh connection, a connection that has been given
    /// [`MAX_PER_CONN`] requests takes no more.
    fn assign(&mut self, phase: &mut Phase) -> Result<(), String> {
        while !self.backlog.is_empty() {
            let mut target: Option<usize> = None;
            for slot in 0..self.conns.len() {
                let load = match &self.conns[slot] {
                    None => 0,
                    Some(c) if c.assigned >= MAX_PER_CONN => continue,
                    Some(c) => c.inflight.len(),
                };
                if target
                    .is_none_or(|t| load < self.conns[t].as_ref().map_or(0, |c| c.inflight.len()))
                {
                    target = Some(slot);
                }
            }
            let Some(slot) = target else { return Ok(()) };
            if self.conns[slot].is_none() {
                let conn = self.connect()?;
                self.conns[slot] = Some(conn);
                if self.used[slot] {
                    self.reconnects += 1;
                }
                self.used[slot] = true;
            }
            let mut pending = self.backlog.pop_front().expect("backlog not empty");
            if pending.tries == 0 {
                pending.sent = Instant::now();
                let late = pending.sent.saturating_duration_since(pending.due);
                phase.lateness.push(late.as_secs_f64());
            }
            let conn = self.conns[slot].as_mut().expect("slot filled");
            conn.out.extend_from_slice(&pending.req.wire);
            conn.assigned += 1;
            conn.inflight.push_back(pending);
        }
        Ok(())
    }

    /// Write what the sockets accept, read what has arrived, and settle
    /// every complete response.
    fn pump(&mut self, phase: &mut Phase) -> Result<(), String> {
        let mut buf = [0u8; 64 << 10];
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let mut lost = false;
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        lost = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            let mut closed = lost;
            if !lost {
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
            }
            let now = Instant::now();
            while let Some((response, used)) = parse_response(&conn.inbuf)? {
                conn.inbuf.drain(..used);
                let Some(pending) = conn.inflight.pop_front() else {
                    return Err("a response arrived for no request".to_string());
                };
                let latency = now.saturating_duration_since(pending.due);
                let correct =
                    response.status == 200 && self.mix.matches(pending.req.expect, &response.body);
                if correct {
                    phase.ok += 1;
                    phase.doc_bytes += pending.req.doc_bytes as u64;
                    if latency <= self.limit {
                        phase.good += 1;
                    }
                    phase.latencies.push(latency.as_secs_f64());
                } else {
                    phase.failed += 1;
                    if phase.failed <= 3 {
                        self.notes.push(format!(
                            "WRONG OUTPUT: request {}: status {}, {} byte body",
                            pending.id,
                            response.status,
                            response.body.len()
                        ));
                    }
                }
                phase
                    .spans
                    .push((pending.id, pending.due, pending.sent, now));
                if response.close {
                    closed = true;
                    break;
                }
            }
            if closed {
                // Whatever was sent after the closing response goes out
                // again on a fresh connection.
                let conn = self.conns[slot].take().expect("slot was open");
                for mut pending in conn.inflight.into_iter().rev() {
                    pending.tries += 1;
                    if pending.tries > RETRIES {
                        phase.failed += 1;
                    } else {
                        self.backlog.push_front(pending);
                    }
                }
            }
        }
        Ok(())
    }

    fn poll(&self, timeout: Duration) {
        let mut fds: Vec<sys::PollFd> = self
            .conns
            .iter()
            .flatten()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN | if c.out.is_empty() { 0 } else { sys::POLLOUT },
                revents: 0,
            })
            .collect();
        if fds.is_empty() {
            std::thread::sleep(timeout);
        } else {
            sys::wait(&mut fds, timeout);
        }
    }

    fn take_request(&mut self, due: Instant) -> Pending {
        let id = self.next_id;
        self.next_id += 1;
        Pending {
            id,
            req: self.mix.request(id),
            due,
            sent: due,
            tries: 0,
        }
    }

    /// Send at `rate` requests per second, evenly spaced, for
    /// `duration`, whatever the responses do; then wait for the last
    /// responses.
    fn open_loop(&mut self, rate: f64, duration: Duration) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let count = (rate * duration.as_secs_f64()).round() as u64;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now();
        let mut issued = 0u64;
        loop {
            let now = Instant::now();
            while issued < count && start + interval.mul_f64(issued as f64) <= now {
                let due = start + interval.mul_f64(issued as f64);
                let pending = self.take_request(due);
                self.backlog.push_back(pending);
                issued += 1;
            }
            self.assign(&mut phase)?;
            self.pump(&mut phase)?;
            self.assign(&mut phase)?;
            if issued == count && self.backlog.is_empty() && self.inflight() == 0 {
                break;
            }
            if now > start + duration + DRAIN {
                phase.failed += (self.backlog.len() + self.inflight()) as u64;
                self.backlog.clear();
                self.conns.iter_mut().for_each(|c| *c = None);
                break;
            }
            let wait = if issued < count {
                (start + interval.mul_f64(issued as f64)).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(10)
            };
            self.poll(wait);
        }
        Ok(phase)
    }
}

// --- the workload ----------------------------------------------------

pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = Mix::new(config.seed);

    // Set-up is timed on extra servers, each stopped once it answers.
    let spawn = || -> Result<f64, String> {
        let start = Instant::now();
        let server = Server::spawn(&config.serve_bin)?;
        let took = start.elapsed().as_secs_f64();
        drop(server);
        Ok(took)
    };
    let mut setups = (0..SETUPS_BEFORE)
        .map(|_| spawn())
        .collect::<Result<Vec<_>, _>>()?;
    let mut generator = Generator::new(&mix, config.serve_limit);
    // The traced run splits its time between an untraced and a traced
    // pass over the same ladder.
    let share = if config.trace { 0.4 } else { 1.0 };
    let step = Duration::from_secs_f64(
        config.seconds * share / (ROUNDS * config.serve_rates.len()) as f64,
    );
    let mut rounds: Vec<Vec<(f64, Phase)>> = Vec::new();
    let mut round_cpu_s = Vec::new();
    let mut round_peak_mib = Vec::new();
    // Each round's /metrics counters, before and after.
    let mut round_counters = Vec::new();
    for _ in 0..ROUNDS {
        let server = Server::spawn(&config.serve_bin)?;
        generator.retarget(&server.addr);
        let before = counters(&server.metrics()?);
        let cpu_before = cpu_seconds(&server)?;
        rounds.push(ladder(&mut generator, config, step)?);
        round_cpu_s.push(cpu_seconds(&server)? - cpu_before);
        round_counters.push((before, counters(&server.metrics()?)));
        round_peak_mib.push(peak_rss_mib(&server)?);
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(spawn()?);
        }
    }
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", median(&round_peak_mib));

    let ms = |p: &Phase| p.latencies.iter().map(|l| l * 1e3).collect::<Vec<f64>>();
    let per_round = |q: f64| -> Vec<f64> {
        rounds
            .iter()
            .map(|round| {
                quantile(
                    &round.iter().flat_map(|(_, p)| ms(p)).collect::<Vec<_>>(),
                    q,
                )
            })
            .collect()
    };
    let phases = || rounds.iter().flatten();
    // Each round is one repeat of the ladder; the figures are the best
    // round's.
    let cpu_s_per_mib: Vec<f64> = rounds
        .iter()
        .zip(&round_cpu_s)
        .map(|(round, cpu_s)| {
            cpu_s / (round.iter().map(|(_, p)| p.doc_bytes).sum::<u64>() as f64 / (1 << 20) as f64)
        })
        .collect();
    out.set("mib_s", 1.0 / best(&cpu_s_per_mib));
    out.set("p50_ms", best(&per_round(0.5)));
    out.set("p99_ms", best(&per_round(0.99)));
    let show = |q: f64| -> String {
        per_round(q)
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "serve: per-round p50 [{}] p99 [{}] ms",
        show(0.5),
        show(0.99)
    ));
    let lateness: Vec<f64> = phases()
        .flat_map(|(_, p)| p.lateness.iter().map(|l| l * 1e3))
        .collect();
    let ladder_s = step.as_secs_f64() * (ROUNDS * config.serve_rates.len()) as f64;
    out.set(
        "serve.goodput_rps",
        phases().map(|(_, p)| p.good).sum::<u64>() as f64 / ladder_s,
    );
    out.set("serve.late_ms_p99", quantile(&lateness, 0.99));
    // Per offered rate, pooled over the rounds: the highest rate whose
    // 99th percentile latency and lateness stay within the limit, with
    // nothing failed, is the sustained rate.
    let limit_ms = config.serve_limit.as_secs_f64() * 1e3;
    let mut max_rps = 0.0f64;
    for &rate in &config.serve_rates {
        let at_rate: Vec<&Phase> = phases()
            .filter(|(r, _)| *r == rate)
            .map(|(_, p)| p)
            .collect();
        let latency: Vec<f64> = at_rate.iter().flat_map(|p| ms(p)).collect();
        let late: Vec<f64> = at_rate
            .iter()
            .flat_map(|p| p.lateness.iter().map(|l| l * 1e3))
            .collect();
        let failed: u64 = at_rate.iter().map(|p| p.failed).sum();
        let (p99, late_p99) = (quantile(&latency, 0.99), quantile(&late, 0.99));
        if failed == 0 && p99 <= limit_ms && late_p99 <= limit_ms {
            max_rps = max_rps.max(rate);
        }
        out.notes.push(format!(
            "serve: {rate} req/s offered: {} answered, {failed} failed, p50 {:.3} ms, \
             p99 {p99:.3} ms, late p99 {late_p99:.3} ms",
            latency.len(),
            median(&latency),
        ));
    }
    out.set("serve.max_rps", max_rps);
    out.set("serve.reconnects", generator.reconnects as f64);
    let d = |f: fn(&ServerCounters) -> f64| -> f64 {
        round_counters
            .iter()
            .map(|(before, after)| f(after) - f(before))
            .sum()
    };
    let lookups = d(|c| c.cache_hits) + d(|c| c.cache_misses);
    out.set(
        "service.cache_hit_ratio",
        d(|c| c.cache_hits) / lookups.max(1.0),
    );
    out.set("service.coalesced", d(|c| c.coalesced));
    let served = d(|c| c.served).max(1.0);
    out.set("httpd.streamed_share", d(|c| c.streamed) / served);
    out.set(
        "httpd.requests_per_conn",
        served / d(|c| c.accepted).max(1.0),
    );
    out.set("httpd.wakeups_per_req", d(|c| c.wakeups) / served);
    out.set("httpd.shed", d(|c| c.shed));
    for (_, phase) in phases() {
        out.attempted += phase.ok + phase.failed;
        out.failed += phase.failed;
    }
    out.notes.push(format!(
        "serve: {ROUNDS} round(s) of the ladder, {:.2} s of server CPU; {} reconnect(s) \
         after {MAX_PER_CONN} requests per connection",
        round_cpu_s.iter().sum::<f64>(),
        generator.reconnects
    ));

    if config.trace {
        let untraced: Vec<f64> = rounds
            .iter()
            .flatten()
            .flat_map(|(_, p)| p.latencies.clone())
            .collect();
        let server = Server::spawn(&config.serve_bin)?;
        generator.retarget(&server.addr);
        traced(
            config,
            &mix,
            &server,
            &mut generator,
            step,
            &untraced,
            &mut out,
        )?;
    }
    out.notes.append(&mut generator.notes);
    Ok(out)
}

/// Peak resident memory of the server process so far, in MiB.
fn peak_rss_mib(server: &Server) -> Result<f64, String> {
    let kib = proc_status_kib(&server.child.id().to_string(), "VmHWM:")
        .ok_or("cannot read the server's peak RSS")?;
    Ok(kib / 1024.0)
}

/// One open-loop phase per offered rate.
fn ladder(
    generator: &mut Generator<'_>,
    config: &Config,
    step: Duration,
) -> Result<Vec<(f64, Phase)>, String> {
    config
        .serve_rates
        .iter()
        .map(|&rate| Ok((rate, generator.open_loop(rate, step)?)))
        .collect()
}

/// The traced run: the ladder again with a span per request, then
/// unloaded probes that price each layer on single requests.
fn traced(
    config: &Config,
    mix: &Mix,
    server: &Server,
    generator: &mut Generator<'_>,
    step: Duration,
    untraced_latencies: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Tracer::default();
    let mut traced_latencies = Vec::new();
    let mut late = Vec::new();
    for &rate in &config.serve_rates {
        let phase = generator.open_loop(rate, step)?;
        out.attempted += phase.ok + phase.failed;
        out.failed += phase.failed;
        traced_latencies.extend(phase.latencies.iter().copied());
        late.extend(phase.lateness.iter().copied());
        for &(id, due, sent, done) in &phase.spans {
            let root = tracer.record("serve.request", ROOT, id, due, done);
            tracer.record("serve.late", root, id, due, sent);
        }
    }
    out.set(
        "trace.overhead",
        median(&traced_latencies) / median(untraced_latencies),
    );

    // Unloaded probes, one request at a time on one connection. Each is
    // a root span holding the in-process lint and render of the same
    // document and the round trip through the server; the server's own
    // share is the round trip minus the in-process lint and render.
    let mut session = LintSession::new();
    let mut conn = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut core_us = Vec::new();
    let mut probe = |id: u64, doc: &str, chunked: bool| -> Result<(f64, bool), String> {
        let root = tracer.open("probe", ROOT, id);
        let t0 = Instant::now();
        let diags = session.check_string(doc);
        let t1 = Instant::now();
        let expected = format_report(&diags, NAME, OutputFormat::Lint);
        let t2 = Instant::now();
        tracer.record("core.lint", root, id, t0, t1);
        tracer.record("core.format", root, id, t1, t2);
        let request = wire(doc.as_bytes(), None, chunked);
        let start = Instant::now();
        let reply = roundtrip(&mut conn, &request)?;
        let end = Instant::now();
        let layer = if chunked {
            "httpd.chunked"
        } else {
            "httpd.buffered"
        };
        tracer.record(layer, root, id, start, end);
        tracer.close(root);
        if reply.close {
            conn = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        }
        let core = (t2 - t0).as_secs_f64() * 1e6;
        if !chunked {
            core_us.push(core);
        }
        let ok = reply.status == 200 && reply.body == expected.as_bytes();
        Ok(((end - start).as_secs_f64() * 1e6 - core, ok))
    };
    let mut buffered = Vec::new();
    let mut chunked = Vec::new();
    for i in 0..200u64 {
        let id = 1_000_000 + i;
        let doc = String::from_utf8(mix.small[i as usize % mix.small.len()].unique(id))
            .expect("generated pages are UTF-8");
        let (self_us, ok) = probe(id, &doc, false)?;
        out.check(ok, || format!("probe {i}: wrong buffered response"));
        buffered.push(self_us);
    }
    for i in 0..48u64 {
        let id = 2_000_000 + i;
        let doc = String::from_utf8(mix.big[i as usize % mix.big.len()].unique(id))
            .expect("generated pages are UTF-8");
        let (self_us, ok) = probe(id, &doc, true)?;
        out.check(ok, || format!("probe {i}: wrong chunked response"));
        chunked.push(self_us);
    }
    out.set("httpd.self_us_p50", median(&buffered));
    out.set("httpd.self_us_p99", quantile(&buffered, 0.99));
    out.set("httpd.chunked.self_us_p50", median(&chunked));
    out.set("httpd.chunked.self_us_p99", quantile(&chunked, 0.99));

    // The pool alone, in-process: submit and wait minus the lint of the
    // same unique document.
    let service = LintService::new(ServiceConfig::default());
    let mut pool_self = Vec::new();
    for i in 0..200u64 {
        let id = 3_000_000 + i;
        let doc = String::from_utf8(mix.small[i as usize % mix.small.len()].unique(id))
            .expect("generated pages are UTF-8");
        let root = tracer.open("service.probe", ROOT, id);
        let start = Instant::now();
        let direct = session.check_string(&doc);
        let lint = start.elapsed();
        tracer.record("core.lint", root, id, start, start + lint);
        let start = Instant::now();
        let pooled = service
            .submit(doc.as_str())
            .map_err(|e| format!("submit: {e:?}"))?
            .wait()
            .map_err(|e| format!("wait: {e}"))?;
        let wait = start.elapsed();
        tracer.record("service.submit_wait", root, id, start, start + wait);
        tracer.close(root);
        out.check(pooled == direct, || {
            format!("service probe {i}: pooled lint differs")
        });
        pool_self.push((wait.as_secs_f64() - lint.as_secs_f64()) * 1e6);
    }
    service.shutdown();
    out.set("service.self_us_p50", median(&pool_self));
    out.set("service.self_us_p99", quantile(&pool_self, 0.99));

    // The share of the loaded median latency that the generator's
    // lateness and the unloaded layer costs (in-process lint and render,
    // the server's own share) do not explain: queueing under load.
    let explained_ms = (median(&late) * 1e6 + median(&core_us) + median(&buffered)) / 1e3;
    out.set(
        "unexplained_share",
        1.0 - explained_ms / (median(&traced_latencies) * 1e3),
    );

    let path = Path::new(&config.out_dir).join(format!("spans-serve-{}.tsv", config.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "serve: traced ladder and {} probes; spans written to {}",
        buffered.len() + chunked.len() + pool_self.len(),
        path.display()
    ));
    Ok(())
}
