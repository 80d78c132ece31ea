//! The service itself: socket → handler pool → job queue → worker pool →
//! engine → cache.
//!
//! Two fixed thread pools with distinct roles, so a blocked request can
//! never starve the simulations that would unblock it:
//!
//! * **Handler threads** parse requests and write responses. A `POST
//!   /run` cache miss blocks its handler on the job's completion — the
//!   connection *is* the delivery channel — which is why the handler pool
//!   is sized independently of (and larger than) the worker pool.
//! * **Worker threads** pop jobs from the bounded [`JobTable`] and run
//!   the scenario pipeline with a `ProgressProbe` attached, so
//!   `GET /progress/<job>` observes the run live.
//!
//! Backpressure is explicit: when `queue` uncompleted jobs exist, further
//! cache-missing `POST /run`s get 429 immediately — the client retries,
//! the service never buffers unbounded work. Cache hits are never
//! backpressured; they cost a map lookup.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use bench::campaign::json::Json;
use bench::campaign::{spec_hash, CampaignRow};
use bench::scenario::{run_scenario_tapped, ReplayTap, RunTaps};
use bench::wire;
use chain_sim::ReplaySink;

use crate::cache::ResultCache;
use crate::http::{read_request, ChunkedWriter, Request, Response};
use crate::jobs::{Job, JobTable, Submit};

/// How long a blocking `POST /run` parks its handler before answering
/// 202 and letting the client poll instead — bounds handler occupancy so
/// a fleet of slow misses cannot hold the whole pool forever. Generous:
/// the largest accepted spec simulates in well under this on release
/// builds.
pub const SYNC_WAIT: std::time::Duration = std::time::Duration::from_secs(300);

/// Service configuration (all knobs of the `gatherd` binary).
#[derive(Clone, Debug)]
pub struct Config {
    /// Bind address; port 0 picks an ephemeral port (tests, CI).
    pub addr: String,
    /// Simulation worker threads; 0 = one per available core.
    pub workers: usize,
    /// Connection handler threads; 0 = default (16).
    pub handlers: usize,
    /// Job queue capacity (uncompleted jobs admitted before 429).
    pub queue: usize,
    /// Cache directory (`gatherd.jsonl` lives here).
    pub dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:7117".to_string(),
            workers: 0,
            handlers: 0,
            queue: 64,
            dir: PathBuf::from("bench-results"),
        }
    }
}

impl Config {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    }

    /// Handler pool size. The default scales with the worker pool so the
    /// module-level invariant (handlers outnumber workers) holds on any
    /// core count — otherwise enough blocking misses could park every
    /// handler while workers sit idle behind them.
    fn effective_handlers(&self) -> usize {
        if self.handlers > 0 {
            self.handlers
        } else {
            (2 * self.effective_workers() + 4).max(16)
        }
    }
}

/// Monotone service counters (the healthz and metrics payloads).
#[derive(Debug, Default)]
pub struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    bad_requests: AtomicU64,
    /// Cache rows that could not be appended to the store file (disk
    /// full, unwritable dir). The row still serves from memory; a
    /// nonzero value tells the operator persistence is degraded.
    persist_errors: AtomicU64,
    /// Simulations actually executed by the worker pool (cache hits and
    /// joins excluded).
    jobs_run: AtomicU64,
    /// Replay blobs persisted to the side store.
    replays_stored: AtomicU64,
    /// `/watch` streams currently open.
    watchers_active: AtomicU64,
    /// `/watch` streams ever opened.
    watchers_total: AtomicU64,
}

/// Latency histograms: per-endpoint request service time, job queue
/// wait, and simulation run duration — all in microseconds. Both
/// `/metrics` expositions (flat text and `?json`) walk `Latencies::all`.
#[derive(Default)]
struct Latencies {
    run_hit: obs::Histogram,
    run_miss: obs::Histogram,
    run_other: obs::Histogram,
    result: obs::Histogram,
    progress: obs::Histogram,
    metrics: obs::Histogram,
    healthz: obs::Histogram,
    replay: obs::Histogram,
    other: obs::Histogram,
    queue_wait: obs::Histogram,
    run_duration: obs::Histogram,
}

impl Latencies {
    /// The histogram a finished request records into: routes mirror
    /// [`route`], and `POST /run` splits on the cache verdict the
    /// response carries (429/400 answers have no verdict → `run_other`).
    fn request_hist(&self, req: &Request, resp: &Response) -> &obs::Histogram {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/run") => {
                let verdict = resp
                    .headers
                    .iter()
                    .find(|(name, _)| name == "X-Gatherd-Cache");
                match verdict.map(|(_, v)| v.as_str()) {
                    Some("hit") => &self.run_hit,
                    Some("miss") => &self.run_miss,
                    _ => &self.run_other,
                }
            }
            ("GET", "/healthz") => &self.healthz,
            ("GET", "/metrics") => &self.metrics,
            ("GET", path) if path.starts_with("/result/") => &self.result,
            ("GET", path) if path.starts_with("/progress/") => &self.progress,
            ("GET", path) if path.starts_with("/replay/") => &self.replay,
            _ => &self.other,
        }
    }

    /// Every histogram with its exposition name, sorted — both
    /// renderings walk this, so their name order is the same.
    fn all(&self) -> [(&'static str, &obs::Histogram); 11] {
        [
            ("queue_wait_us", &self.queue_wait),
            ("request_us_healthz", &self.healthz),
            ("request_us_metrics", &self.metrics),
            ("request_us_other", &self.other),
            ("request_us_progress", &self.progress),
            ("request_us_replay", &self.replay),
            ("request_us_result", &self.result),
            ("request_us_run_hit", &self.run_hit),
            ("request_us_run_miss", &self.run_miss),
            ("request_us_run_other", &self.run_other),
            ("run_duration_us", &self.run_duration),
        ]
    }
}

/// Everything the handler and worker threads share.
pub struct ServiceState {
    cache: ResultCache,
    jobs: JobTable,
    stats: Stats,
    lats: Latencies,
    workers: usize,
    shutdown: AtomicBool,
    addr: SocketAddr,
    start: std::time::Instant,
}

impl ServiceState {
    /// The result cache (tests inspect it).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }
}

/// A bound, not-yet-running service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    handlers: usize,
}

/// Connection hand-off queue between the accept loop and the handler
/// pool. Bounded like the job queue: when every handler is busy and
/// `cap` connections already wait, further accepts are dropped on the
/// floor (the client sees a closed connection and retries) instead of
/// accumulating file descriptors without limit.
struct ConnQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>,
    avail: Condvar,
    cap: usize,
}

impl ConnQueue {
    /// `true` if the connection was admitted.
    fn push(&self, stream: TcpStream) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.0.len() >= self.cap {
            return false; // dropping the stream closes the socket
        }
        q.0.push_back(stream);
        drop(q);
        self.avail.notify_one();
        true
    }

    fn close(&self) {
        self.queue.lock().unwrap().1 = true;
        self.avail.notify_all();
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(stream) = q.0.pop_front() {
                return Some(stream);
            }
            if q.1 {
                return None;
            }
            q = self.avail.wait(q).unwrap();
        }
    }
}

impl Server {
    /// Bind the listener and open the cache. The service is not serving
    /// until [`Server::run`].
    pub fn bind(cfg: Config) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = ResultCache::open(&cfg.dir)?;
        let state = Arc::new(ServiceState {
            cache,
            jobs: JobTable::new(cfg.queue),
            stats: Stats::default(),
            lats: Latencies::default(),
            workers: cfg.effective_workers(),
            shutdown: AtomicBool::new(false),
            addr,
            start: std::time::Instant::now(),
        });
        Ok(Server {
            listener,
            state,
            handlers: cfg.effective_handlers(),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Shared state (tests inspect the cache through it).
    pub fn state(&self) -> Arc<ServiceState> {
        self.state.clone()
    }

    /// Serve until a `POST /shutdown` arrives, then drain and join both
    /// pools. Blocking; spawn it for tests ([`Server::spawn`]).
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            state,
            handlers,
        } = self;

        let workers: Vec<JoinHandle<()>> = (0..state.workers)
            .map(|_| {
                let state = state.clone();
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();

        let conns = Arc::new(ConnQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            avail: Condvar::new(),
            // Enough headroom for a full handler turnover plus a burst;
            // beyond this, accepts are shed instead of buffered.
            cap: 8 * handlers.max(1),
        });
        let handler_pool: Vec<JoinHandle<()>> = (0..handlers)
            .map(|_| {
                let state = state.clone();
                let conns = conns.clone();
                std::thread::spawn(move || {
                    while let Some(mut stream) = conns.pop() {
                        handle_connection(&state, &mut stream);
                    }
                })
            })
            .collect();

        for stream in listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                // An unadmitted stream is dropped here: connection shed.
                Ok(stream) => {
                    let _ = conns.push(stream);
                }
                // Persistent accept errors (fd exhaustion) must not
                // busy-spin the accept loop at 100% CPU.
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }

        // Drain: stop admitting, finish queued jobs, join everything.
        conns.close();
        for h in handler_pool {
            let _ = h.join();
        }
        state.jobs.stop();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Bind and serve on a background thread — the test/CI entry point.
    pub fn spawn(cfg: Config) -> io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr();
        let state = server.state();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// A running background service (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// `host:port` of the running service.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Shared state (tests inspect the cache through it).
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Request shutdown over the wire and join the server thread.
    pub fn shutdown(self) -> io::Result<()> {
        let _ = crate::client::request(&self.addr(), "POST", "/shutdown", None);
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

fn worker_loop(state: &ServiceState) {
    while let Some(job) = state.jobs.pop() {
        state.stats.jobs_run.fetch_add(1, Ordering::Relaxed);
        state
            .lats
            .queue_wait
            .record_duration_us(job.submitted.elapsed());
        // A panicking simulation must not wedge the spec: catch it, fail
        // the job (waking waiters and releasing the single-flight slot so
        // a resubmission runs fresh), and keep the worker alive.
        let spec = job.spec;
        let sink = ReplaySink::new();
        let taps = RunTaps {
            probe: Some(job.slot.clone()),
            replay: job.ring.as_ref().map(|ring| ReplayTap {
                sink: sink.clone(),
                ring: Some(ring.clone()),
            }),
            phases: None,
        };
        let run_start = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            run_scenario_tapped(&spec, taps)
        }));
        state
            .lats
            .run_duration
            .record_duration_us(run_start.elapsed());
        match outcome {
            Ok(result) => {
                let row = CampaignRow::from_result(&result);
                // Two racing misses of one spec can both reach here only
                // if they raced past single-flight (one completed between
                // check and submit); the cache keeps the first row so
                // every response for this hash serves identical bytes.
                let (row, persist) = state.cache.insert_or_get(&job.hash, row);
                if let Some(e) = persist {
                    state.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "gatherd: cache append failed for {} (serving from memory): {e}",
                        job.hash
                    );
                }
                if job.records_replay() {
                    let blob = sink.take();
                    match state.cache.put_replay(&job.hash, &blob) {
                        Ok(()) => {
                            state.stats.replays_stored.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            state.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("gatherd: replay write failed for {}: {e}", job.hash);
                        }
                    }
                }
                state.jobs.complete(&job, row);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                job.slot.finish();
                // The writer never reached on_finish: close the ring by
                // hand so watchers drain instead of spinning forever.
                if let Some(ring) = &job.ring {
                    ring.close();
                }
                state.jobs.fail(&job, format!("simulation panicked: {msg}"));
            }
        }
    }
}

fn handle_connection(state: &ServiceState, stream: &mut TcpStream) {
    // Keep-alive loop: serve requests off this socket until the client
    // opts out, the framing breaks, or the idle read times out.
    loop {
        let Ok(req) = read_request(stream) else {
            return; // unparseable framing or idle timeout: drop
        };
        // `/watch` streams an unbounded chunked response and always
        // closes the connection afterwards; it bypasses the buffered
        // request/response path entirely.
        if req.method == "GET" {
            if let Some(id) = req.path.strip_prefix("/watch/") {
                watch(state, stream, id);
                return;
            }
        }
        let t0 = std::time::Instant::now();
        let (response, shutdown_after) = route(state, &req);
        state
            .lats
            .request_hist(&req, &response)
            .record_duration_us(t0.elapsed());
        let keep_alive = req.keep_alive && !shutdown_after;
        let write_ok = response.write_to(stream, keep_alive).is_ok();
        if shutdown_after {
            state.shutdown.store(true, Ordering::SeqCst);
            state.jobs.stop();
            // Wake the accept loop so it notices the flag.
            let _ = TcpStream::connect(state.addr);
        }
        if !keep_alive || !write_ok {
            return;
        }
    }
}

fn error_body(msg: &str) -> String {
    Json::obj(vec![("error", Json::str(msg))]).to_compact()
}

/// The response envelope around a result row: `spec_hash`, the job id
/// when one ran, the cache verdict, and the row's store JSON — the
/// `result` object is byte-identical across hits and the original miss
/// because [`CampaignRow::to_store_json`] is deterministic.
fn envelope(hash: &str, job: Option<u64>, cached: bool, row: &CampaignRow) -> String {
    let mut pairs = vec![("spec_hash", Json::str(hash))];
    if let Some(id) = job {
        pairs.push(("job", Json::u64(id)));
    }
    pairs.push(("cached", Json::Bool(cached)));
    pairs.push(("result", row.to_store_json()));
    Json::obj(pairs).to_compact()
}

fn route(state: &ServiceState, req: &Request) -> (Response, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/run") => (post_run(state, req), false),
        ("GET", "/healthz") => (healthz(state), false),
        ("GET", "/metrics") => {
            if req.has_query_flag("json") {
                (metrics_json(state), false)
            } else {
                (metrics(state), false)
            }
        }
        ("POST", "/shutdown") => (Response::json(200, r#"{"status":"shutting-down"}"#), true),
        ("GET", path) => {
            if let Some(hash) = path.strip_prefix("/result/") {
                (get_result(state, hash), false)
            } else if let Some(id) = path.strip_prefix("/progress/") {
                (get_progress(state, id), false)
            } else if let Some(hash) = path.strip_prefix("/replay/") {
                (get_replay(state, hash), false)
            } else {
                (Response::json(404, error_body("no such endpoint")), false)
            }
        }
        ("POST", _) => (Response::json(404, error_body("no such endpoint")), false),
        _ => (Response::json(405, error_body("method not allowed")), false),
    }
}

fn post_run(state: &ServiceState, req: &Request) -> Response {
    let bad = |msg: String| {
        state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        Response::json(400, error_body(&msg))
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return bad("body is not utf-8".to_string());
    };
    let value = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return bad(format!("malformed JSON: {e}")),
    };
    let spec = match wire::spec_from_json(&value) {
        Ok(s) => s,
        Err(e) => return bad(e),
    };
    let replay = req.has_query_flag("replay");
    if replay && spec.strategy.is_open_chain() {
        return bad(format!(
            "strategy '{}' runs outside the engine; replay recording requires a closed-chain \
             strategy",
            spec.strategy.name()
        ));
    }
    // The Euclidean backend has no hop-code log: replay (and therefore
    // /watch, which requires a recording job) is a grid-kernel feature.
    if replay && spec.strategy.is_euclid() {
        return bad(format!(
            "strategy '{}' runs on the Euclidean backend; replay recording (and /watch) \
             requires a grid strategy",
            spec.strategy.name()
        ));
    }
    let hash = spec_hash(&spec);

    // A `?replay` request is a hit only when both the row and the
    // recorded blob exist; a row alone re-simulates once to record (the
    // original row keeps answering — see the worker's insert_or_get).
    if let Some(row) = state.cache.get(&hash) {
        if !replay || state.cache.has_replay(&hash) {
            state.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Response::json(200, envelope(&hash, None, true, &row))
                .header("X-Gatherd-Cache", "hit");
        }
    }
    state.stats.misses.fetch_add(1, Ordering::Relaxed);

    let job = match state.jobs.submit(spec, hash.clone(), replay) {
        Submit::New(job) | Submit::Joined(job) => job,
        Submit::Full => {
            state.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let body = Json::obj(vec![
                ("error", Json::str("job queue full, retry later")),
                ("queue_capacity", Json::usize(state.jobs.capacity())),
            ])
            .to_compact();
            return Response::json(429, body).header("Retry-After", "1");
        }
    };

    if req.has_query_flag("async") {
        let body = Json::obj(vec![
            ("spec_hash", Json::str(&hash)),
            ("job", Json::u64(job.id)),
            ("cached", Json::Bool(false)),
            ("state", Json::str(job.state_name())),
        ])
        .to_compact();
        return Response::json(202, body).header("X-Gatherd-Cache", "miss");
    }

    match job.wait_timeout(SYNC_WAIT) {
        Some(Ok(row)) => Response::json(200, envelope(&hash, Some(job.id), false, &row))
            .header("X-Gatherd-Cache", "miss"),
        Some(Err(msg)) => Response::json(500, error_body(&msg)),
        // Patience exhausted: free this handler thread; the job keeps
        // running and the client can poll /progress and /result.
        None => {
            let body = Json::obj(vec![
                ("spec_hash", Json::str(&hash)),
                ("job", Json::u64(job.id)),
                ("cached", Json::Bool(false)),
                ("state", Json::str(job.state_name())),
                (
                    "error",
                    Json::str(format!(
                        "still {} after {}s; poll /progress/{} then /result/{hash}",
                        job.state_name(),
                        SYNC_WAIT.as_secs(),
                        job.id
                    )),
                ),
            ])
            .to_compact();
            Response::json(202, body).header("X-Gatherd-Cache", "miss")
        }
    }
}

fn get_result(state: &ServiceState, hash: &str) -> Response {
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Response::json(400, error_body("spec hash must be 16 hex digits"));
    }
    match state.cache.get(hash) {
        Some(row) => {
            state.stats.hits.fetch_add(1, Ordering::Relaxed);
            Response::json(200, envelope(hash, None, true, &row)).header("X-Gatherd-Cache", "hit")
        }
        None => Response::json(404, error_body(&format!("no cached result for '{hash}'"))),
    }
}

fn get_progress(state: &ServiceState, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::json(400, error_body("job id must be an integer"));
    };
    let Some(job) = state.jobs.job(id) else {
        return Response::json(404, error_body(&format!("no such job {id}")));
    };
    let snap = job.slot.snapshot();
    let state_name = job.state_name();
    let body = Json::obj(vec![
        ("job", Json::u64(id)),
        ("spec_hash", Json::str(&job.hash)),
        ("state", Json::str(state_name)),
        ("round", Json::u64(snap.round)),
        ("len", Json::usize(snap.len)),
        ("removed", Json::usize(snap.removed)),
        ("guard_cancels", Json::u64(snap.guard_cancels)),
        ("wall_us", Json::u64(snap.wall_us)),
        ("finished", Json::Bool(snap.finished)),
    ])
    .to_compact();
    Response::json(200, body)
}

fn get_replay(state: &ServiceState, hash: &str) -> Response {
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Response::json(400, error_body("spec hash must be 16 hex digits"));
    }
    // Deliberately does not touch the hit/miss counters: serving a
    // stored replay is an artifact download, not a result-cache event.
    match state.cache.get_replay(hash) {
        Some(blob) => Response::binary(200, blob),
        None => Response::json(404, error_body(&format!("no stored replay for '{hash}'"))),
    }
}

/// How often the watch loop re-polls an idle ring. Frames arrive far
/// faster than this during a run; the sleep only paces the tail wait.
const WATCH_POLL: std::time::Duration = std::time::Duration::from_millis(2);

/// How long a single chunk write to a stalled watcher may block before
/// the stream is abandoned — frees the handler thread; the simulation
/// never notices (the ring is lock-free on the publish side).
const WATCH_WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Stream a recording job's live frames as one chunked response: every
/// frame the watcher keeps pace with, the latest frame when it falls
/// behind, the finished frame last.
fn watch(state: &ServiceState, stream: &mut TcpStream, id: &str) {
    let reply_err = |stream: &mut TcpStream, resp: Response| {
        let _ = resp.write_to(stream, false);
    };
    let Ok(id) = id.parse::<u64>() else {
        return reply_err(
            stream,
            Response::json(400, error_body("job id must be an integer")),
        );
    };
    let Some(job) = state.jobs.job(id) else {
        return reply_err(
            stream,
            Response::json(404, error_body(&format!("no such job {id}"))),
        );
    };
    let Some(ring) = job.ring.clone() else {
        return reply_err(
            stream,
            Response::json(
                400,
                error_body(&format!(
                    "job {id} is not recording; submit with POST /run?replay to watch"
                )),
            ),
        );
    };

    state.stats.watchers_total.fetch_add(1, Ordering::Relaxed);
    state.stats.watchers_active.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(WATCH_WRITE_TIMEOUT));
    let result = stream_frames(stream, &ring, &job);
    state.stats.watchers_active.fetch_sub(1, Ordering::Relaxed);
    let _ = result; // client hang-ups are not service errors
}

fn stream_frames(stream: &mut TcpStream, ring: &chain_sim::FrameRing, job: &Job) -> io::Result<()> {
    let mut w = ChunkedWriter::start(stream, 200, "application/octet-stream")?;
    let mut cursor = 0u64;
    loop {
        let mut wrote = false;
        while let Some(frame) = ring.next(&mut cursor) {
            w.chunk(&frame)?;
            wrote = true;
        }
        if ring.is_closed() && cursor >= ring.head() {
            break;
        }
        // A failed job may close nothing and publish nothing more; its
        // terminal state ends the stream too.
        if !wrote {
            if matches!(job.state(), crate::jobs::JobState::Failed(_)) {
                break;
            }
            std::thread::sleep(WATCH_POLL);
        }
    }
    w.finish()
}

fn healthz(state: &ServiceState) -> Response {
    let body = Json::obj(vec![
        ("status", Json::str("ok")),
        ("workers", Json::usize(state.workers)),
        ("queue_depth", Json::usize(state.jobs.depth())),
        ("queue_capacity", Json::usize(state.jobs.capacity())),
        ("cache_entries", Json::usize(state.cache.len())),
        ("hits", Json::u64(state.stats.hits.load(Ordering::Relaxed))),
        (
            "misses",
            Json::u64(state.stats.misses.load(Ordering::Relaxed)),
        ),
        (
            "rejected",
            Json::u64(state.stats.rejected.load(Ordering::Relaxed)),
        ),
        (
            "bad_requests",
            Json::u64(state.stats.bad_requests.load(Ordering::Relaxed)),
        ),
        (
            "persist_errors",
            Json::u64(state.stats.persist_errors.load(Ordering::Relaxed)),
        ),
    ])
    .to_compact();
    Response::json(200, body)
}

/// The scalar metric set, shared by the flat and JSON expositions.
fn metric_lines(state: &ServiceState) -> Vec<(&'static str, u64)> {
    let s = &state.stats;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    vec![
        ("uptime_seconds", state.start.elapsed().as_secs()),
        ("workers", state.workers as u64),
        ("queue_depth", state.jobs.depth() as u64),
        ("queue_capacity", state.jobs.capacity() as u64),
        ("cache_entries", state.cache.len() as u64),
        ("cache_hits", load(&s.hits)),
        ("cache_misses", load(&s.misses)),
        ("jobs_run", load(&s.jobs_run)),
        ("rejected", load(&s.rejected)),
        ("bad_requests", load(&s.bad_requests)),
        ("persist_errors", load(&s.persist_errors)),
        ("replays_stored", load(&s.replays_stored)),
        ("watchers_active", load(&s.watchers_active)),
        ("watchers_total", load(&s.watchers_total)),
    ]
}

/// The text metrics scrape: one `gatherd_<name> <value>` line per
/// counter/gauge, stable names, no labels — greppable by hand and
/// ingestible by anything that speaks the flat exposition style. The
/// latency histograms follow as six lines each (`_count`, `_sum`,
/// `_p50`, `_p90`, `_p99`, `_max`; values in microseconds).
fn metrics(state: &ServiceState) -> Response {
    let lines = metric_lines(state);
    let mut body = String::with_capacity(lines.len() * 32);
    for (name, value) in lines {
        body.push_str(&format!("gatherd_{name} {value}\n"));
    }
    for (name, h) in state.lats.all() {
        let s = h.summary();
        for (suffix, v) in [
            ("count", s.count),
            ("sum", s.sum),
            ("p50", s.p50),
            ("p90", s.p90),
            ("p99", s.p99),
            ("max", s.max),
        ] {
            body.push_str(&format!("gatherd_{name}_{suffix} {v}\n"));
        }
    }
    Response::text(200, body)
}

/// One histogram digest for the `?json` exposition — same schema the
/// `BENCH_service.json` artifact uses per endpoint.
fn hist_json(h: &obs::Histogram) -> Json {
    let s = h.summary();
    Json::obj(vec![
        ("count", Json::u64(s.count)),
        ("sum_us", Json::u64(s.sum)),
        ("p50_us", Json::u64(s.p50)),
        ("p90_us", Json::u64(s.p90)),
        ("p99_us", Json::u64(s.p99)),
        ("max_us", Json::u64(s.max)),
    ])
}

/// `GET /metrics?json`: the same scalars under `"counters"` plus the
/// latency digests under `"histograms"` — machine-readable without a
/// line parser.
fn metrics_json(state: &ServiceState) -> Response {
    let counters = Json::obj(
        metric_lines(state)
            .into_iter()
            .map(|(name, value)| (name, Json::u64(value)))
            .collect(),
    );
    let hists = Json::obj(
        state
            .lats
            .all()
            .into_iter()
            .map(|(name, h)| (name, hist_json(h)))
            .collect(),
    );
    let body = Json::obj(vec![("counters", counters), ("histograms", hists)]).to_compact();
    Response::json(200, body)
}
