//! The `service-mix` workload: an in-process `gatherd` with one worker,
//! driven over loopback by two closed-loop clients, one on a keep-alive
//! connection and one opening a connection per request.
//!
//! Each client's pass is a fixed shuffled script of [`PASS_REQUESTS`]
//! requests: 85% `POST /run` hits over the warm set, 10% misses (each a
//! distinct-seed rectangle `n = 256` paper spec), and one `GET /result`
//! and one `GET /metrics`. One thread drives both clients, taking their
//! scripts in turn, so one request is in flight at a time: a miss costs
//! one paper run and never waits behind another miss, and no two
//! requests compete for the cores.

use std::path::Path;
use std::time::{Duration, Instant};

use bench::campaign::json::Json;
use bench::campaign::{spec_hash, CampaignRow};
use bench::{run_scenario, wire, ScenarioSpec};
use gatherd::{Config, Server, ServerHandle};
use obs::TraceEvents;
use workloads::SplitMix64;

use crate::client::{one_shot, KeepAlive, Reply, Spans};
use crate::layers::{self, EngineLayers};
use crate::specs::{self, ServiceInputs, Workload, WARM_SPECS};
use crate::stats::{median, percentile, ratio};
use crate::{Check, RunOutput};

/// Requests per client per pass, and the script's mix.
pub const PASS_REQUESTS: usize = 40;
const PASS_MISSES: usize = 4;
const PASS_HITS: usize = PASS_REQUESTS - PASS_MISSES - 2;

/// Passes between two repeated set-ups. The first server booted serves
/// the run; every this many passes a spare server is booted, filled and
/// shut down while the clients wait, so that `setup_s` (the median set-up)
/// samples the whole run.
const SETUP_EVERY: usize = 16;

/// Cap on the new-connection client's requests per run. The server
/// closes first, so TIME_WAIT lands on the server's side of each
/// connection, not on a client ephemeral port, and every run listens on
/// a fresh port; the cap keeps a run far below the ~28k ephemeral ports
/// all the same.
const NC_BUDGET: usize = 8000;

/// Passes per run: the connection budget, so every run measures the same
/// number of passes unless the time runs out first.
const MAX_PASSES: usize = NC_BUDGET / PASS_REQUESTS;

/// Misses re-run in process by the traced run to measure the engine
/// layers on this workload's own inputs.
const MISS_SAMPLE: u64 = 16;

#[derive(Clone, Copy, Debug)]
enum Op {
    Hit(usize),
    Miss,
    Result(usize),
    Metrics,
}

/// The fixed request script of one client's pass: a pure function of
/// the workload seed, the client and the pass index.
fn script(seed: u64, client: u64, pass: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ (client << 56) ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let warm = WARM_SPECS as u64;
    let mut ops: Vec<Op> = (0..PASS_HITS)
        .map(|_| Op::Hit(rng.below(warm) as usize))
        .collect();
    ops.extend((0..PASS_MISSES).map(|_| Op::Miss));
    ops.extend([Op::Result(rng.below(warm) as usize), Op::Metrics]);
    rng.shuffle(&mut ops);
    ops
}

/// The `result` object of a `POST /run` or `GET /result` envelope: the
/// last field, so everything after its key but the closing brace.
fn result_part(body: &str) -> Option<&str> {
    let at = body.find("\"result\":")?;
    body.get(at + 9..body.len().checked_sub(1)?)
}

/// The warm set as the cache holds it.
struct Warm {
    specs: Vec<ScenarioSpec>,
    bodies: Vec<String>,
    hashes: Vec<String>,
    results: Vec<String>,
    rows: Vec<CampaignRow>,
}

/// Boot a server and load the warm set through `POST /run`.
fn set_up(
    inputs: &ServiceInputs,
    dir: &Path,
    check: &mut Check,
) -> std::io::Result<(ServerHandle, Warm)> {
    let _ = std::fs::remove_dir_all(dir);
    let handle = Server::spawn(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        handlers: 4,
        queue: 64,
        dir: dir.to_path_buf(),
    })?;
    let mut ka = KeepAlive::new(&handle.addr());
    let mut warm = Warm {
        specs: inputs.warm.clone(),
        bodies: Vec::new(),
        hashes: Vec::new(),
        results: Vec::new(),
        rows: Vec::new(),
    };
    for spec in &inputs.warm {
        let body = wire::spec_to_json(spec).to_compact();
        let hash = spec_hash(spec);
        let reply = ka.request("POST", "/run", &body)?;
        let result = result_part(&reply.body).unwrap_or_default().to_string();
        let row = Json::parse(&result)
            .ok()
            .and_then(|v| CampaignRow::from_json(&v).ok());
        let ok = reply.status == 200
            && reply.cache.as_deref() == Some("miss")
            && reply.body.contains(&hash)
            && row.as_ref().is_some_and(|r| r.outcome == "gathered");
        check.op(ok, || {
            format!("warm fill {spec:?}: HTTP {} {}", reply.status, reply.body)
        });
        warm.bodies.push(body);
        warm.hashes.push(hash);
        warm.results.push(result);
        warm.rows.extend(row);
    }
    Ok((handle, warm))
}

/// The load generator: both clients, driven in turn from one thread.
struct Driver<'a> {
    addr: String,
    seed: u64,
    warm: &'a Warm,
    miss_base: u64,
    expected_miss: &'a CampaignRow,
    /// Misses sent so far: the next miss's index in the miss stream.
    misses: u64,
    /// Request ids handed out so far (trace span ids).
    ids: u64,
    ka: KeepAlive,
    /// What each client saw: keep-alive, then new-connection.
    logs: [Log; 2],
    trace: &'a TraceEvents,
}

/// What one client saw, in microseconds per request.
#[derive(Default)]
struct Log {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    connect_us: Vec<f64>,
    ttfb_hit_us: Vec<f64>,
    ttfb_miss_us: Vec<f64>,
    read_us: Vec<f64>,
    requests: u64,
    check: Check,
}

impl Log {
    /// A log sized for a whole run, so its growth never shows in
    /// `peak_rss_mb`.
    fn sized() -> Log {
        let cap = || Vec::with_capacity(NC_BUDGET);
        Log {
            hit_us: cap(),
            miss_us: cap(),
            connect_us: cap(),
            ttfb_hit_us: cap(),
            ttfb_miss_us: cap(),
            read_us: cap(),
            ..Log::default()
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn record_spans(trace: &TraceEvents, start: Instant, spans: &Spans, id: u64) {
    let tid = obs::trace_tid();
    trace.complete("request", tid, start, spans.total(), Some(("id", id)));
    let mut at = start;
    for (name, d) in [
        ("connect", spans.connect),
        ("send", spans.send),
        ("ttfb", spans.ttfb),
        ("read", spans.read),
    ] {
        if !d.is_zero() {
            trace.complete(name, tid, at, d, Some(("id", id)));
        }
        at += d;
    }
}

impl Driver<'_> {
    /// One pass: both clients' scripts, one request of each in turn.
    fn pass(&mut self, pass: u64, traced: bool) {
        let scripts = [script(self.seed, 0, pass), script(self.seed, 1, pass)];
        for k in 0..PASS_REQUESTS {
            for (client, ops) in scripts.iter().enumerate() {
                self.send(client, ops[k], traced);
            }
        }
    }

    /// Send one request from `client` (0 keep-alive, 1 new connection)
    /// and check and log its reply.
    fn send(&mut self, client: usize, op: Op, traced: bool) {
        let mut miss_seed = 0;
        let (method, path, body) = match op {
            Op::Hit(i) => ("POST", "/run".to_string(), self.warm.bodies[i].clone()),
            Op::Miss => {
                let spec = specs::miss_spec(self.miss_base, self.misses);
                self.misses += 1;
                miss_seed = spec.seed;
                (
                    "POST",
                    "/run".to_string(),
                    wire::spec_to_json(&spec).to_compact(),
                )
            }
            Op::Result(i) => (
                "GET",
                format!("/result/{}", self.warm.hashes[i]),
                String::new(),
            ),
            Op::Metrics => ("GET", "/metrics".to_string(), String::new()),
        };
        let id = self.ids;
        self.ids += 1;
        let start = Instant::now();
        let reply = if client == 0 {
            self.ka.request(method, &path, &body)
        } else {
            one_shot(&self.addr, method, &path, &body)
        };
        self.logs[client].requests += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.logs[client].check.op(false, || format!("{op:?}: {e}"));
                return;
            }
        };
        if traced {
            record_spans(self.trace, start, &reply.spans, id);
        }
        let ok = self.verify(op, miss_seed, &reply);
        let log = &mut self.logs[client];
        log.check.op(ok, || {
            format!(
                "{op:?}: HTTP {} {:?} {}",
                reply.status, reply.cache, reply.body
            )
        });
        let s = reply.spans;
        if client == 1 {
            log.connect_us.push(us(s.connect));
        }
        log.read_us.push(us(s.read));
        match op {
            Op::Hit(_) => {
                log.hit_us.push(us(s.total()));
                log.ttfb_hit_us.push(us(s.ttfb));
            }
            Op::Miss => {
                log.miss_us.push(us(s.total()));
                log.ttfb_miss_us.push(us(s.ttfb));
            }
            _ => {}
        }
    }

    /// The output checks: status, cache verdict, and a `result` that is
    /// byte-identical to the warm fill (hits) or equals the in-process
    /// run of the same spec (misses).
    fn verify(&self, op: Op, miss_seed: u64, r: &Reply) -> bool {
        let verdict = r.cache.as_deref();
        match op {
            Op::Hit(i) | Op::Result(i) => {
                r.status == 200
                    && verdict == Some("hit")
                    && result_part(&r.body) == Some(self.warm.results[i].as_str())
            }
            Op::Miss => {
                let row = result_part(&r.body)
                    .and_then(|t| Json::parse(t).ok())
                    .and_then(|v| CampaignRow::from_json(&v).ok());
                let e = self.expected_miss;
                r.status == 200
                    && verdict == Some("miss")
                    && row.is_some_and(|row| {
                        row.seed == miss_seed
                            && (row.n_actual, row.rounds, row.merges, row.longest_gap)
                                == (e.n_actual, e.rounds, e.merges, e.longest_gap)
                            && row.outcome == e.outcome
                            && row.makespan == e.makespan
                            && row.max_travel_milli == e.max_travel_milli
                    })
            }
            Op::Metrics => r.status == 200 && r.body.contains("gatherd_jobs_run "),
        }
    }
}

/// `GET /metrics?json`, flattened to `counters.<name>` and
/// `<histogram>.<field>` numbers.
fn scrape(addr: &str) -> Option<std::collections::BTreeMap<String, f64>> {
    let reply = one_shot(addr, "GET", "/metrics?json", "").ok()?;
    let doc = Json::parse(&reply.body).ok()?;
    let mut out = std::collections::BTreeMap::new();
    for section in ["counters", "histograms"] {
        let Some(Json::Obj(pairs)) = doc.get(section) else {
            return None;
        };
        for (name, value) in pairs {
            match value {
                Json::Num(v) => {
                    out.insert(format!("counters.{name}"), *v);
                }
                Json::Obj(fields) => {
                    for (field, v) in fields {
                        if let Json::Num(v) = v {
                            out.insert(format!("{name}.{field}"), *v);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Some(out)
}

pub fn run(seed: u64, seconds: f64, traced: bool, trace: &TraceEvents, dir: &Path) -> RunOutput {
    let mut out = RunOutput::default();
    let inputs = specs::service_inputs(seed);
    let expected_miss =
        CampaignRow::from_result(&run_scenario(&specs::miss_spec(inputs.miss_seed_base, 0)));
    let miss_fp = (
        expected_miss.n_actual,
        expected_miss.rounds,
        expected_miss.merges,
        expected_miss.longest_gap,
    );

    let t = Instant::now();
    let (handle, warm) = match set_up(&inputs, dir, &mut out.check) {
        Ok(booted) => booted,
        Err(e) => {
            out.check.op(false, || format!("set-up: {e}"));
            return out;
        }
    };
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let spare_dir = dir.with_extension("spare");
    let mut spare_check = Check::default();
    let fps: Vec<_> = warm
        .rows
        .iter()
        .map(|r| (r.n_actual, r.rounds, r.merges, r.longest_gap))
        .collect();
    out.digests.push(("warm", fps.len(), specs::digest(&fps)));
    out.digests.push(("miss", 1, specs::digest(&[miss_fp])));
    out.check_expected(Workload::ServiceMix, seed);

    let mut driver = Driver {
        addr: handle.addr(),
        seed,
        warm: &warm,
        miss_base: inputs.miss_seed_base,
        expected_miss: &expected_miss,
        misses: 0,
        ids: 0,
        ka: KeepAlive::new(&handle.addr()),
        logs: [Log::sized(), Log::sized()],
        trace,
    };
    // Per pass: traced or not, and its wall time in seconds.
    let mut passes: Vec<(bool, f64)> = Vec::new();
    let started = Instant::now();
    while passes.is_empty()
        || (passes.len() < MAX_PASSES && started.elapsed().as_secs_f64() < seconds)
    {
        // Traced runs alternate untraced and traced passes, so the
        // tracing cost is measured under the same conditions.
        let traced_pass = traced && passes.len() % 2 == 1;
        let t = Instant::now();
        driver.pass(passes.len() as u64, traced_pass);
        passes.push((traced_pass, t.elapsed().as_secs_f64()));
        if passes.len().is_multiple_of(SETUP_EVERY) {
            let t = Instant::now();
            match set_up(&inputs, &spare_dir, &mut spare_check) {
                Ok((spare, _)) => {
                    setups.push(t.elapsed().as_secs_f64());
                    let _ = spare.shutdown();
                }
                Err(e) => spare_check.op(false, || format!("spare set-up: {e}")),
            }
        }
    }
    // A keep-alive client that had to reconnect measured new connections.
    let connects = driver.ka.connects;
    driver.logs[0].check.op(connects <= 1, || {
        format!("keep-alive client opened {connects} connections to one server")
    });
    driver.ka.close();
    let sent = driver.misses as f64;
    let server = scrape(&driver.addr).unwrap_or_default();
    let logs = &driver.logs;
    let _ = handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(&spare_dir);
    let counter = |name: &str| server.get(&format!("counters.{name}")).copied();
    out.check.op(
        counter("jobs_run") == Some(WARM_SPECS as f64 + sent),
        || {
            format!(
                "server ran {:?} jobs for {sent} misses + {WARM_SPECS} warm fills",
                counter("jobs_run")
            )
        },
    );
    out.check.op(counter("rejected") == Some(0.0), || {
        format!("server rejected {:?} requests", counter("rejected"))
    });
    out.check.attempted += spare_check.attempted;
    out.check.failed += spare_check.failed;
    out.check.errors.extend(spare_check.errors);
    for log in logs {
        out.check.attempted += log.check.attempted;
        out.check.failed += log.check.failed;
        out.check.errors.extend(log.check.errors.iter().cloned());
    }
    let (ka, nc) = (&logs[0], &logs[1]);
    let both = |f: fn(&Log) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let wall = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.0 == traced)
            .map(|p| p.1)
            .collect()
    };
    let untraced = wall(false);
    out.metrics.set("wall_s", median(&untraced));
    out.metrics.set("setup_s", median(&setups));
    let misses = both(|l| &l.miss_us);
    for (name, p) in [("miss_p50_us", 50.0), ("miss_p90_us", 90.0)] {
        match percentile(&misses, p) {
            Some(v) => out.metrics.set(name, v),
            None => out
                .check
                .op(false, || format!("{name}: too few misses for p{p}")),
        }
    }
    // Client-side tails: reported when the run was long enough to hold
    // ten samples beyond them, 0 otherwise.
    let tail = |xs: &[f64], p: f64| percentile(xs, p).unwrap_or(0.0);
    let hit_ka = (tail(&ka.hit_us, 50.0), tail(&ka.hit_us, 99.0));
    let hit_nc = (tail(&nc.hit_us, 50.0), tail(&nc.hit_us, 99.0));
    let requests: u64 = logs.iter().map(|l| l.requests).sum();
    let busy: f64 = passes.iter().map(|p| p.1).sum();
    let requests_per_s = ratio(requests as f64, busy);
    out.extra = vec![
        (
            "error_rate",
            "ratio",
            ratio(out.check.failed as f64, out.check.attempted as f64),
        ),
        ("requests_per_s", "1/s", requests_per_s),
        ("hit_ka_p50_us", "us", hit_ka.0),
        ("hit_ka_p99_us", "us", hit_ka.1),
        ("hit_nc_p50_us", "us", hit_nc.0),
        ("hit_nc_p99_us", "us", hit_nc.1),
    ];

    if traced {
        let m = &mut out.metrics;
        m.set("client.hit_ka_us_p50", hit_ka.0);
        m.set("client.hit_ka_us_p99", hit_ka.1);
        m.set("client.hit_nc_us_p50", hit_nc.0);
        m.set("client.hit_nc_us_p99", hit_nc.1);
        m.set("client.connect_us_p50", tail(&nc.connect_us, 50.0));
        m.set(
            "client.ttfb_us_p50.hit",
            tail(&both(|l| &l.ttfb_hit_us), 50.0),
        );
        m.set(
            "client.ttfb_us_p50.miss",
            tail(&both(|l| &l.ttfb_miss_us), 50.0),
        );
        m.set("client.read_us_p50", tail(&both(|l| &l.read_us), 50.0));
        m.set("client.requests_per_s", requests_per_s);
        let hist = |name: &str| server.get(name).copied().unwrap_or(0.0);
        for (metric, key) in [
            ("server.run_hit_us_p50", "request_us_run_hit.p50_us"),
            ("server.run_hit_us_p99", "request_us_run_hit.p99_us"),
            ("server.run_miss_us_p50", "request_us_run_miss.p50_us"),
            ("server.queue_wait_us_p50", "queue_wait_us.p50_us"),
            ("server.queue_wait_us_p90", "queue_wait_us.p90_us"),
            ("server.run_duration_us_p50", "run_duration_us.p50_us"),
            ("server.run_duration_us_p90", "run_duration_us.p90_us"),
            ("server.jobs_run", "counters.jobs_run"),
            ("server.hits", "counters.cache_hits"),
            ("server.rejected", "counters.rejected"),
            ("server.persist_errors", "counters.persist_errors"),
            ("route.result_us_p50", "request_us_result.p50_us"),
            ("route.metrics_us_p50", "request_us_metrics.p50_us"),
        ] {
            m.set(metric, hist(key));
        }
        let (hits, misses) = (hist("counters.cache_hits"), hist("counters.cache_misses"));
        m.set("cache.hit_ratio", ratio(hits, hits + misses));
        // The client and server p50s cover the same requests: every pass
        // of this one server. The server's hit time starts after the
        // request is read, so it is the same for both clients.
        let server_hit = hist("request_us_run_hit.p50_us");
        m.set("transport.hit_ka_us_p50", hit_ka.0 - server_hit);
        m.set("transport.hit_nc_us_p50", hit_nc.0 - server_hit);
        m.set(
            "trace.overhead_frac",
            median(&wall(true)) / median(&untraced) - 1.0,
        );

        // The engine and hit-path layers, on this workload's own inputs.
        let mut engine = EngineLayers::default();
        let sample: Vec<ScenarioSpec> = (0..MISS_SAMPLE)
            .map(|k| specs::miss_spec(inputs.miss_seed_base, k))
            .collect();
        let first_id = driver.ids;
        for (k, spec) in sample.iter().enumerate() {
            engine.run(spec, "n256", first_id + k as u64, trace);
        }
        for (k, fp) in engine.fingerprints.iter().enumerate() {
            out.check.op(*fp == miss_fp, || {
                format!("traced miss {k}: {fp:?} != {miss_fp:?}")
            });
        }
        engine.report(&mut out.metrics);
        let decoded = layers::hit_path(&warm.specs, &warm.rows, &mut out.metrics);
        out.check.op(decoded, || {
            "a warm body did not decode to its spec".to_string()
        });
    }
    out
}
