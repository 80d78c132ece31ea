//! End-to-end telemetry tests: record-and-replay over the wire, live
//! `/watch` streaming, watcher passivity, keep-alive connections, and the
//! `/metrics` scrape — a real `gatherd` on an ephemeral port each time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use chain_sim::{LiveFrame, ReplayReader};
use gatherd::{client, Config, Server};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gatherd-telem-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        handlers: 16,
        queue: 32,
        dir: dir.to_path_buf(),
    }
}

fn spec_body(family: &str, n: usize, seed: u64, strategy: &str) -> String {
    format!("{{\"family\":\"{family}\",\"n\":{n},\"seed\":{seed},\"strategy\":\"{strategy}\"}}")
}

/// The `result` object of a response envelope (always the last field).
fn result_bytes(body: &str) -> &str {
    let at = body.find("\"result\":").expect("envelope carries a result");
    &body[at + "\"result\":".len()..body.len() - 1]
}

/// First integer following `"key":` in a JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// First string following `"key":"` in a JSON body.
fn json_str<'a>(body: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    let rest = &body[at + pat.len()..];
    &rest[..rest.find('"').unwrap()]
}

/// Poll `/result/<hash>` until the row lands (the watch stream closes a
/// moment before the worker caches the row, so an immediate fetch races).
fn wait_result(addr: &str, hash: &str) -> client::Reply {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = client::request(addr, "GET", &format!("/result/{hash}"), None).unwrap();
        if r.status == 200 {
            return r;
        }
        assert!(Instant::now() < deadline, "result never landed for {hash}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One counter from the `/metrics` scrape.
fn metric(addr: &str, name: &str) -> u64 {
    let reply = client::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(reply.status, 200);
    let prefix = format!("gatherd_{name} ");
    reply
        .body
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no gatherd_{name} in:\n{}", reply.body))
        .parse()
        .unwrap()
}

/// Acceptance: a `?replay` run persists a replay that the verifying
/// reader replays to exactly the row's round count; serving it is pure
/// artifact download — the job and miss counters stay flat.
#[test]
fn replay_records_persists_and_verifies() {
    let dir = scratch("replay");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    let body = spec_body("rectangle", 48, 7, "paper");
    let reply = client::post_run_opts(&addr, &body, false, true).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-gatherd-cache"), Some("miss"));
    let hash = json_str(&reply.body, "spec_hash").to_string();
    let rounds = json_u64(result_bytes(&reply.body), "rounds");

    let jobs_before = metric(&addr, "jobs_run");
    let misses_before = metric(&addr, "cache_misses");
    assert_eq!(metric(&addr, "replays_stored"), 1);

    // Download and fully verify the recorded run.
    let raw = client::get_replay(&addr, &hash).unwrap();
    assert_eq!(raw.status, 200);
    let mut reader = ReplayReader::new(&raw.body).unwrap();
    let mut replayed = 0u64;
    while reader.next_round().unwrap().is_some() {
        replayed += 1;
    }
    assert_eq!(replayed, rounds, "replay length must match the row");
    assert_eq!(reader.outcome().unwrap().rounds(), rounds);

    // Serving the replay re-simulated nothing and touched no result-cache
    // counter.
    assert_eq!(metric(&addr, "jobs_run"), jobs_before);
    assert_eq!(metric(&addr, "cache_misses"), misses_before);

    // A repeated `?replay` run is now a pure cache hit.
    let again = client::post_run_opts(&addr, &body, false, true).unwrap();
    assert_eq!(again.header("x-gatherd-cache"), Some("hit"));
    assert_eq!(result_bytes(&again.body), result_bytes(&reply.body));
    assert_eq!(metric(&addr, "jobs_run"), jobs_before);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A row cached without a replay answers plain requests, but a `?replay`
/// request re-simulates once to record — and serves the *original* row
/// bytes (the cache keeps the first row).
#[test]
fn replay_request_on_a_plain_row_records_once() {
    let dir = scratch("upgrade");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    let body = spec_body("skyline", 32, 3, "global-vision");
    let plain = client::post_run(&addr, &body, false).unwrap();
    assert_eq!(plain.header("x-gatherd-cache"), Some("miss"));
    let hash = json_str(&plain.body, "spec_hash").to_string();
    assert_eq!(client::get_replay(&addr, &hash).unwrap().status, 404);

    let recording = client::post_run_opts(&addr, &body, false, true).unwrap();
    assert_eq!(
        recording.header("x-gatherd-cache"),
        Some("miss"),
        "a row without a replay must re-run to record"
    );
    assert_eq!(result_bytes(&recording.body), result_bytes(&plain.body));
    assert_eq!(client::get_replay(&addr, &hash).unwrap().status, 200);

    // Now both flavors hit.
    for replay in [false, true] {
        let r = client::post_run_opts(&addr, &body, false, replay).unwrap();
        assert_eq!(r.header("x-gatherd-cache"), Some("hit"));
    }

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: `/watch` streams decodable frames ending in a finished
/// frame whose round count matches the result row; watcher counters move.
#[test]
fn watch_streams_a_recording_run_to_completion() {
    let dir = scratch("watch");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    let body = spec_body("comb", 64, 1, "paper");
    let accepted = client::post_run_opts(&addr, &body, true, true).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job = json_u64(&accepted.body, "job");
    let hash = json_str(&accepted.body, "spec_hash").to_string();

    let mut stream = client::WatchStream::open(&addr, job).unwrap();
    let mut last: Option<LiveFrame> = None;
    let mut frames = 0u64;
    while let Some(bytes) = stream.next_frame().unwrap() {
        let frame = LiveFrame::decode(&bytes).unwrap();
        frame.chain().unwrap(); // every frame carries a valid chain
        last = Some(frame);
        frames += 1;
    }
    let last = last.expect("stream carries frames");
    assert!(last.finished, "stream must end with the finished frame");
    assert!(frames >= 2, "initial + final at minimum");

    let result = wait_result(&addr, &hash);
    assert_eq!(last.round, json_u64(result_bytes(&result.body), "rounds"));

    assert!(metric(&addr, "watchers_total") >= 1);
    assert_eq!(metric(&addr, "watchers_active"), 0);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance (passivity): the result row of a watched, recorded run is
/// byte-identical to the same spec run plain on a separate service.
#[test]
fn watched_runs_are_byte_identical_to_unwatched() {
    let dir_a = scratch("passive-a");
    let dir_b = scratch("passive-b");
    let a = Server::spawn(config(&dir_a)).unwrap();
    let b = Server::spawn(config(&dir_b)).unwrap();

    let body = spec_body("rectangle", 96, 5, "paper");

    // Server A: async recorded run with a live watcher attached.
    let accepted = client::post_run_opts(&a.addr(), &body, true, true).unwrap();
    assert_eq!(accepted.status, 202);
    let job = json_u64(&accepted.body, "job");
    let hash = json_str(&accepted.body, "spec_hash").to_string();
    let mut stream = client::WatchStream::open(&a.addr(), job).unwrap();
    while stream.next_frame().unwrap().is_some() {}
    let watched = wait_result(&a.addr(), &hash);

    // Server B: the same spec, plain and unwatched.
    let plain = client::post_run(&b.addr(), &body, false).unwrap();
    assert_eq!(plain.status, 200);

    assert_eq!(json_str(&plain.body, "spec_hash"), hash);
    // `wall_us` is wall-clock noise; every simulated quantity must match
    // byte for byte.
    let mask_wall = |row: &str| -> String {
        let at = row.find("\"wall_us\":").expect("row carries wall_us");
        let end = at
            + "\"wall_us\":".len()
            + row[at + "\"wall_us\":".len()..]
                .find(',')
                .expect("wall_us is not last");
        format!("{}{}", &row[..at], &row[end + 1..])
    };
    assert_eq!(
        mask_wall(result_bytes(&watched.body)),
        mask_wall(result_bytes(&plain.body)),
        "watching and recording must not perturb the run"
    );

    a.shutdown().unwrap();
    b.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Acceptance: a watcher that never reads must not slow the simulation —
/// the job completes while the watcher's socket sits full.
#[test]
fn a_stalled_watcher_does_not_block_the_run() {
    let dir = scratch("stalled");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    let body = spec_body("skyline", 96, 2, "paper");
    let accepted = client::post_run_opts(&addr, &body, true, true).unwrap();
    assert_eq!(accepted.status, 202);
    let job = json_u64(&accepted.body, "job");
    let hash = json_str(&accepted.body, "spec_hash").to_string();

    // Connect to /watch and never read a byte.
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .write_all(format!("GET /watch/{job} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    stalled.flush().unwrap();

    // The run must finish promptly regardless.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = client::request(&addr, "GET", &format!("/result/{hash}"), None).unwrap();
        if r.status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "run did not complete under a stalled watcher"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Release the handler before shutdown so its blocked write fails
    // fast instead of waiting out the write timeout.
    drop(stalled);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Watch and replay requests that cannot be served fail cleanly: plain
/// jobs are not watchable, open-chain strategies are not recordable, and
/// malformed hashes/ids are 400s.
#[test]
fn telemetry_validation_errors() {
    let dir = scratch("validation");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    // A plain async job has no ring to watch.
    let accepted = client::post_run(&addr, &spec_body("rectangle", 32, 0, "paper"), true).unwrap();
    assert_eq!(accepted.status, 202);
    let job = json_u64(&accepted.body, "job");
    let err = client::WatchStream::open(&addr, job).unwrap_err();
    assert!(err.to_string().contains("400"), "{err}");

    // Open-chain strategies run outside the engine: no replay.
    let refused = client::post_run_opts(
        &addr,
        &spec_body("rectangle", 32, 0, "open-zip"),
        false,
        true,
    )
    .unwrap();
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(refused.body.contains("closed-chain"), "{}", refused.body);

    // Unknown job, malformed id, malformed/unknown hashes.
    assert!(client::WatchStream::open(&addr, 999_999).is_err());
    let r = client::request(&addr, "GET", "/watch/zebra", None).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert_eq!(client::get_replay(&addr, "zebra").unwrap().status, 400);
    assert_eq!(
        client::get_replay(&addr, "0123456789abcdef")
            .unwrap()
            .status,
        404
    );

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keep-alive: two requests served over one socket, with keep-alive
/// advertised on the first and close honored on the second.
#[test]
fn keep_alive_serves_sequential_requests_on_one_socket() {
    let dir = scratch("keepalive");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let read_one = |stream: &mut TcpStream| -> (String, String) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            // Parse once the header block and the advertised body length
            // are both in hand.
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
                let content_length: usize = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::trim)
                            .map(String::from)
                    })
                    .unwrap()
                    .parse()
                    .unwrap();
                if buf.len() >= head_end + 4 + content_length {
                    let body =
                        String::from_utf8_lossy(&buf[head_end + 4..head_end + 4 + content_length])
                            .into_owned();
                    buf.drain(..head_end + 4 + content_length);
                    assert!(buf.is_empty(), "unexpected pipelined bytes");
                    return (head, body);
                }
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed a keep-alive connection early");
            buf.extend_from_slice(&chunk[..n]);
        }
    };

    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (head1, body1) = read_one(&mut stream);
    assert!(head1.starts_with("HTTP/1.1 200"), "{head1}");
    assert!(head1.contains("Connection: keep-alive"), "{head1}");
    assert!(body1.contains("\"status\":\"ok\""));

    // Same socket, second request, explicit close.
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (head2, body2) = read_one(&mut stream);
    assert!(head2.starts_with("HTTP/1.1 200"), "{head2}");
    assert!(head2.contains("Connection: close"), "{head2}");
    assert!(body2.contains("gatherd_uptime_seconds"));

    // The server honors the close: EOF follows.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/metrics` is a plain-text scrape whose counters move with the
/// service, and `/progress` reports guard activity.
#[test]
fn metrics_and_guarded_progress() {
    let dir = scratch("metrics");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();

    let reply = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; charset=utf-8")
    );
    for name in [
        "uptime_seconds",
        "workers",
        "queue_depth",
        "cache_entries",
        "cache_hits",
        "cache_misses",
        "jobs_run",
        "watchers_active",
        "replays_stored",
    ] {
        assert!(
            reply.body.contains(&format!("gatherd_{name} ")),
            "missing gatherd_{name} in:\n{}",
            reply.body
        );
    }
    assert_eq!(metric(&addr, "jobs_run"), 0);

    // A paper-ssync run under an adversarial scheduler exercises the
    // chain guard; progress must surface the counter.
    let body = "{\"family\":\"rectangle\",\"n\":48,\"seed\":0,\"strategy\":\"paper-ssync\",\
                \"scheduler\":\"rand50\"}"
        .to_string();
    let accepted = client::post_run_opts(&addr, &body, true, false).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job = json_u64(&accepted.body, "job");

    let deadline = Instant::now() + Duration::from_secs(60);
    let final_progress = loop {
        let p = client::request(&addr, "GET", &format!("/progress/{job}"), None).unwrap();
        assert_eq!(p.status, 200);
        assert!(
            p.body.contains("\"guard_cancels\":"),
            "progress must report guard activity: {}",
            p.body
        );
        if p.body.contains("\"finished\":true") {
            break p;
        }
        assert!(Instant::now() < deadline, "job did not finish");
        std::thread::sleep(Duration::from_millis(5));
    };
    let _ = json_u64(&final_progress.body, "guard_cancels");

    assert_eq!(metric(&addr, "jobs_run"), 1);
    assert_eq!(metric(&addr, "cache_misses"), 1);

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `/metrics` exposition's histogram block is pinned: the text
/// scrape ends with six lines (`_count`, `_sum`, `_p50`, `_p90`, `_p99`,
/// `_max`) for each of the eleven latency histograms in sorted name
/// order, and `/metrics?json` lists the same names in the same order.
#[test]
fn metrics_histogram_block_is_pinned() {
    use bench::campaign::json::Json;

    const HISTOGRAMS: [&str; 11] = [
        "queue_wait_us",
        "request_us_healthz",
        "request_us_metrics",
        "request_us_other",
        "request_us_progress",
        "request_us_replay",
        "request_us_result",
        "request_us_run_hit",
        "request_us_run_miss",
        "request_us_run_other",
        "run_duration_us",
    ];
    let dir = scratch("hist-block");
    let handle = Server::spawn(config(&dir)).unwrap();
    let addr = handle.addr();
    let run = client::post_run(&addr, &spec_body("rectangle", 32, 0, "paper"), false).unwrap();
    assert_eq!(run.status, 200, "{}", run.body);

    let text = client::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(text.status, 200);
    let names: Vec<&str> = text
        .body
        .lines()
        .map(|l| {
            let (name, value) = l.split_once(' ').expect("`name value` line");
            value.parse::<u64>().expect("integer value");
            name
        })
        .collect();
    let expected: Vec<String> = HISTOGRAMS
        .iter()
        .flat_map(|h| {
            ["count", "sum", "p50", "p90", "p99", "max"]
                .map(|suffix| format!("gatherd_{h}_{suffix}"))
        })
        .collect();
    let start = names
        .iter()
        .position(|&n| n == expected[0])
        .unwrap_or_else(|| panic!("no histogram block in:\n{}", text.body));
    assert_eq!(names[start..], expected[..], "text histogram block");

    let json = client::request(&addr, "GET", "/metrics?json", None).unwrap();
    assert_eq!(json.status, 200);
    let v = Json::parse(&json.body).unwrap();
    let Some(Json::Obj(hists)) = v.get("histograms") else {
        panic!("no histograms object in {}", json.body);
    };
    let keys: Vec<&str> = hists.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, HISTOGRAMS, "json histogram keys");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
