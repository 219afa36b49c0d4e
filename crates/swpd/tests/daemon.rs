//! End-to-end daemon tests over real TCP on ephemeral ports.
//!
//! Each test starts its own daemon on `127.0.0.1:0`, so they are
//! parallel-safe and leave nothing behind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use swp_fuzz::{gen_case, write_regression, GenConfig};
use swp_incr::EditOp;
use swp_swpd::{Daemon, DaemonConfig, Reply, ReplyStatus, Request, SolveRequest, SwpdClient};

fn guaranteed_case(seed: u64, i: usize) -> String {
    let cfg = GenConfig {
        seed,
        adversarial_fraction: 0.0,
        max_nodes: 5,
        ..GenConfig::default()
    };
    write_regression(&gen_case(&cfg, i), None)
}

fn adversarial_case(seed: u64, i: usize, max_nodes: usize) -> String {
    let cfg = GenConfig {
        seed,
        adversarial_fraction: 1.0,
        max_nodes,
        ..GenConfig::default()
    };
    write_regression(&gen_case(&cfg, i), None)
}

/// A case whose ILP solve (heuristic disabled) grinds for minutes —
/// 27 adversarial nodes on single-copy units. Pinned by measurement so
/// the cancellation tests have something real to interrupt.
fn slow_request(id: &str) -> SolveRequest {
    let cfg = GenConfig {
        seed: 0x510,
        adversarial_fraction: 1.0,
        max_nodes: 28,
        max_classes: 2,
        max_count: 1,
        max_latency: 6,
        max_distance: 2,
        ..GenConfig::default()
    };
    let mut r = SolveRequest::new(id, write_regression(&gen_case(&cfg, 1), None));
    r.heuristic = Some(false);
    r.max_t = Some(64);
    r.timeout_ms = Some(120_000);
    r
}

fn start(config: DaemonConfig) -> (swp_swpd::DaemonHandle, String) {
    let handle = Daemon::start(config).expect("daemon start");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn default_config() -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    }
}

#[test]
fn ping_stats_and_counters() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);
    let pong = client.ping().expect("ping");
    assert_eq!(pong.status, ReplyStatus::Ok);
    let stats = client.stats().expect("stats");
    // ping + this stats request, both classified in the snapshot.
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.classified_total(), 2);
    assert!(!stats.draining);
    handle.shutdown();
}

#[test]
fn solve_then_cached_repeat() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);
    let req = SolveRequest::new("it-0", guaranteed_case(0x5EED, 0));

    let first = client.solve(&req).expect("solve");
    assert_eq!(first.status, ReplyStatus::Solved, "reply: {first:?}");
    assert!(first.period.is_some());
    assert_eq!(first.proven, Some(true));

    let second = client.solve(&req).expect("repeat");
    assert_eq!(second.status, ReplyStatus::Cached, "reply: {second:?}");
    assert_eq!(second.period, first.period);

    // Same DDG under a different id still hits: the key is the
    // fingerprint, not the request id.
    let renamed = SolveRequest::new("it-renamed", guaranteed_case(0x5EED, 0));
    let third = client.solve(&renamed).expect("renamed");
    assert_eq!(third.status, ReplyStatus::Cached);

    let stats = handle.stats();
    assert_eq!(stats.solved, 1);
    assert_eq!(stats.cached, 2);
    handle.shutdown();
}

#[test]
fn portfolio_engine_solves_and_keeps_its_own_cache_entry() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);

    // Heuristic off so the staged exact engines settle every period.
    let mut req = SolveRequest::new("portfolio-0", guaranteed_case(0xCAFE, 0));
    req.heuristic = Some(false);
    req.engine = Some(swp_core::Engine::Portfolio);
    let reply = client.solve(&req).expect("portfolio solve");
    assert_eq!(reply.status, ReplyStatus::Solved, "reply: {reply:?}");
    assert_eq!(reply.proven, Some(true));
    let by = reply.solved_by.as_deref().expect("solved_by");
    assert!(by == "ilp" || by == "cp", "settled by {by}");
    // Both stages charge the request's budget.
    assert!(reply.ticks.is_some_and(|t| t > 0), "reply: {reply:?}");

    // The engine is part of the cache fingerprint: the same case under
    // the default (ILP) engine is a fresh solve, not a cache hit.
    let mut ilp = SolveRequest::new("portfolio-0-ilp", guaranteed_case(0xCAFE, 0));
    ilp.heuristic = Some(false);
    let reply = client.solve(&ilp).expect("ilp solve");
    assert_eq!(reply.status, ReplyStatus::Solved, "reply: {reply:?}");

    // A repeat of the portfolio request *is* a hit.
    let reply = client.solve(&req).expect("portfolio repeat");
    assert_eq!(reply.status, ReplyStatus::Cached, "reply: {reply:?}");
    handle.shutdown();
}

#[test]
fn unknown_engine_is_a_bad_request() {
    let (handle, addr) = start(default_config());
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(
            b"{\"op\": \"solve\", \"id\": \"x\", \"case\": \"c\", \"engine\": \"quantum\"}\n",
        )
        .expect("write");
    writer.flush().expect("flush");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    let reply = Reply::from_json_line(out.trim()).expect("parse reply");
    assert_eq!(reply.status, ReplyStatus::BadRequest, "reply: {reply:?}");
    assert!(
        reply.error.as_deref().unwrap_or("").contains("quantum"),
        "error should name the bad engine: {reply:?}"
    );
    assert_eq!(handle.stats().bad_requests, 1);
    handle.shutdown();
}

/// Sends one raw request line and reads one reply line.
fn raw_request(addr: &str, line: &str) -> Reply {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).expect("write");
    writer.write_all(b"\n").expect("write");
    writer.flush().expect("flush");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    Reply::from_json_line(out.trim()).expect("parse reply")
}

#[test]
fn retired_oracle_key_is_ignored_like_any_unknown_key() {
    // Solves once carried an `oracle` knob that was part of the cache
    // fingerprint. The key is now ignored: with or without it a solve
    // gets the same answer and lands on the same cache entry.
    let plain = Request::Solve(SolveRequest::new("o-0", guaranteed_case(0x0AC1, 0))).to_json_line();
    let with_key = plain.replacen("{", r#"{"oracle":"automaton","#, 1);
    assert_ne!(plain, with_key);
    let same_answer = |a: &Reply, b: &Reply| {
        assert_eq!(a.period, b.period, "{a:?} vs {b:?}");
        assert_eq!(a.t_lb, b.t_lb);
        assert_eq!(a.slack, b.slack);
        assert_eq!(a.proven, b.proven);
        assert_eq!(a.solved_by, b.solved_by);
        assert_eq!(a.ticks, b.ticks);
    };

    // Fresh solves with and without the key agree.
    let (handle, addr) = start(default_config());
    let keyed = raw_request(&addr, &with_key);
    assert_eq!(keyed.status, ReplyStatus::Solved, "reply: {keyed:?}");
    handle.shutdown();

    let (handle, addr) = start(default_config());
    let first = raw_request(&addr, &plain);
    assert_eq!(first.status, ReplyStatus::Solved, "reply: {first:?}");
    same_answer(&first, &keyed);
    // The keyed repeat hits the entry the plain solve wrote.
    let second = raw_request(&addr, &with_key);
    assert_eq!(second.status, ReplyStatus::Cached, "reply: {second:?}");
    same_answer(&first, &second);
    let stats = handle.stats();
    assert_eq!((stats.solved, stats.cached), (1, 1));
    assert_eq!(stats.bad_requests, 0);
    handle.shutdown();
}

#[test]
fn bad_requests_are_refused_not_fatal() {
    let (handle, addr) = start(default_config());

    // Malformed JSON, unknown op, and an unparseable case all come back
    // as bad_request on the same connection, which stays usable.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> Reply {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write nl");
        writer.flush().expect("flush");
        let mut out = String::new();
        reader.read_line(&mut out).expect("read");
        Reply::from_json_line(out.trim()).expect("parse reply")
    };

    assert_eq!(ask("this is not json").status, ReplyStatus::BadRequest);
    assert_eq!(
        ask(r#"{"op": "frobnicate", "id": "x"}"#).status,
        ReplyStatus::BadRequest
    );
    assert_eq!(
        ask(r#"{"op": "solve", "id": "x", "case": "garbage"}"#).status,
        ReplyStatus::BadRequest
    );
    // Fault injection without opt-in is a client error, not a panic.
    let mut inject = SolveRequest::new("x", guaranteed_case(1, 0));
    inject.inject_panic = true;
    let line = Request::Solve(inject).to_json_line();
    assert_eq!(ask(&line).status, ReplyStatus::BadRequest);
    // The connection is still healthy.
    assert_eq!(
        ask(r#"{"op": "ping", "id": "still-alive"}"#).status,
        ReplyStatus::Ok
    );

    let stats = handle.stats();
    assert_eq!(stats.bad_requests, 4);
    assert_eq!(stats.panics, 0);
    handle.shutdown();
}

/// Sends one raw HTTP request and returns the status code and body.
fn http(addr: &str, request: String) -> (u32, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let code: u32 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or("")
        .trim()
        .to_string();
    (code, body)
}

#[test]
fn http_front_door() {
    let (handle, addr) = start(default_config());

    let http = |request: String| http(&addr, request);

    let (code, _) = http("GET /health HTTP/1.1\r\nhost: x\r\n\r\n".to_string());
    assert_eq!(code, 200);

    let (code, body) = http("GET /stats HTTP/1.1\r\nhost: x\r\n\r\n".to_string());
    assert_eq!(code, 200);
    let stats_reply = Reply::from_json_line(&body).expect("stats body");
    let counters = stats_reply.counters.expect("counters");
    assert_eq!(counters.requests, counters.classified_total());

    // POST /solve with a bare JSON body (no `op`): solves and returns
    // 200 with the reply object.
    let solve = SolveRequest::new("http-0", guaranteed_case(0x177, 0));
    let body_line = Request::Solve(solve).to_json_line();
    let (code, body) = http(format!(
        "POST /solve HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body_line}",
        body_line.len()
    ));
    assert_eq!(code, 200, "body: {body}");
    let reply = Reply::from_json_line(&body).expect("solve body");
    assert_eq!(reply.status, ReplyStatus::Solved);

    let (code, _) = http("GET /nowhere HTTP/1.1\r\nhost: x\r\n\r\n".to_string());
    assert_eq!(code, 400);

    handle.shutdown();
}

#[test]
fn oversized_http_body_is_refused_before_allocation() {
    let (handle, addr) = start(default_config());
    // A length no daemon could allocate: refused from the header alone,
    // counted once as a bad request, and the daemon keeps serving.
    let (code, body) = http(
        &addr,
        "POST /solve HTTP/1.1\r\nhost: x\r\ncontent-length: 18446744073709551615\r\n\r\n"
            .to_string(),
    );
    assert_eq!(code, 400, "body: {body}");
    let reply = Reply::from_json_line(&body).expect("reply body");
    assert_eq!(reply.status, ReplyStatus::BadRequest);

    let (code, body) = http(&addr, "GET /health HTTP/1.1\r\nhost: x\r\n\r\n".to_string());
    assert_eq!(code, 200);
    let health = Reply::from_json_line(&body).expect("health body");
    assert_eq!(health.status, ReplyStatus::Ok);

    let stats = handle.stats();
    assert_eq!(stats.bad_requests, 1);
    assert_eq!(stats.requests, stats.classified_total());
    handle.shutdown();
}

#[test]
fn over_long_lines_are_refused_and_close_the_connection() {
    let (handle, addr) = start(default_config());

    // A JSONL "line" one byte over the cap, with no newline: refused
    // once, then the daemon hangs up instead of buffering more.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(&vec![b'x'; (1 << 20) + 1])
        .expect("write the over-long line");
    writer.flush().expect("flush");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    let reply = Reply::from_json_line(out.trim()).expect("parse reply");
    assert_eq!(reply.status, ReplyStatus::BadRequest, "reply: {reply:?}");
    assert!(reply.error.unwrap_or_default().contains("exceeds"));
    out.clear();
    assert_eq!(reader.read_line(&mut out).expect("read to EOF"), 0, "{out}");

    // An HTTP header line over its own, smaller cap: a 400.
    let (code, body) = http(
        &addr,
        format!(
            "GET /health HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "y".repeat(16 << 10)
        ),
    );
    assert_eq!(code, 400, "body: {body}");

    // The daemon still serves fresh connections, and counted each
    // refusal exactly once.
    let mut client = SwpdClient::new(addr, 7);
    assert_eq!(client.ping().expect("ping").status, ReplyStatus::Ok);
    let stats = handle.stats();
    assert_eq!(stats.bad_requests, 2);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.requests, stats.classified_total());
    handle.shutdown();
}

#[test]
fn one_connection_pipelines_hits_misses_and_a_bad_request() {
    let (handle, addr) = start(default_config());
    let hot: Vec<String> = (0..3).map(|i| guaranteed_case(0x917E, i)).collect();
    let mut client = SwpdClient::new(addr.clone(), 7);
    for (i, case) in hot.iter().enumerate() {
        let reply = client
            .solve(&SolveRequest::new(format!("warm-{i}"), case.clone()))
            .expect("presolve");
        assert_eq!(reply.status, ReplyStatus::Solved, "reply: {reply:?}");
    }

    // Interleave hits, misses and a bad case text on one connection,
    // all written before any reply is read.
    let mut sent: Vec<(String, ReplyStatus)> = Vec::new();
    let mut lines = Vec::new();
    for i in 0..12 {
        let (id, case, want) = match i % 4 {
            0 | 2 => (format!("hit-{i}"), hot[i % 3].clone(), ReplyStatus::Cached),
            1 => (
                format!("miss-{i}"),
                guaranteed_case(0x3155, i),
                ReplyStatus::Solved,
            ),
            _ => (
                format!("bad-{i}"),
                "garbage".to_string(),
                ReplyStatus::BadRequest,
            ),
        };
        lines.push(Request::Solve(SolveRequest::new(id.clone(), case)).to_json_line());
        sent.push((id, want));
    }
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{}\n", lines.join("\n")).as_bytes())
        .expect("write the pipeline");
    writer.flush().expect("flush");

    let mut got: Vec<(String, ReplyStatus)> = (0..sent.len())
        .map(|_| {
            let mut out = String::new();
            reader.read_line(&mut out).expect("read");
            let reply = Reply::from_json_line(out.trim()).expect("one whole reply per line");
            (reply.id, reply.status)
        })
        .collect();
    // A trailing ping's reply is the very next line: no request got a
    // second reply.
    writer
        .write_all(b"{\"op\": \"ping\", \"id\": \"tail\"}\n")
        .expect("write ping");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read ping");
    assert_eq!(
        Reply::from_json_line(out.trim()).expect("ping reply").id,
        "tail"
    );

    got.sort_by(|a, b| a.0.cmp(&b.0));
    sent.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(got, sent);
    let stats = handle.stats();
    assert_eq!(stats.requests, stats.classified_total());
    handle.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_with_retry_hint() {
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        queue_capacity: 0,
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    client.max_retries = 2;
    client.fallback_backoff_ms = 1;

    let req = SolveRequest::new("shed-0", guaranteed_case(0x0bad, 0));
    let reply = client.solve(&req).expect("solve");
    assert_eq!(reply.status, ReplyStatus::Overloaded, "reply: {reply:?}");
    assert!(reply.retry_after_ms.is_some(), "hint missing: {reply:?}");

    // Every attempt (first + 2 retries) was counted and shed.
    let stats = handle.stats();
    assert_eq!(stats.overloaded, 3);
    assert_eq!(stats.requests, 3);
    handle.shutdown();
}

#[test]
fn injected_panic_is_isolated() {
    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        allow_fault_injection: true,
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);

    let mut boom = SolveRequest::new("boom-0", guaranteed_case(0xB00, 0));
    boom.inject_panic = true;
    let reply = client.solve(&boom).expect("solve");
    assert_eq!(reply.status, ReplyStatus::InternalPanic, "reply: {reply:?}");
    assert!(reply.error.unwrap_or_default().contains("injected fault"));

    // The daemon took the hit on one request only: the pool still
    // serves, and the poisoned fingerprint was never cached.
    let ok = client
        .solve(&SolveRequest::new("after-0", guaranteed_case(0xB00, 1)))
        .expect("solve after panic");
    assert_eq!(ok.status, ReplyStatus::Solved);
    let retry = client
        .solve(&SolveRequest::new("boom-retry", guaranteed_case(0xB00, 0)))
        .expect("clean retry of the panicked fingerprint");
    assert_eq!(retry.status, ReplyStatus::Solved);

    let stats = handle.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.solved, 2);
    assert_eq!(stats.internal_errors, 0);
    handle.shutdown();
}

#[test]
fn starved_budget_reports_exhaustion() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);

    // A case whose grace schedule lands above T_lb: with nothing
    // refuted, that period stays unproven. (One that lands on T_lb is
    // proven by the empty refutation frontier and reads `Solved`.)
    let mut req = SolveRequest::new("starved-0", adversarial_case(0x7178, 7, 8));
    req.ticks = Some(1);
    req.timeout_ms = Some(0);
    req.heuristic = Some(false);
    let reply = client.solve(&req).expect("solve");
    assert_eq!(
        reply.status,
        ReplyStatus::BudgetExhausted,
        "reply: {reply:?}"
    );
    // Exhausted answers are not deterministic; they must not be cached.
    let again = client.solve(&req).expect("repeat");
    assert_eq!(again.status, ReplyStatus::BudgetExhausted);
    assert_eq!(handle.stats().cached, 0);
    handle.shutdown();
}

#[test]
fn admission_pool_refuses_when_dry() {
    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        // Too small to fund even one worker share after try_slice.
        admission_ticks: Some(1),
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    let reply = client
        .solve(&SolveRequest::new("dry-0", guaranteed_case(0xD5, 0)))
        .expect("solve");
    assert_eq!(
        reply.status,
        ReplyStatus::BudgetExhausted,
        "reply: {reply:?}"
    );
    assert!(reply.error.unwrap_or_default().contains("admission pool"));
    handle.shutdown();
}

#[test]
fn drain_then_restart_replays_artifact() {
    let artifact =
        std::env::temp_dir().join(format!("swpd-test-replay-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&artifact);

    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        artifact: Some(artifact.clone()),
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    let reqs: Vec<SolveRequest> = (0..3)
        .map(|i| SolveRequest::new(format!("warm-{i}"), guaranteed_case(0x4E57, i)))
        .collect();
    let mut solved = 0;
    for r in &reqs {
        let reply = client.solve(r).expect("solve");
        if reply.status == ReplyStatus::Solved {
            solved += 1;
        }
    }
    assert!(solved > 0, "mix produced no proven solves");

    // Remote-initiated drain: the daemon latches `draining` and the
    // handle's join returns.
    let bye = client.shutdown().expect("shutdown request");
    assert_eq!(bye.status, ReplyStatus::Ok);
    let final_stats = handle.wait();
    assert!(final_stats.draining);
    assert_eq!(final_stats.in_flight, 0);
    assert_eq!(final_stats.queue_depth, 0);

    // Crash-only recovery: a new daemon over the same artifact serves
    // every solved fingerprint warm.
    let (handle2, addr2) = start(DaemonConfig {
        workers: 2,
        artifact: Some(artifact.clone()),
        resume: true,
        ..DaemonConfig::default()
    });
    assert_eq!(handle2.stats().replayed, solved);
    let mut client2 = SwpdClient::new(addr2, 8);
    for r in &reqs {
        let reply = client2.solve(r).expect("replay solve");
        assert_eq!(reply.status, ReplyStatus::Cached, "id {}: {reply:?}", r.id);
    }
    handle2.shutdown();
    let _ = std::fs::remove_file(&artifact);
}

#[test]
fn resumed_daemon_with_no_queue_serves_every_solved_id_from_cache() {
    let artifact =
        std::env::temp_dir().join(format!("swpd-test-queue0-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&artifact);

    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        artifact: Some(artifact.clone()),
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    let solved: Vec<SolveRequest> = (0..4)
        .map(|i| SolveRequest::new(format!("q0-{i}"), guaranteed_case(0x0E0, i)))
        .filter(|r| client.solve(r).expect("solve").status == ReplyStatus::Solved)
        .collect();
    assert!(!solved.is_empty(), "mix produced no proven solves");
    handle.shutdown();

    // With no queue slot at all, every solved id is still answered: a
    // cache hit never takes one. A cold case is shed.
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        queue_capacity: 0,
        artifact: Some(artifact.clone()),
        resume: true,
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 8);
    client.max_retries = 0;
    for r in &solved {
        let reply = client.solve(r).expect("replay solve");
        assert_eq!(reply.status, ReplyStatus::Cached, "id {}: {reply:?}", r.id);
    }
    let cold = client
        .solve(&SolveRequest::new("q0-cold", guaranteed_case(0x0E1, 9)))
        .expect("cold solve");
    assert_eq!(cold.status, ReplyStatus::Overloaded, "reply: {cold:?}");
    let stats = handle.stats();
    assert_eq!(stats.cached, solved.len() as u64);
    assert_eq!(stats.overloaded, 1);
    handle.shutdown();
    let _ = std::fs::remove_file(&artifact);
}

#[test]
fn hard_drain_cancels_stuck_solves() {
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        drain_grace: Duration::from_millis(0),
        default_timeout_ms: 120_000,
        ..DaemonConfig::default()
    });

    // Park a heavyweight solve on the single worker.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let line = Request::Solve(slow_request("slow-0")).to_json_line();
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write nl");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));

    // With zero grace the drain must hard-cancel it almost instantly;
    // if the token were not wired through, this join would sit for the
    // full two-minute deadline.
    let started = Instant::now();
    let stats = handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "drain took {:?} — hard-cancel did not fire",
        started.elapsed()
    );
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queue_depth, 0);

    // The parked request was classified (cancelled), not lost.
    let mut reply_line = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    BufReader::new(stream)
        .read_line(&mut reply_line)
        .expect("read reply");
    let reply = Reply::from_json_line(reply_line.trim()).expect("parse");
    assert_eq!(reply.id, "slow-0");
    assert!(
        matches!(
            reply.status,
            ReplyStatus::Cancelled | ReplyStatus::BudgetExhausted | ReplyStatus::Unscheduled
        ),
        "unexpected terminal status: {reply:?}"
    );
}

#[test]
fn disconnect_cancels_in_flight_solve() {
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        default_timeout_ms: 120_000,
        ..DaemonConfig::default()
    });

    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let line = Request::Solve(slow_request("gone-0")).to_json_line();
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write nl");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(200));
        // Hang up mid-solve.
    }

    // The EOF fires the request's cancel token; the worker must free up
    // long before the two-minute deadline. Prove it by getting a fresh
    // solve through the single worker promptly.
    let started = Instant::now();
    let mut client = SwpdClient::new(addr, 9);
    client.read_timeout = Some(Duration::from_secs(60));
    let reply = client
        .solve(&SolveRequest::new("after-gone", guaranteed_case(0x90E, 1)))
        .expect("solve after disconnect");
    assert_eq!(reply.status, ReplyStatus::Solved);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "worker stayed wedged {:?} after client disconnect",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn session_lifecycle_edit_solve_replay_and_telemetry() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 31);
    let before = client.stats().expect("stats");

    let opened = client
        .session_open("sess-0", &guaranteed_case(0x5E55, 2))
        .expect("open");
    assert_eq!(opened.status, ReplyStatus::Ok, "{:?}", opened.error);
    let sid = opened.session.expect("session handle");
    let nodes = opened.nodes.expect("node count");

    let first = client.session_solve(sid).expect("solve");
    assert_eq!(first.status, ReplyStatus::Solved, "{:?}", first.error);
    let first_period = first.period.expect("period");

    if nodes >= 2 {
        let edit = EditOp::AddEdge {
            src: 0,
            dst: nodes as usize - 1,
            distance: 1,
        };
        let edited = client.session_edit(sid, edit.clone()).expect("edit");
        assert_eq!(edited.status, ReplyStatus::Ok, "{:?}", edited.error);
        assert!(edited.cone.is_some());
        let second = client.session_solve(sid).expect("solve 2");
        assert_eq!(second.status, ReplyStatus::Solved, "{:?}", second.error);

        // Reverting the edit restores the fingerprint: the third solve
        // replays the first answer.
        let reverted = client
            .session_edit(
                sid,
                EditOp::RemoveEdge {
                    src: 0,
                    dst: nodes as usize - 1,
                    distance: 1,
                },
            )
            .expect("revert");
        assert_eq!(reverted.status, ReplyStatus::Ok);
        let third = client.session_solve(sid).expect("solve 3");
        assert_eq!(third.status, ReplyStatus::Solved);
        assert_eq!(
            third.period,
            Some(first_period),
            "replay changed the answer"
        );
    }

    let closed = client.session_close(sid).expect("close");
    assert_eq!(closed.status, ReplyStatus::Ok);
    let gone = client.session_solve(sid).expect("solve after close");
    assert_eq!(gone.status, ReplyStatus::BadRequest);

    let after = client.stats().expect("stats");
    assert_eq!(after.monotone_regression_from(&before), None);
    assert_eq!(after.sessions_opened, before.sessions_opened + 1);
    assert!(after.session_solves >= before.session_solves + 2);
    if nodes >= 2 {
        assert_eq!(after.session_edits, before.session_edits + 2);
        assert!(
            after.reuse_replays > before.reuse_replays,
            "revert solve must be an exact replay"
        );
    }
    handle.shutdown();
}

#[test]
fn session_http_round_trip() {
    let (handle, addr) = start(default_config());
    let http = |request: String| http(&addr, request);
    let post = |path: &str, body: String| -> (u32, String) {
        http(format!(
            "POST {path} HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ))
    };

    let open_body = Request::SessionOpen {
        id: "h-open".into(),
        case: guaranteed_case(0x177E, 3),
    }
    .to_json_line();
    let (code, body) = post("/session", open_body);
    assert_eq!(code, 200, "body: {body}");
    let opened = Reply::from_json_line(&body).expect("open reply");
    assert_eq!(opened.status, ReplyStatus::Ok);
    let sid = opened.session.expect("handle");
    let nodes = opened.nodes.expect("nodes");

    // Solve with an empty body: the path carries op and session.
    let (code, body) = post(&format!("/session/{sid}/solve"), String::new());
    assert_eq!(code, 200, "body: {body}");
    let solved = Reply::from_json_line(&body).expect("solve reply");
    assert_eq!(solved.status, ReplyStatus::Solved, "{:?}", solved.error);
    assert!(solved.period.is_some());

    // Edit: add a node, then re-solve.
    let (code, body) = post(
        &format!("/session/{sid}/edit"),
        format!(r#"{{"id":"h-edit","edit":"add_node","name":"x","class":0,"latency":1}}"#),
    );
    assert_eq!(code, 200, "body: {body}");
    let edited = Reply::from_json_line(&body).expect("edit reply");
    assert_eq!(edited.status, ReplyStatus::Ok, "{:?}", edited.error);
    assert_eq!(edited.nodes, Some(nodes + 1));

    let (code, body) = post(&format!("/session/{sid}/solve"), String::new());
    assert_eq!(code, 200, "body: {body}");
    let second = Reply::from_json_line(&body).expect("second solve");
    assert_eq!(second.status, ReplyStatus::Solved, "{:?}", second.error);

    let (code, _) = post(&format!("/session/{sid}/close"), String::new());
    assert_eq!(code, 200);
    let (code, _) = post(&format!("/session/{sid}/warp"), String::new());
    assert_eq!(code, 400);
    let (code, _) = post("/session/notanumber/solve", String::new());
    assert_eq!(code, 400);

    handle.shutdown();
}

#[test]
fn session_capacity_sheds_and_frees_on_close() {
    let (handle, addr) = start(DaemonConfig {
        session_capacity: 1,
        ..default_config()
    });
    let mut client = SwpdClient::new(addr, 77);
    let first = client
        .session_open("cap-0", &guaranteed_case(0xCA9, 0))
        .expect("open");
    assert_eq!(first.status, ReplyStatus::Ok);
    let refused = client
        .session_open("cap-1", &guaranteed_case(0xCA9, 1))
        .expect("open refused");
    assert_eq!(refused.status, ReplyStatus::Overloaded);
    assert!(refused.retry_after_ms.is_some());

    client
        .session_close(first.session.expect("handle"))
        .expect("close");
    let reopened = client
        .session_open("cap-2", &guaranteed_case(0xCA9, 2))
        .expect("open again");
    assert_eq!(reopened.status, ReplyStatus::Ok);
    handle.shutdown();
}
