//! End-to-end tests: a real `uic-serve` server on a loopback socket,
//! driven by real TCP clients.
//!
//! The headline contract (ISSUE acceptance): concurrent clients get
//! responses **bit-identical** to offline `warm-grd` runs of the same
//! spec + seed — the warm shared arena is a cache, never a semantic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use uic_core::{Allocator, SolveCtx, WelMax};
use uic_datasets::TwoItemConfig;
use uic_graph::{Graph, GraphBuilder, Weighting};
use uic_serve::{
    read_frame, report_json, run_load, run_load_with, Client, FrameError, Response, RetryPolicy,
    Server, ServerConfig, KIND_ERR, KIND_REQ,
};

/// A two-hub graph with enough asymmetry that different budgets pick
/// different seed sets.
fn test_graph() -> Arc<Graph> {
    let mut b = GraphBuilder::new(60);
    for leaf in 3..30u32 {
        b.add_edge(0, leaf, 0.5);
    }
    for leaf in 30..45u32 {
        b.add_edge(1, leaf, 0.5);
    }
    for leaf in 45..55u32 {
        b.add_edge(2, leaf, 0.5);
    }
    b.add_edge(0, 1, 0.3);
    b.add_edge(1, 2, 0.3);
    Arc::new(b.build(Weighting::AsGiven, 0))
}

fn start(cfg: ServerConfig) -> uic_serve::ServerHandle {
    Server::start(test_graph(), cfg).expect("bind loopback")
}

/// The offline reference: the same spec text run through the registry
/// directly, serialized with the same writer the server uses.
fn offline_result(spec: &str, budgets: Vec<u32>, seed: u64, sims: u32) -> String {
    let g = test_graph();
    let (solver, objective) = <dyn Allocator>::parse_with_objective(spec).unwrap();
    let inst = WelMax::on(&g)
        .model(TwoItemConfig::new(1).model())
        .budgets(budgets)
        .any_item_order()
        .objective_spec(objective)
        .build()
        .unwrap();
    report_json(&solver.solve(&inst, &SolveCtx::new(seed).with_sims(sims)))
}

/// Asserts the response is an OK envelope whose `"result"` object is
/// byte-identical to `expected` (the envelope's deterministic part).
fn assert_result_is(resp: &Response, expected: &str) {
    let Response::Ok(payload) = resp else {
        panic!("expected OK, got {resp:?}");
    };
    let prefix = format!("{{\"result\":{expected},\"server\":");
    assert!(
        payload.starts_with(&prefix),
        "server result diverged from offline run:\n  server : {payload}\n  offline: {expected}"
    );
}

#[test]
fn concurrent_clients_get_bit_identical_answers_to_offline_runs() {
    let handle = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Four clients, two distinct workloads, interleaved on purpose so
    // both hit the same (model, seed) arena concurrently.
    let jobs: [(&str, &str, Vec<u32>, u64, u32); 4] = [
        (
            "warm-grd budgets=4,2 seed=7 sims=50",
            "warm-grd",
            vec![4, 2],
            7,
            50,
        ),
        (
            "warm-grd budgets=2,1 seed=7 sims=50 eps=0.4",
            "warm-grd eps=0.4",
            vec![2, 1],
            7,
            50,
        ),
        (
            "warm-grd budgets=4,2 seed=7 sims=50",
            "warm-grd",
            vec![4, 2],
            7,
            50,
        ),
        ("warm-grd budgets=3,3 seed=9", "warm-grd", vec![3, 3], 9, 0),
    ];
    let responses: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(request, ..)| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    // Each client repeats its request: the repeat must
                    // be served from the warm arena, identically.
                    (0..3)
                        .map(|_| c.request(request).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((_, spec, budgets, seed, sims), client_responses) in jobs.iter().zip(&responses) {
        let expected = offline_result(spec, budgets.clone(), *seed, *sims);
        for resp in client_responses {
            assert_result_is(resp, &expected);
        }
    }

    // The arena answered repeats without regenerating: far fewer sets
    // were generated than 12 cold runs would need.
    let metrics = handle.metrics_json();
    assert!(metrics.contains(r#""ok_total":12"#), "{metrics}");
    handle.shutdown();
    handle.join();
}

#[test]
fn repeat_and_mixed_budget_queries_ride_the_plan_cache() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    // Cold query: computes and memoizes selection plans.
    let first = c.request("warm-grd budgets=4,2 seed=21 sims=30").unwrap();
    let expected = offline_result("warm-grd", vec![4, 2], 21, 30);
    assert_result_is(&first, &expected);

    // Repeat: the exact bytes again, now served from cached plans.
    let again = c.request("warm-grd budgets=4,2 seed=21 sims=30").unwrap();
    assert_result_is(&again, &expected);

    // Mixed budgets on the same arena: narrower slices the cached
    // plans, wider may resume them — both must still equal offline.
    let narrow = c.request("warm-grd budgets=2,1 seed=21 sims=30").unwrap();
    assert_result_is(&narrow, &offline_result("warm-grd", vec![2, 1], 21, 30));
    let wide = c.request("warm-grd budgets=6,3 seed=21 sims=30").unwrap();
    assert_result_is(&wide, &offline_result("warm-grd", vec![6, 3], 21, 30));

    // Every OK response carries the phase split, ordered before the
    // rr_topup field CI greps anchor on.
    for resp in [&first, &again, &narrow, &wide] {
        let p = resp.payload();
        assert!(p.contains(r#""selection_us":"#), "{p}");
        assert!(p.contains(r#""topup_us":"#), "{p}");
        assert!(p.contains(r#""scoring_us":"#), "{p}");
        assert!(p.contains(r#""rr_topup":"#), "{p}");
    }

    let metrics = handle.metrics_json();
    assert!(
        !metrics.contains(r#""plan_hits":0,"#),
        "repeat query must hit: {metrics}"
    );
    assert!(
        !metrics.contains(r#""plan_misses":0,"#),
        "cold query must miss: {metrics}"
    );
    for ring in ["selection_us", "topup_us", "scoring_us"] {
        assert!(
            metrics.contains(&format!(r#""{ring}":{{"count":"#)),
            "{ring} ring in {metrics}"
        );
    }
    assert!(metrics.contains(r#""coalesced_waits":"#), "{metrics}");
    handle.shutdown();
    handle.join();
}

#[test]
fn admin_verbs_and_metrics_roundtrip() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        c.request("ping").unwrap(),
        Response::Ok("{\"pong\":true}".into())
    );
    c.request("warm-grd budgets=2,1 seed=1").unwrap();
    let metrics = c.request("metrics").unwrap();
    let Response::Ok(m) = metrics else {
        panic!("metrics failed: {metrics:?}")
    };
    // ok_total counts *solves* only; the ping and the metrics dump are
    // admin traffic.
    assert!(m.contains(r#""ok_total":1"#), "{m}");
    assert!(m.contains(r#""rr_topup_total":"#), "{m}");
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_frames_get_typed_errors_not_crashes() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();

    // Unknown frame kind: one bad-frame error, then the connection is
    // closed (the byte stream is no longer trustworthy).
    let mut s = TcpStream::connect(addr).unwrap();
    let mut junk = Vec::new();
    junk.extend_from_slice(&3u32.to_le_bytes());
    junk.push(0x40);
    junk.extend_from_slice(b"wat");
    s.write_all(&junk).unwrap();
    let f = read_frame(&mut s).unwrap().expect("an error frame");
    assert_eq!(f.kind, KIND_ERR);
    let body = String::from_utf8(f.payload).unwrap();
    assert!(body.contains(r#""code":"bad-frame""#), "{body}");
    assert!(matches!(
        read_frame(&mut s),
        Ok(None) | Err(FrameError::Io(_))
    ));

    // Oversized length prefix: refused before any allocation.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.write_all(&[KIND_REQ]).unwrap();
    let f = read_frame(&mut s).unwrap().expect("an error frame");
    let body = String::from_utf8(f.payload).unwrap();
    assert!(body.contains(r#""code":"bad-frame""#), "{body}");

    // Non-UTF-8 payload inside a well-formed frame: typed, recoverable —
    // the same connection still answers a good request afterwards.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&2u32.to_le_bytes());
    frame.push(KIND_REQ);
    frame.extend_from_slice(&[0xff, 0xfe]);
    s.write_all(&frame).unwrap();
    let f = read_frame(&mut s).unwrap().expect("an error frame");
    assert!(String::from_utf8(f.payload).unwrap().contains("bad-frame"));
    uic_serve::write_frame(&mut s, KIND_REQ, b"ping").unwrap();
    let f = read_frame(&mut s).unwrap().expect("a pong");
    assert_eq!(String::from_utf8(f.payload).unwrap(), "{\"pong\":true}");

    // Bad specs are typed too.
    let mut c = Client::connect(addr).unwrap();
    for (req, code) in [
        ("frobnicate budgets=1,1", "unknown-solver"),
        ("warm-grd seed=3", "bad-spec"),
        ("warm-grd budgets=1,1,1", "bad-instance"),
        ("warm-grd budgets=2,1 objective=maximin", "unsupported"),
    ] {
        let resp = c.request(req).unwrap();
        let Response::Err(body) = resp else {
            panic!("{req} should fail, got {resp:?}")
        };
        assert!(
            body.contains(&format!(r#""code":"{code}""#)),
            "{req}: {body}"
        );
    }

    let metrics = handle.metrics_json();
    assert!(metrics.contains(r#""bad_frame_total":3"#), "{metrics}");
    handle.shutdown();
    handle.join();
}

#[test]
fn an_expired_deadline_is_refused_with_a_typed_error() {
    let handle = start(ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();
    // deadline_ms=0 is deterministically expired by the time the engine
    // checks it — the refusal must be typed, and the connection usable.
    let resp = c.request("warm-grd budgets=2,1 deadline_ms=0").unwrap();
    let Response::Err(body) = resp else {
        panic!("expected a deadline error, got {resp:?}")
    };
    assert!(body.contains(r#""code":"deadline""#), "{body}");
    assert!(c.request("warm-grd budgets=2,1 seed=4").unwrap().is_ok());
    let metrics = handle.metrics_json();
    assert!(metrics.contains(r#""deadline_total":1"#), "{metrics}");
    handle.shutdown();
    handle.join();
}

#[test]
fn a_full_admission_queue_answers_overloaded() {
    // One worker, zero queue slack: a second concurrent connection must
    // be refused at admission with a single `overloaded` frame.
    let handle = start(ServerConfig {
        workers: 1,
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut pinned = Client::connect(addr).unwrap();
    // Prove the lone worker is attached to this connection (and stays
    // attached: thread-per-connection).
    assert!(pinned.request("ping").unwrap().is_ok());

    let mut refused = TcpStream::connect(addr).unwrap();
    let f = read_frame(&mut refused)
        .unwrap()
        .expect("an overloaded error frame");
    assert_eq!(f.kind, KIND_ERR);
    let body = String::from_utf8(f.payload).unwrap();
    assert!(body.contains(r#""code":"overloaded""#), "{body}");

    // The pinned client still works; once it disconnects, a new client
    // is admitted.
    assert!(pinned.request("warm-grd budgets=2,1").unwrap().is_ok());
    drop(pinned);
    let mut next = retry_connect_until_served(addr);
    assert!(next.request("ping").unwrap().is_ok());

    // At least the one scripted refusal (the admitted-client probes in
    // retry_connect_until_served may add more while the worker is
    // still returning to the pool).
    let metrics = handle.metrics_json();
    assert!(!metrics.contains(r#""overloaded_total":0,"#), "{metrics}");
    handle.shutdown();
    handle.join();
}

#[test]
fn a_connection_right_after_start_is_admitted() {
    // Workers count as idle from spawn: with one worker and no queue
    // slack, a client that connects before the worker thread first parks
    // must be served, never refused as `overloaded`. Repeated because the
    // race it pins only shows on some schedules.
    let graph = test_graph();
    for round in 0..60 {
        let handle = Server::start(
            Arc::clone(&graph),
            ServerConfig {
                workers: 1,
                queue_cap: 0,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        let resp = client.request("ping").unwrap();
        assert!(resp.is_ok(), "round {round}: {resp:?}");
        drop(client);
        handle.shutdown();
        let metrics = handle.join();
        assert!(metrics.contains(r#""overloaded_total":0,"#), "{metrics}");
    }
}

/// After the pinned connection closes, the worker needs a moment to
/// return to the pool; retry until a connection is actually served.
fn retry_connect_until_served(addr: std::net::SocketAddr) -> Client {
    for _ in 0..100 {
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.request("ping"), Ok(r) if r.is_ok()) {
                return c;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    panic!("worker never became available again");
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // A working client whose request is in flight while the drain is
    // triggered. The ping pins the connection to a worker; the metrics
    // poll below proves the solve frame has been *read* (requests_total
    // counts frames at read time) before the drain starts, so the solve
    // is genuinely in flight, not merely in a socket buffer.
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        assert!(c.request("ping").unwrap().is_ok());
        c.request("warm-grd budgets=4,2 seed=11 sims=200").unwrap()
    });
    for _ in 0..500 {
        if handle.metrics_json().contains(r#""requests_total":2"#) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        handle.metrics_json().contains(r#""requests_total":2"#),
        "the solve frame was never read: {}",
        handle.metrics_json()
    );
    std::thread::sleep(std::time::Duration::from_millis(50));
    handle.shutdown();

    // The in-flight solve completes (drain, not abort) with the right
    // answer …
    let in_flight = worker.join().unwrap();
    assert_result_is(&in_flight, &offline_result("warm-grd", vec![4, 2], 11, 200));

    // … every thread exits, and the final metrics are sane.
    let final_metrics = handle.join();
    assert!(final_metrics.contains(r#""ok_total":"#), "{final_metrics}");

    // The listener is gone: new connections are refused outright (or
    // torn down without service if the OS briefly queued them).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                .unwrap();
            uic_serve::write_frame(&mut s, KIND_REQ, b"ping").ok();
            let mut buf = [0u8; 1];
            assert!(
                !matches!(s.read(&mut buf), Ok(n) if n > 0),
                "a drained server must not serve new connections"
            );
        }
    }
}

#[test]
fn the_load_driver_reports_sane_numbers() {
    let handle = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let report = run_load(handle.addr(), "warm-grd budgets=3,2 seed=5", 3, 4).unwrap();
    assert_eq!(report.clients, 3);
    assert_eq!(report.requests, 12);
    assert_eq!(report.ok, 12, "all load requests must succeed");
    assert_eq!(report.errors, 0);
    assert!(report.qps > 0.0);
    assert!(report.p50_us <= report.p90_us && report.p90_us <= report.p99_us);
    let json = report.to_json();
    assert!(
        json.contains(r#""qps":"#) && json.contains(r#""p99_us":"#),
        "{json}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn an_overloaded_server_refuses_and_the_driver_reports_it() {
    // One worker and a zero-length queue: a worker pins its connection
    // until the client hangs up, so with 4 concurrent clients at most
    // one is admitted at a time and the rest are refused at accept.
    let handle = start(ServerConfig {
        workers: 1,
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let policy = RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    };
    let report = run_load_with(
        handle.addr(),
        "warm-grd budgets=3,2 seed=5 sims=50",
        4,
        3,
        &policy,
    )
    .unwrap();
    assert_eq!(report.requests, 12);
    assert!(report.ok >= 3, "the admitted client finishes its work");
    assert!(report.refused > 0, "refusals must be counted: {report:?}");
    assert!(report.retried > 0, "retries must be counted: {report:?}");
    assert_eq!(
        report.failed,
        report.requests - report.ok,
        "every non-ok request gave up after retries: {report:?}"
    );
    // Refusals landed in the server's overloaded counter too.
    let metrics = handle.metrics_json();
    assert!(
        !metrics.contains(r#""overloaded_total":0"#),
        "server saw no refusals: {metrics}"
    );
    handle.shutdown();
    handle.join();
}
