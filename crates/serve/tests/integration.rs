//! End-to-end tests over real sockets: every endpoint, the error
//! paths, backpressure, deadlines, hot-reload under load, and graceful
//! shutdown.

use serve::json::{self, Json};
use serve::{demo_model, Client, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn test_server(workers: usize) -> Server {
    test_server_with(|cfg| cfg.workers = workers)
}

fn test_server_with(tweak: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        batch_max: 4,
        deadline: Duration::from_secs(2),
        ..Default::default()
    };
    tweak(&mut cfg);
    Server::start(cfg, demo_model(5, 8, 6), "test").expect("server starts")
}

fn spef_body() -> String {
    let spef = r#"*SPEF "IEEE 1481-1998"
*DESIGN "t"
*DELIMITER :
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM
*D_NET t0 3.0
*CONN
*I d:Z O
*I l:A I
*CAP
1 t0:1 1.0
2 l:A 2.0
*RES
1 d:Z t0:1 10.0
2 t0:1 l:A 30.0
*END
"#;
    let mut b = String::from("{\"spef\":");
    obs::json::push_string(&mut b, spef);
    b.push('}');
    b
}

fn assert_finite_paths(body: &str) -> usize {
    let v = json::parse(body).expect("response is JSON");
    let Some(Json::Arr(nets)) = v.get("nets").cloned() else {
        panic!("missing nets array in {body}");
    };
    let mut seen = 0;
    for net in &nets {
        let Some(Json::Arr(paths)) = net.get("paths").cloned() else {
            panic!("missing paths in {net:?}");
        };
        for p in &paths {
            let s = p.get("slew_ps").and_then(Json::as_f64).expect("slew_ps");
            let d = p.get("delay_ps").and_then(Json::as_f64).expect("delay_ps");
            assert!(s.is_finite() && d.is_finite(), "non-finite path {p:?}");
            seen += 1;
        }
    }
    seen
}

#[test]
fn predict_returns_finite_estimates_for_spef_and_netgen() {
    let server = test_server(2);
    let mut client = Client::new(server.local_addr());

    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body);
    assert!(assert_finite_paths(&r.body) > 0);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("model_generation").and_then(Json::as_u64), Some(1));

    let r = client
        .request(
            "POST",
            "/v1/predict",
            Some(r#"{"netgen":{"seed":3,"count":3},"input_slew_ps":35.0}"#),
        )
        .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body);
    assert!(assert_finite_paths(&r.body) >= 3);
    server.shutdown();
}

#[test]
fn predict_rejects_malformed_bodies_with_400() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    let nan_cap = spef_body().replace("2 l:A 2.0", "2 l:A NaN");
    for bad in [
        "not json at all",
        "{\"spef\": 42}",
        "{\"spef\": \"*NOT A SPEF\"}",
        "{}",
        "{\"spef\":\"x\",\"netgen\":{}}",
        "{\"netgen\":{\"count\":0}}",
        "{\"netgen\":{\"count\":100000}}",
        nan_cap.as_str(),
    ] {
        let r = client.request("POST", "/v1/predict", Some(bad)).unwrap();
        assert_eq!(r.status, 400, "`{bad}` should 400, got {}: {}", r.status, r.body);
        assert!(r.body.contains("\"error\""), "error body: {}", r.body);
    }
    server.shutdown();
}

#[test]
fn unknown_paths_and_methods_are_404_405() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    let r = client.request("GET", "/nope", None).unwrap();
    assert_eq!(r.status, 404);
    let r = client.request("DELETE", "/healthz", None).unwrap();
    assert_eq!(r.status, 405);
    server.shutdown();
}

#[test]
fn oversized_bodies_are_413() {
    let server = test_server_with(|cfg| {
        cfg.workers = 1;
        cfg.max_body_bytes = 256;
    });
    let mut client = Client::new(server.local_addr());
    let big = format!("{{\"pad\":\"{}\"}}", "x".repeat(1024));
    let r = client.request("POST", "/v1/predict", Some(&big)).unwrap();
    assert_eq!(r.status, 413);
    server.shutdown();
}

#[test]
fn healthz_reports_model_and_queue() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    let r = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(r.status, 200);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    let model = v.get("model").expect("model object");
    assert_eq!(model.get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(model.get("source").and_then(Json::as_str), Some("test"));
    assert!(v.get("queue_depth").and_then(Json::as_u64).is_some());
    server.shutdown();
}

#[test]
fn metrics_returns_obs_snapshot_with_serve_series() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    // Generate at least one predict so serve series exist.
    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 200);
    let r = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(r.status, 200);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(
        v.get("schema").and_then(Json::as_str),
        Some("obs.run_report.v1")
    );
    for series in [
        "serve.http.requests",
        "serve.queue.depth",
        "serve.request.seconds",
        "serve.model.generation",
    ] {
        assert!(r.body.contains(series), "metrics missing {series}");
    }
    server.shutdown();
}

/// With zero workers nothing drains the queue, so capacity overflow
/// must surface as 503 + Retry-After and queued work must die with 504
/// at its deadline.
#[test]
fn backpressure_503_and_deadline_504_when_workers_stall() {
    let server = test_server_with(|cfg| {
        cfg.workers = 0;
        cfg.queue_capacity = 2;
        cfg.deadline = Duration::from_millis(300);
    });
    let addr = server.local_addr();

    // Fill the queue from background threads; their requests will 504.
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            let body = spef_body();
            std::thread::spawn(move || {
                let mut c = Client::new(addr);
                c.request("POST", "/v1/predict", Some(&body)).unwrap()
            })
        })
        .collect();
    // Give the fillers time to enqueue.
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::new(addr);
    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 503, "expected queue-full, got: {}", r.body);
    assert_eq!(r.retry_after.as_deref(), Some("1"));

    for f in fillers {
        let r = f.join().unwrap();
        assert_eq!(r.status, 504, "queued work should expire: {}", r.body);
    }
    server.shutdown();
}

#[test]
fn hot_reload_swaps_generation_with_zero_failed_inflight_requests() {
    let server = test_server(2);
    let addr = server.local_addr();
    let ckpt = std::env::temp_dir().join(format!(
        "serve_integration_reload_{}.bin",
        std::process::id()
    ));
    demo_model(17, 8, 6).save(&ckpt).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let spam: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = spef_body();
            std::thread::spawn(move || {
                let mut c = Client::new(addr);
                let mut ok = 0u32;
                let mut failed = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    match c.request("POST", "/v1/predict", Some(&body)) {
                        Ok(r) if r.status == 200 => ok += 1,
                        _ => failed += 1,
                    }
                }
                (ok, failed)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let mut client = Client::new(addr);
    let reload_body = {
        let mut b = String::from("{\"path\":");
        obs::json::push_string(&mut b, &ckpt.to_string_lossy());
        b.push('}');
        b
    };
    let r = client
        .request("POST", "/v1/model/reload", Some(&reload_body))
        .unwrap();
    assert_eq!(r.status, 200, "reload failed: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("generation").and_then(Json::as_u64), Some(2));

    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let mut ok = 0;
    let mut failed = 0;
    for h in spam {
        let (o, f) = h.join().unwrap();
        ok += o;
        failed += f;
    }
    assert!(ok > 0, "no traffic flowed during the reload");
    assert_eq!(failed, 0, "hot-reload failed {failed} in-flight requests");

    // New predictions carry the new generation.
    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 200);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("model_generation").and_then(Json::as_u64), Some(2));

    // A bad reload leaves generation 2 serving.
    let r = client
        .request("POST", "/v1/model/reload", Some("{\"path\":\"/nonexistent\"}"))
        .unwrap();
    assert_eq!(r.status, 400);
    let r = client.request("GET", "/healthz", None).unwrap();
    assert!(r.body.contains("\"generation\":2"), "body: {}", r.body);

    let _ = std::fs::remove_file(&ckpt);
    server.shutdown();
}

#[test]
fn admin_shutdown_flags_drain_and_server_stops_cleanly() {
    let server = test_server(1);
    let addr = server.local_addr();
    let mut client = Client::new(addr);
    // Work flows before the drain.
    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 200);
    let r = client.request("POST", "/admin/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(server.shutdown_requested());
    server.shutdown();
    // The listener is gone: a fresh connection must fail.
    std::thread::sleep(Duration::from_millis(50));
    let mut fresh = Client::new(addr);
    assert!(fresh.request("GET", "/healthz", None).is_err());
}

#[test]
fn trace_roundtrip_stage_sum_matches_wall_time() {
    let server = test_server(2);
    let mut client = Client::new(server.local_addr());
    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 200);
    let trace_id = r.header("x-trace-id").expect("x-trace-id echoed").to_string();
    assert_eq!(trace_id.len(), 32, "id: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

    let r = client.request("GET", "/v1/traces?n=64", None).unwrap();
    assert_eq!(r.status, 200);
    let v = json::parse(&r.body).unwrap();
    assert!(v.get("capacity").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Arr(traces)) = v.get("traces").cloned() else {
        panic!("missing traces array in {}", r.body);
    };
    let trace = traces
        .iter()
        .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(&trace_id))
        .unwrap_or_else(|| panic!("trace {trace_id} not in /v1/traces: {}", r.body));

    assert_eq!(trace.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(trace.get("nets").and_then(Json::as_u64), Some(1));
    let total_ms = trace.get("total_ms").and_then(Json::as_f64).expect("total_ms");
    let stages = trace.get("stages").expect("stages object");
    let mut sum_ms = 0.0;
    for stage in ["accept", "parse", "queue_wait", "batch_wait", "inference", "respond"] {
        let v = stages
            .get(stage)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stage `{stage}` missing in {trace:?}"));
        assert!(v >= 0.0, "negative {stage}: {v}");
        sum_ms += v;
    }
    // The acceptance bar is 5%; respond is computed as the remainder,
    // so the reconstruction should be near-exact (JSON round-off only).
    let tolerance = (total_ms * 0.05).max(0.5);
    assert!(
        (sum_ms - total_ms).abs() <= tolerance,
        "stage sum {sum_ms} ms vs wall {total_ms} ms"
    );
    server.shutdown();
}

#[test]
fn client_supplied_trace_id_is_honored_end_to_end() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    let supplied = "c0ffee00c0ffee00c0ffee00c0ffee00";
    let r = client
        .request_with_headers(
            "POST",
            "/v1/predict",
            Some(&spef_body()),
            &[("x-trace-id", supplied)],
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-trace-id"), Some(supplied));
    let r = client
        .request("GET", &format!("/v1/traces?n={}", 64), None)
        .unwrap();
    assert!(r.body.contains(supplied), "honored id not in ring: {}", r.body);

    // Unparseable ids are replaced, not propagated.
    let r = client
        .request_with_headers(
            "POST",
            "/v1/predict",
            Some(&spef_body()),
            &[("x-trace-id", "not hex at all!")],
        )
        .unwrap();
    let echoed = r.header("x-trace-id").expect("echoed");
    assert_ne!(echoed, "not hex at all!");
    assert_eq!(echoed.len(), 32);

    // Non-predict endpoints echo an id too.
    let r = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(r.header("x-trace-id").map(str::len), Some(32));
    server.shutdown();
}

#[test]
fn traces_endpoint_filters_and_limits() {
    let server = test_server(2);
    let mut client = Client::new(server.local_addr());
    for _ in 0..5 {
        let r = client
            .request("POST", "/v1/predict", Some(&spef_body()))
            .unwrap();
        assert_eq!(r.status, 200);
    }
    let r = client.request("GET", "/v1/traces?n=2", None).unwrap();
    let v = json::parse(&r.body).unwrap();
    let Some(Json::Arr(traces)) = v.get("traces").cloned() else {
        panic!("missing traces in {}", r.body);
    };
    assert_eq!(traces.len(), 2, "n=2 must cap the response");
    // An absurd min_ms filters everything out.
    let r = client
        .request("GET", "/v1/traces?min_ms=100000", None)
        .unwrap();
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("traces"), Some(&Json::Arr(vec![])));
    server.shutdown();
}

#[test]
fn prometheus_metrics_render_and_validate() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    let r = client
        .request("POST", "/v1/predict", Some(&spef_body()))
        .unwrap();
    assert_eq!(r.status, 200);
    let r = client
        .request("GET", "/metrics?format=prometheus", None)
        .unwrap();
    assert_eq!(r.status, 200);
    obs::prometheus::validate(&r.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{}", r.body));
    assert!(r.body.contains("# TYPE serve_request_seconds histogram"), "{}", r.body);
    assert!(
        r.body.contains("serve_stage_seconds_bucket{stage=\"inference\""),
        "{}",
        r.body
    );
    assert!(r.body.contains("serve_http_requests_total{endpoint="), "{}", r.body);
    // JSON stays the default.
    let r = client.request("GET", "/metrics", None).unwrap();
    assert!(r.body.starts_with('{'), "default /metrics must stay JSON");
    // Unknown formats are a client error.
    let r = client.request("GET", "/metrics?format=xml", None).unwrap();
    assert_eq!(r.status, 400);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = test_server(2);
    let mut client = Client::new(server.local_addr());
    for _ in 0..20 {
        let r = client
            .request("POST", "/v1/predict", Some(&spef_body()))
            .unwrap();
        assert_eq!(r.status, 200);
    }
    server.shutdown();
}

/// Every non-2xx response — malformed method, path, body, or an
/// oversized payload — carries the same machine-readable envelope:
/// `{"error":{"code":N,"status":"...","message":"..."}}`.
#[test]
fn every_error_response_carries_the_structured_envelope() {
    let server = test_server_with(|cfg| {
        cfg.workers = 1;
        cfg.max_body_bytes = 512;
    });
    let mut client = Client::new(server.local_addr());
    let cases: Vec<(&str, &str, Option<String>, u16)> = vec![
        ("GET", "/no/such/path", None, 404),
        ("PATCH", "/healthz", None, 405),
        ("POST", "/v1/predict", Some("{not json".into()), 400),
        ("POST", "/v1/predict", Some("{}".into()), 400),
        ("POST", "/v1/predict", Some(format!("{{\"pad\":\"{}\"}}", "x".repeat(1024))), 413),
        ("GET", "/metrics?format=xml", None, 400),
        ("POST", "/v1/model/reload", Some("{}".into()), 400),
        ("GET", "/v1/session/ghost/timing", None, 404),
        ("POST", "/v1/session", Some("{}".into()), 400),
        ("POST", "/v1/session/ghost/eco", Some("{\"edits\":[]}".into()), 404),
        ("DELETE", "/v1/session/ghost", None, 404),
    ];
    for (method, path, body, want) in cases {
        let r = client.request(method, path, body.as_deref()).unwrap();
        assert_eq!(r.status, want, "{method} {path}: {}", r.body);
        let v = json::parse(&r.body)
            .unwrap_or_else(|e| panic!("{method} {path} body not JSON ({e}): {}", r.body));
        let err = v.get("error").expect("error object");
        assert_eq!(
            err.get("code").and_then(Json::as_u64),
            Some(want as u64),
            "{method} {path}: {}",
            r.body
        );
        assert!(err.get("status").and_then(Json::as_str).is_some());
        assert!(
            !err.get("message").and_then(Json::as_str).unwrap_or("").is_empty(),
            "{method} {path} has no message: {}",
            r.body
        );
    }
    server.shutdown();
}

/// Full session lifecycle: create → timing → incremental ECO →
/// per-net timing → rollback → delete.
#[test]
fn session_lifecycle_create_eco_rollback_delete() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());

    let create = r#"{"name":"opt1","netgen":{"design":"PCI_BRIDGE","scale":0.02,"seed":7},"input_slew_ps":20}"#;
    let r = client.request("POST", "/v1/session", Some(create)).unwrap();
    assert_eq!(r.status, 201, "create: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(v.get("session").and_then(Json::as_str), Some("opt1"));
    let timing = v.get("timing").expect("timing");
    assert_eq!(timing.get("epoch").and_then(Json::as_u64), Some(0));
    let critical = timing.get("critical").expect("critical");
    let crit_net = critical.get("net").and_then(Json::as_str).unwrap().to_string();
    let crit_sink = critical.get("sink").and_then(Json::as_str).unwrap().to_string();
    let arrival0 = critical.get("arrival_ps").and_then(Json::as_f64).unwrap();
    assert!(arrival0.is_finite() && arrival0 > 0.0);

    // The session shows up in the listing.
    let r = client.request("GET", "/v1/session", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"opt1\""), "listing: {}", r.body);

    // An incremental edit batch: only part of the design re-times.
    let eco = format!(
        "{{\"edits\":[{{\"op\":\"set_sink_load\",\"net\":{n},\"sink\":{s},\"ceff_ff\":4.5}}]}}",
        n = {
            let mut b = String::new();
            obs::json::push_string(&mut b, &crit_net);
            b
        },
        s = {
            let mut b = String::new();
            obs::json::push_string(&mut b, &crit_sink);
            b
        },
    );
    let r = client
        .request("POST", "/v1/session/opt1/eco", Some(&eco))
        .unwrap();
    assert_eq!(r.status, 200, "eco: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    let report = v.get("report").expect("report");
    assert_eq!(report.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("full_retime").and_then(Json::as_bool), Some(false));
    let retimed = report.get("nets_retimed").and_then(Json::as_u64).unwrap();
    let total = v
        .get("timing")
        .and_then(|t| t.get("nets"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        retimed < total,
        "an incremental edit re-timed the whole design ({retimed}/{total})"
    );

    // Per-net timing rows for the edited net.
    let r = client
        .request("GET", &format!("/v1/session/opt1/timing?net={crit_net}"), None)
        .unwrap();
    assert_eq!(r.status, 200, "net timing: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    let Some(Json::Arr(sinks)) = v.get("sinks").cloned() else {
        panic!("no sinks array: {}", r.body)
    };
    assert!(!sinks.is_empty());

    // Unknown edits are machine-readable 400s that leave state intact.
    let r = client
        .request(
            "POST",
            "/v1/session/opt1/eco",
            Some("{\"edits\":[{\"op\":\"resize_driver\",\"net\":\"ghost\",\"cell\":\"BUF_X4\"}]}"),
        )
        .unwrap();
    assert_eq!(r.status, 400, "bad eco: {}", r.body);

    // Rollback to the pre-edit epoch restores the original arrival.
    let r = client
        .request("POST", "/v1/session/opt1/rollback", Some("{\"epoch\":0}"))
        .unwrap();
    assert_eq!(r.status, 200, "rollback: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    let timing = v.get("timing").expect("timing");
    assert_eq!(timing.get("epoch").and_then(Json::as_u64), Some(0));
    let back = timing
        .get("critical")
        .and_then(|c| c.get("arrival_ps"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!((back - arrival0).abs() < 1e-6, "rollback arrival {back} != {arrival0}");

    // Rolling back to a never-snapshotted epoch is a 409.
    let r = client
        .request("POST", "/v1/session/opt1/rollback", Some("{\"epoch\":42}"))
        .unwrap();
    assert_eq!(r.status, 409, "rollback conflict: {}", r.body);

    let r = client.request("DELETE", "/v1/session/opt1", None).unwrap();
    assert_eq!(r.status, 200);
    let r = client.request("GET", "/v1/session/opt1/timing", None).unwrap();
    assert_eq!(r.status, 404);
    server.shutdown();
}

/// A model hot-reload must never let a session serve predictions cached
/// from the previous weights: the same edit after the reload re-times
/// under the new generation (full re-time) and reports it.
#[test]
fn hot_reload_invalidates_session_prediction_cache() {
    let server = test_server(1);
    let mut client = Client::new(server.local_addr());
    let ckpt = std::env::temp_dir().join(format!(
        "serve_integration_eco_reload_{}.bin",
        std::process::id()
    ));
    // Different seed/shape → genuinely different weights.
    demo_model(23, 10, 8).save(&ckpt).unwrap();

    let create = r#"{"name":"eco","netgen":{"design":"DMA","scale":0.02,"seed":3}}"#;
    let r = client.request("POST", "/v1/session", Some(create)).unwrap();
    assert_eq!(r.status, 201, "create: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    let crit = v.get("timing").and_then(|t| t.get("critical")).expect("critical");
    let net = crit.get("net").and_then(Json::as_str).unwrap().to_string();
    let sink = crit.get("sink").and_then(Json::as_str).unwrap().to_string();

    let eco = format!(
        "{{\"edits\":[{{\"op\":\"set_sink_load\",\"net\":\"{net}\",\"sink\":\"{sink}\",\"ceff_ff\":3.0}}]}}"
    );
    let r = client.request("POST", "/v1/session/eco/eco", Some(&eco)).unwrap();
    assert_eq!(r.status, 200, "eco: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    assert_eq!(
        v.get("report").and_then(|x| x.get("model_generation")).and_then(Json::as_u64),
        Some(1)
    );
    let arrival_gen1 = v
        .get("timing")
        .and_then(|t| t.get("critical"))
        .and_then(|c| c.get("arrival_ps"))
        .and_then(Json::as_f64)
        .unwrap();

    // Back to epoch 0, then swap the model.
    let r = client
        .request("POST", "/v1/session/eco/rollback", Some("{\"epoch\":0}"))
        .unwrap();
    assert_eq!(r.status, 200, "rollback: {}", r.body);
    let reload_body = {
        let mut b = String::from("{\"path\":");
        obs::json::push_string(&mut b, &ckpt.to_string_lossy());
        b.push('}');
        b
    };
    let r = client
        .request("POST", "/v1/model/reload", Some(&reload_body))
        .unwrap();
    assert_eq!(r.status, 200, "reload: {}", r.body);

    // The same edit again: the generation change escalates to a full
    // re-time under the new weights — and the number actually moves.
    let r = client.request("POST", "/v1/session/eco/eco", Some(&eco)).unwrap();
    assert_eq!(r.status, 200, "eco after reload: {}", r.body);
    let v = json::parse(&r.body).unwrap();
    let report = v.get("report").expect("report");
    assert_eq!(report.get("model_generation").and_then(Json::as_u64), Some(2));
    assert_eq!(
        report.get("full_retime").and_then(Json::as_bool),
        Some(true),
        "generation change must escalate to a full re-time"
    );
    let arrival_gen2 = v
        .get("timing")
        .and_then(|t| t.get("critical"))
        .and_then(|c| c.get("arrival_ps"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        (arrival_gen2 - arrival_gen1).abs() > 1e-9,
        "timing identical across a weight swap — stale predictions served? \
         gen1={arrival_gen1} gen2={arrival_gen2}"
    );
    let _ = std::fs::remove_file(&ckpt);
    server.shutdown();
}
