//! HTTP handlers for the incremental ECO session endpoints.
//!
//! - `POST /v1/session` — load a design (netgen spec or multi-net
//!   SPEF), time it once, and keep it resident.
//! - `GET /v1/session` — list live sessions + manager/cache counters.
//! - `POST /v1/session/{id}/eco` — apply an edit batch; only the dirty
//!   cone is re-timed. Stage timings land in the request trace as
//!   `dirty_set` / `cache_lookup` / `predict` / `propagate`.
//! - `POST /v1/session/{id}/rollback` — restore an earlier epoch.
//! - `GET /v1/session/{id}/timing` — current summary (`?net=` for one
//!   net's per-sink arrivals).
//! - `DELETE /v1/session/{id}` — unload.
//!
//! All handlers run inline on the connection thread: session work is
//! stateful and lock-serialized per session, so routing it through the
//! shared predict queue would only add latency and head-of-line risk.

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::server::{Shared, OTHER};
use crate::trace::RequestTrace;
use eco::session::TimingSummary;
use eco::{DesignSession, EcoEdit, EcoError, EcoReport};
use obs::trace::Stage;
use rcnet::Seconds;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maps engine errors onto HTTP statuses; the body keeps the message.
fn eco_error(e: &EcoError) -> Response {
    let status = match e {
        EcoError::UnknownSession(_) => 404,
        EcoError::UnknownEpoch(_) => 409,
        EcoError::BadDesign(_)
        | EcoError::UnknownNet(_)
        | EcoError::UnknownNode { .. }
        | EcoError::UnknownCell(_)
        | EcoError::BadEdit(_) => 400,
        _ => 500,
    };
    Response::error(status, &e.to_string())
}

fn push_summary(out: &mut String, s: &TimingSummary) {
    out.push_str("{\"nets\":");
    out.push_str(&s.nets.to_string());
    out.push_str(",\"gates\":");
    out.push_str(&s.gates.to_string());
    out.push_str(",\"epoch\":");
    out.push_str(&s.epoch.to_string());
    out.push_str(",\"model_generation\":");
    out.push_str(&s.model_generation.to_string());
    out.push_str(",\"critical\":");
    match &s.critical {
        None => out.push_str("null"),
        Some(c) => {
            out.push_str("{\"net\":");
            obs::json::push_string(out, &c.net);
            out.push_str(",\"sink\":");
            obs::json::push_string(out, &c.sink);
            out.push_str(",\"arrival_ps\":");
            obs::json::push_f64(out, c.arrival * 1e12);
            out.push_str(",\"slew_ps\":");
            obs::json::push_f64(out, c.slew * 1e12);
            out.push('}');
        }
    }
    out.push('}');
}

fn push_report(out: &mut String, r: &EcoReport) {
    out.push_str("{\"epoch\":");
    out.push_str(&r.epoch.to_string());
    out.push_str(",\"model_generation\":");
    out.push_str(&r.model_generation.to_string());
    out.push_str(",\"full_retime\":");
    out.push_str(if r.full_retime { "true" } else { "false" });
    out.push_str(",\"nets_retimed\":");
    out.push_str(&r.stats.nets_retimed.to_string());
    out.push_str(",\"cache_hits\":");
    out.push_str(&r.stats.cache_hits.to_string());
    out.push_str(",\"cache_misses\":");
    out.push_str(&r.stats.cache_misses.to_string());
    out.push_str(",\"dirty_nets\":[");
    for (i, n) in r.dirty_nets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        obs::json::push_string(out, n);
    }
    out.push_str("]}");
}

/// Copies a retime's effort breakdown into the request trace.
fn record_stages(trace: &RequestTrace, stats: &eco::RetimeStats) {
    trace.record(Stage::DirtySet, Duration::from_secs_f64(stats.dirty_set_s));
    trace.record(Stage::CacheLookup, Duration::from_secs_f64(stats.cache_lookup_s));
    trace.record(Stage::Predict, Duration::from_secs_f64(stats.predict_s));
    trace.record(Stage::Propagate, Duration::from_secs_f64(stats.propagate_s));
}

/// Routes `/v1/session*` paths, naming the route pattern matched (the
/// server's `endpoint` label). Returns `None` when the path does not
/// belong to the session API at all.
pub(crate) fn route(
    request: &Request,
    shared: &Arc<Shared>,
    trace: &RequestTrace,
) -> Option<(&'static str, Response)> {
    let rest = request.path.strip_prefix("/v1/session")?;
    let segs: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    Some(match (method, segs.as_slice()) {
        ("POST", []) => ("POST /v1/session", create(request, shared, trace)),
        ("GET", []) => ("GET /v1/session", list(shared)),
        ("DELETE", [id]) => ("DELETE /v1/session/{id}", delete(shared, id)),
        ("POST", [id, "eco"]) => (
            "POST /v1/session/{id}/eco",
            apply_eco(request, shared, trace, id),
        ),
        ("POST", [id, "rollback"]) => (
            "POST /v1/session/{id}/rollback",
            rollback(request, shared, id),
        ),
        ("GET", [id, "timing"]) => ("GET /v1/session/{id}/timing", timing(request, shared, id)),
        ("GET" | "POST" | "DELETE", _) => (OTHER, Response::error(404, "unknown session path")),
        _ => (OTHER, Response::error(405, "method not allowed")),
    })
}

/// Builds the netlist a create request describes.
fn build_netlist(body: &Json, max_nets: usize) -> Result<sta::netlist::Netlist, Response> {
    let nl = match (body.get("netgen"), body.get("spef")) {
        (Some(spec), None) => {
            let Some(design) = spec.get("design").and_then(Json::as_str) else {
                return Err(Response::error(400, "netgen spec needs a string field `design`"));
            };
            let scale = spec.get("scale").and_then(Json::as_f64).unwrap_or(0.05);
            let seed = spec.get("seed").and_then(Json::as_u64).unwrap_or(1);
            eco::design::from_netgen(design, scale, seed).map_err(|e| eco_error(&e))?
        }
        (None, Some(spef)) => {
            let Some(text) = spef.as_str() else {
                return Err(Response::error(400, "field `spef` must be a string"));
            };
            eco::design::from_spef(text).map_err(|e| eco_error(&e))?
        }
        (Some(_), Some(_)) => {
            return Err(Response::error(400, "supply either `spef` or `netgen`, not both"))
        }
        (None, None) => return Err(Response::error(400, "missing `spef` or `netgen` field")),
    };
    if nl.nets().len() > max_nets {
        return Err(Response::error(
            400,
            &format!("{} nets exceeds per-session limit {max_nets}", nl.nets().len()),
        ));
    }
    Ok(nl)
}

fn create(request: &Request, shared: &Arc<Shared>, trace: &RequestTrace) -> Response {
    let started = Instant::now();
    trace.mark_pipeline();
    let parsed = match request.body_utf8().map_err(|e| e.to_string()).and_then(|b| {
        json::parse(b).map_err(|e| e.to_string())
    }) {
        Ok(v) => v,
        Err(m) => return Response::error(400, &m),
    };
    let name = match parsed.get("name").and_then(Json::as_str) {
        Some(n) if n.is_empty() || n.len() > 64 || n.contains('/') => {
            return Response::error(400, "session `name` must be 1-64 chars without `/`")
        }
        Some(n) => Some(n.to_string()),
        None => None,
    };
    let input_slew = parsed
        .get("input_slew_ps")
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite() && *v > 0.0 && *v < 1e6)
        .unwrap_or(20.0);
    let netlist = match build_netlist(&parsed, shared.cfg.max_session_nets) {
        Ok(n) => n,
        Err(resp) => {
            trace.record(Stage::Parse, started.elapsed());
            return resp;
        }
    };
    trace.record(Stage::Parse, started.elapsed());

    let mut session = DesignSession::new(
        name.clone().unwrap_or_else(|| "session".into()),
        netlist,
        Seconds::from_ps(input_slew),
    );
    let model = shared.slot.current();
    let stats = match session.full_retime(&model.estimator, model.generation, shared.sessions.cache())
    {
        Ok(s) => s,
        Err(e) => return eco_error(&e),
    };
    record_stages(trace, &stats);
    let summary = session.timing_summary();
    let id = shared.sessions.insert(name, session);
    obs::counter("eco.sessions.created").inc();

    let mut out = String::with_capacity(256);
    out.push_str("{\"session\":");
    obs::json::push_string(&mut out, &id);
    out.push_str(",\"timing\":");
    push_summary(&mut out, &summary);
    out.push('}');
    Response::json(201, out)
}

fn list(shared: &Arc<Shared>) -> Response {
    let stats = shared.sessions.stats();
    let mut ids = shared.sessions.ids();
    ids.sort();
    let mut out = String::with_capacity(128);
    out.push_str("{\"sessions\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        obs::json::push_string(&mut out, id);
    }
    out.push_str("],\"session_bytes\":");
    out.push_str(&stats.session_bytes.to_string());
    out.push_str(",\"evictions\":");
    out.push_str(&stats.evictions.to_string());
    out.push_str(",\"cache\":{\"hits\":");
    out.push_str(&stats.cache.hits.to_string());
    out.push_str(",\"misses\":");
    out.push_str(&stats.cache.misses.to_string());
    out.push_str(",\"entries\":");
    out.push_str(&stats.cache.entries.to_string());
    out.push_str(",\"bytes\":");
    out.push_str(&stats.cache.bytes.to_string());
    out.push_str(",\"hit_rate\":");
    obs::json::push_f64(&mut out, stats.cache.hit_rate());
    out.push_str("}}");
    Response::json(200, out)
}

fn delete(shared: &Arc<Shared>, id: &str) -> Response {
    match shared.sessions.delete(id) {
        Ok(()) => Response::json(200, "{\"deleted\":true}"),
        Err(e) => eco_error(&e),
    }
}

/// One edit object (`{"op":"resize_driver","net":...,...}`) → [`EcoEdit`].
fn parse_edit(v: &Json) -> Result<EcoEdit, String> {
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("edit needs a string field `op`")?;
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("op `{op}` needs a string field `{key}`"))
    };
    let f = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("op `{op}` needs a number field `{key}`"))
    };
    Ok(match op {
        "resize_driver" => EcoEdit::ResizeDriver { net: s("net")?, cell: s("cell")? },
        "set_sink_load" => EcoEdit::SetSinkLoad {
            net: s("net")?,
            sink: s("sink")?,
            ceff_ff: f("ceff_ff")?,
        },
        "insert_buffer" => EcoEdit::InsertBuffer {
            net: s("net")?,
            sink: s("sink")?,
            cell: s("cell")?,
        },
        "set_resistance" => EcoEdit::SetResistance {
            net: s("net")?,
            a: s("a")?,
            b: s("b")?,
            ohms: f("ohms")?,
        },
        "set_cap" => EcoEdit::SetCap { net: s("net")?, node: s("node")?, ff: f("ff")? },
        "add_resistor" => EcoEdit::AddResistor {
            net: s("net")?,
            a: s("a")?,
            b: s("b")?,
            ohms: f("ohms")?,
        },
        other => return Err(format!("unknown edit op `{other}`")),
    })
}

fn apply_eco(request: &Request, shared: &Arc<Shared>, trace: &RequestTrace, id: &str) -> Response {
    let started = Instant::now();
    trace.mark_pipeline();
    let parsed = match request.body_utf8().map_err(|e| e.to_string()).and_then(|b| {
        json::parse(b).map_err(|e| e.to_string())
    }) {
        Ok(v) => v,
        Err(m) => return Response::error(400, &m),
    };
    let Some(Json::Arr(items)) = parsed.get("edits") else {
        return Response::error(400, "missing array field `edits`");
    };
    if items.len() > shared.cfg.max_edits_per_request {
        return Response::error(
            400,
            &format!(
                "{} edits exceeds per-request limit {}",
                items.len(),
                shared.cfg.max_edits_per_request
            ),
        );
    }
    let edits: Vec<EcoEdit> = match items.iter().map(parse_edit).collect() {
        Ok(e) => e,
        Err(m) => return Response::error(400, &m),
    };
    trace.record(Stage::Parse, started.elapsed());

    let session = match shared.sessions.get(id) {
        Ok(s) => s,
        Err(e) => return eco_error(&e),
    };
    let model = shared.slot.current();
    let mut session = session.lock().expect("session lock");
    let report = match session.apply(
        &edits,
        &model.estimator,
        model.generation,
        shared.sessions.cache(),
    ) {
        Ok(r) => r,
        Err(e) => return eco_error(&e),
    };
    record_stages(trace, &report.stats);
    trace.set_nets(report.stats.nets_retimed);
    obs::counter("eco.edits.applied").add(edits.len() as u64);
    obs::histogram("eco.retime.nets").observe(report.stats.nets_retimed as f64);
    let summary = session.timing_summary();
    drop(session);

    let mut out = String::with_capacity(512);
    out.push_str("{\"report\":");
    push_report(&mut out, &report);
    out.push_str(",\"timing\":");
    push_summary(&mut out, &summary);
    out.push('}');
    Response::json(200, out)
}

fn rollback(request: &Request, shared: &Arc<Shared>, id: &str) -> Response {
    let parsed = match request.body_utf8().map_err(|e| e.to_string()).and_then(|b| {
        json::parse(b).map_err(|e| e.to_string())
    }) {
        Ok(v) => v,
        Err(m) => return Response::error(400, &m),
    };
    let Some(epoch) = parsed.get("epoch").and_then(Json::as_u64) else {
        return Response::error(400, "missing integer field `epoch`");
    };
    let session = match shared.sessions.get(id) {
        Ok(s) => s,
        Err(e) => return eco_error(&e),
    };
    let mut session = session.lock().expect("session lock");
    if let Err(e) = session.rollback(epoch) {
        return eco_error(&e);
    }
    let summary = session.timing_summary();
    drop(session);
    let mut out = String::from("{\"rolled_back_to\":");
    out.push_str(&epoch.to_string());
    out.push_str(",\"timing\":");
    push_summary(&mut out, &summary);
    out.push('}');
    Response::json(200, out)
}

fn timing(request: &Request, shared: &Arc<Shared>, id: &str) -> Response {
    let session = match shared.sessions.get(id) {
        Ok(s) => s,
        Err(e) => return eco_error(&e),
    };
    let session = session.lock().expect("session lock");
    match request.query_param("net") {
        None => {
            let mut out = String::with_capacity(256);
            out.push_str("{\"timing\":");
            push_summary(&mut out, &session.timing_summary());
            out.push_str(",\"snapshot_epochs\":[");
            for (i, e) in session.snapshot_epochs().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&e.to_string());
            }
            out.push_str("]}");
            Response::json(200, out)
        }
        Some(net) => match session.net_timing(net) {
            Err(e) => eco_error(&e),
            Ok(rows) => {
                let mut out = String::with_capacity(64 + 64 * rows.len());
                out.push_str("{\"net\":");
                obs::json::push_string(&mut out, net);
                out.push_str(",\"sinks\":[");
                for (i, (sink, at, slew)) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"sink\":");
                    obs::json::push_string(&mut out, sink);
                    out.push_str(",\"arrival_ps\":");
                    obs::json::push_f64(&mut out, at * 1e12);
                    out.push_str(",\"slew_ps\":");
                    obs::json::push_f64(&mut out, slew * 1e12);
                    out.push('}');
                }
                out.push_str("]}");
                Response::json(200, out)
            }
        },
    }
}
