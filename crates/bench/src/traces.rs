//! Serve request traces read back as [`TraceRecord`]s: from a
//! `GET /v1/traces` response, or from a JSONL dump such as
//! `loadgen --traces-out` writes. Both carry each record as
//! [`TraceRecord::push_json`] writes it; `loadgen` and `obs-trace`
//! read them here.

use obs::{Stage, TraceRecord};
use serve::json::Json;
use std::net::SocketAddr;
use std::time::Duration;

/// One record from its JSON object.
fn decode(t: &Json) -> Option<TraceRecord> {
    let trace_id = obs::TraceId::parse(t.get("trace_id")?.as_str()?)?;
    let stages_obj = t.get("stages")?;
    let mut stages = [0.0f64; obs::trace::STAGE_COUNT];
    for stage in Stage::ALL {
        stages[stage.index()] = stages_obj.get(stage.name())?.as_f64()? / 1e3;
    }
    Some(TraceRecord {
        trace_id,
        started_unix_ms: t.get("started_unix_ms")?.as_u64()?,
        total_s: t.get("total_ms")?.as_f64()? / 1e3,
        status: u16::try_from(t.get("status")?.as_u64()?).ok()?,
        nets: u32::try_from(t.get("nets")?.as_u64()?).ok()?,
        stages,
    })
}

/// The records of a JSONL dump, one per non-blank line; an error names
/// the first line that is not a record.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut traces = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed =
            serve::json::parse(line).map_err(|e| format!("line {}: bad JSON: {e}", i + 1))?;
        traces.push(decode(&parsed).ok_or_else(|| format!("line {}: not a trace record", i + 1))?);
    }
    Ok(traces)
}

/// The records of a `/v1/traces` response body, skipping any item that
/// is not one.
fn from_body(body: &str) -> Result<Vec<TraceRecord>, String> {
    let parsed = serve::json::parse(body).map_err(|e| format!("traces body: {e}"))?;
    match parsed.get("traces") {
        Some(Json::Arr(items)) => Ok(items.iter().filter_map(decode).collect()),
        _ => Err("traces body missing `traces` array".into()),
    }
}

/// The newest `n` traces of the server at `addr`.
pub fn fetch(addr: SocketAddr, n: usize) -> Result<Vec<TraceRecord>, String> {
    let mut client = serve::Client::new(addr).with_timeout(Duration::from_secs(10));
    let r = client
        .request("GET", &format!("/v1/traces?n={n}"), None)
        .map_err(|e| format!("GET /v1/traces failed: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET /v1/traces returned {}", r.status));
    }
    from_body(&r.body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64) -> TraceRecord {
        // Binary fractions of a second survive the ms round trip exactly.
        let mut stages = [0.0; obs::trace::STAGE_COUNT];
        for (i, s) in stages.iter_mut().enumerate() {
            *s = (i + 1) as f64 / 64.0;
        }
        TraceRecord {
            trace_id: obs::TraceId::parse(&format!("{seed:032x}")).expect("hex trace id"),
            started_unix_ms: 1_700_000_000_000 + seed,
            total_s: 0.5,
            status: 200,
            nets: 4,
            stages,
        }
    }

    #[test]
    fn round_trips_as_a_jsonl_line() {
        let (a, b) = (record(1), record(2));
        let text = format!("{}\n\n{}\n", a.to_json(), b.to_json());
        assert_eq!(from_jsonl(&text), Ok(vec![a, b]));
        let err = from_jsonl("{\"trace_id\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1: not a trace record"), "{err}");
    }

    #[test]
    fn round_trips_as_a_traces_item() {
        let (a, b) = (record(3), record(4));
        let mut body = String::from("{\"capacity\":512,\"recorded\":2,\"traces\":[");
        a.push_json(&mut body);
        body.push(',');
        b.push_json(&mut body);
        body.push_str("]}");
        assert_eq!(from_body(&body), Ok(vec![a, b]));
        assert!(from_body("{\"capacity\":512}").is_err());
    }
}
