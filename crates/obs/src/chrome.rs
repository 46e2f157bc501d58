//! Chrome `trace_event` JSON export.
//!
//! Converts recorded [`TraceEvent`]s into the JSON Array Format consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): an
//! object with a `traceEvents` array where each event carries `name`,
//! `cat`, `ph`, `ts`, `pid`, `tid` (and `dur` for complete events).
//!
//! One simulated cycle maps to one microsecond of viewer time, so the
//! viewer's time axis reads directly in cycles. Events are stable-sorted
//! by start cycle before export, which guarantees monotone `ts` even when
//! spans are emitted at their end (stamped with their start cycle).

use crate::trace::{TraceEvent, TracePhase};
use numa_gpu_testkit::json::Json;

/// Process id used for all exported events (one simulated GPU system).
pub const TRACE_PID: u64 = 1;

/// Converts one event to a Chrome `trace_event` object.
pub fn chrome_event_json(e: &TraceEvent) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(e.name.clone())),
        ("cat".to_string(), Json::Str(e.category.to_string())),
        ("ph".to_string(), Json::Str(e.phase.code().to_string())),
        ("ts".to_string(), Json::UInt(e.cycle)),
        ("pid".to_string(), Json::UInt(TRACE_PID)),
        ("tid".to_string(), Json::UInt(u64::from(e.track))),
    ];
    match e.phase {
        TracePhase::Complete => fields.push(("dur".to_string(), Json::UInt(e.dur_cycles))),
        // Thread-scoped instants render as small arrows in the viewer.
        TracePhase::Instant => fields.push(("s".to_string(), Json::Str("t".to_string()))),
        TracePhase::Counter => {}
    }
    if !e.args.is_empty() {
        fields.push((
            "args".to_string(),
            Json::Obj(
                e.args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

/// Builds the full Chrome trace document from recorded events.
///
/// Events are stable-sorted by start cycle (ties keep emission order), so
/// `ts` is monotone non-decreasing and the output is byte-stable for a
/// given event sequence.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.cycle);
    Json::obj([
        (
            "traceEvents",
            Json::Arr(ordered.iter().map(|e| chrome_event_json(e)).collect()),
        ),
        ("displayTimeUnit", Json::Str("ms".to_string())),
        (
            "otherData",
            Json::obj([("timeUnit", Json::Str("1 ts = 1 cycle".to_string()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn events_sorted_monotone_by_ts() {
        let events = vec![
            TraceEvent::complete("late-emitted-span", "engine", 5, 10, 0),
            TraceEvent::instant("early", "engine", 2, 0),
            TraceEvent::counter("c", "link", 5, 1),
        ];
        let doc = chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let ts: Vec<u64> = arr
            .iter()
            .map(|e| e.get("ts").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(ts, [2, 5, 5]);
        // Stable sort: the span emitted first stays ahead of the counter.
        assert_eq!(
            arr[1].get("name").and_then(Json::as_str),
            Some("late-emitted-span")
        );
    }

    #[test]
    fn phase_specific_fields() {
        let events = vec![
            TraceEvent::complete("x", "a", 0, 7, 0),
            TraceEvent::instant("i", "a", 1, 0),
            TraceEvent::counter("c", "a", 2, 0).arg("v", 3u64),
        ];
        let doc = chrome_trace(&events);
        let arr = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].get("dur").and_then(Json::as_u64), Some(7));
        assert_eq!(arr[1].get("s").and_then(Json::as_str), Some("t"));
        assert!(arr[2].get("dur").is_none());
        let args = arr[2].get("args").unwrap();
        assert_eq!(args.get("v").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn document_round_trips_through_parser() {
        let events = vec![TraceEvent::instant("i", "a", 1, 0)];
        let text = chrome_trace(&events).to_string();
        let parsed = Json::parse(&text).expect("chrome trace parses");
        assert!(parsed.get("traceEvents").and_then(Json::as_array).is_some());
        assert_eq!(text, chrome_trace(&events).to_string());
    }
}
