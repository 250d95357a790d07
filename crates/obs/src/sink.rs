//! Output sinks: the human-readable end-of-run report (`IMT_OBS=report`)
//! and the JSONL snapshot writer (`IMT_OBS=json`).

use std::fmt::Write as _;

use crate::event::Event;
use crate::json::Json;
use crate::manifest::metric_to_json;
use crate::registry::{self, MetricSnapshot, SnapshotValue};

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn slot(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// Renders the current registry and event buffer as a human-readable
/// report, grouped by metric kind and sorted by `(name, label)`.
pub fn render_report(run: &str) -> String {
    let metrics = registry::snapshot();
    let events = crate::event::snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "== imt-obs report: {run} ==");

    for (kind, header) in [
        ("counter", "counters"),
        ("gauge", "gauges"),
        ("histogram", "histograms"),
        ("span", "spans"),
    ] {
        let group: Vec<&MetricSnapshot> =
            metrics.iter().filter(|m| m.value.kind() == kind).collect();
        if group.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{header}:");
        for metric in group {
            let name = slot(metric.name, &metric.label);
            match &metric.value {
                SnapshotValue::Counter(v) | SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "  {name} = {v}");
                }
                SnapshotValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    ..
                } => {
                    let mean = if *count > 0 {
                        *sum as f64 / *count as f64
                    } else {
                        0.0
                    };
                    let _ = writeln!(
                        out,
                        "  {name}: count={count} sum={sum} min={min} mean={mean:.1} max={max}"
                    );
                }
                SnapshotValue::Span {
                    count,
                    total_ns,
                    min_ns,
                    max_ns,
                } => {
                    let mean = if *count > 0 { total_ns / count } else { 0 };
                    let _ = writeln!(
                        out,
                        "  {name}: count={count} total={} min={} mean={} max={}",
                        format_ns(*total_ns),
                        format_ns(*min_ns),
                        format_ns(mean),
                        format_ns(*max_ns),
                    );
                }
            }
        }
    }
    let _ = write!(out, "events: {} recorded", events.len());
    out
}

/// Renders metric and event snapshots as JSONL: one
/// `{"type":"metric",...}` line per metric followed by one
/// `{"type":"event",...}` line per event.
pub fn snapshot_jsonl(metrics: &[MetricSnapshot], events: &[Event]) -> String {
    let mut out = String::new();
    for metric in metrics {
        let mut pairs = vec![("type".to_string(), Json::str("metric"))];
        if let Json::Obj(fields) = metric_to_json(metric) {
            pairs.extend(fields);
        }
        let _ = writeln!(out, "{}", Json::Obj(pairs).render());
    }
    for event in events {
        let mut pairs = vec![("type".to_string(), Json::str("event"))];
        if let Json::Obj(fields) = event.to_json() {
            pairs.extend(fields);
        }
        let _ = writeln!(out, "{}", Json::Obj(pairs).render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lists_each_metric_kind() {
        let _lock = crate::test_lock();
        crate::counter("sink.test.counter").add(2);
        crate::gauge_labeled("sink.test.gauge", "mmul").set(9);
        crate::histogram("sink.test.hist").observe(4);
        registry::span_stat("sink.test.span").record(1_500);
        let report = render_report("sink-test");
        assert!(report.starts_with("== imt-obs report: sink-test =="));
        assert!(report.contains("  sink.test.counter = 2"));
        assert!(report.contains("  sink.test.gauge{mmul} = 9"));
        assert!(report.contains("sink.test.hist: count=1 sum=4"));
        assert!(report.contains("sink.test.span: count=1 total=1.500us"));
        assert!(report.contains("events: "));
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_500), "1.500us");
        assert_eq!(format_ns(2_000_000), "2.000ms");
        assert_eq!(format_ns(3_500_000_000), "3.500s");
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let _lock = crate::test_lock();
        crate::counter("sink.test.jsonl").inc();
        let metrics: Vec<_> = registry::snapshot()
            .into_iter()
            .filter(|m| m.name == "sink.test.jsonl")
            .collect();
        let events = vec![Event {
            kind: "eval",
            label: "t".to_string(),
            fields: Json::obj(vec![("fetches", Json::U64(3))]),
        }];
        let jsonl = snapshot_jsonl(&metrics, &events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let metric = Json::parse(lines[0]).unwrap();
        assert_eq!(metric.get("type").and_then(Json::as_str), Some("metric"));
        assert_eq!(metric.get("kind").and_then(Json::as_str), Some("counter"));
        let event = Json::parse(lines[1]).unwrap();
        assert_eq!(event.get("type").and_then(Json::as_str), Some("event"));
        assert_eq!(
            event
                .get("fields")
                .and_then(|f| f.get("fetches"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
