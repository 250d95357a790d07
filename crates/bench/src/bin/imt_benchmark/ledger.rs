//! Layer timing from outside the program, and the ledger built from it.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Layers::call`], which wraps it in an `imt_obs::trace` span
//! named after the layer. Each unit of end-to-end work (a Figure 6 grid, a
//! full-simulation pass, a served request) is a root span named
//! `bench.*`. With tracing on, the trace therefore holds, per unit, its
//! end-to-end duration and the time spent in each layer directly under
//! it; [`Spans::ledger`] sets the per-layer medians against the
//! end-to-end median. With tracing off the spans are inert and cost one
//! atomic load each.

use std::collections::{BTreeMap, HashMap, HashSet};
#[cfg(test)]
use std::time::{Duration, Instant};

use imt_obs::json::Json;
use imt_obs::trace::{TraceEvent, TraceKind};

use crate::stats::quantile;

/// The benchmark's wrapper around calls into the layers.
#[derive(Debug, Default)]
pub struct Layers {
    /// Work units (simulated fetches) handed to each layer, for rates.
    work: BTreeMap<&'static str, u64>,
    /// Extra time spent inside one layer's span: the hook the ledger
    /// attribution test uses to check that the ledger names that layer.
    #[cfg(test)]
    delay: Option<(&'static str, Duration)>,
}

impl Layers {
    /// A wrapper that spends `extra` inside every `layer` span.
    #[cfg(test)]
    pub fn with_delay(layer: &'static str, extra: Duration) -> Layers {
        Layers {
            delay: Some((layer, extra)),
            ..Layers::default()
        }
    }

    /// Calls `f` inside a span named `layer`.
    pub fn call<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = imt_obs::trace::span(layer);
        #[cfg(test)]
        if let Some((slow, extra)) = self.delay {
            if slow == layer {
                let until = Instant::now() + extra;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        f()
    }

    /// Records `fetches` simulated fetches processed by `layer`.
    pub fn add_work(&mut self, layer: &'static str, fetches: u64) {
        *self.work.entry(layer).or_default() += fetches;
    }

    /// Fetches recorded for `layer` so far.
    pub fn work(&self, layer: &str) -> u64 {
        self.work.get(layer).copied().unwrap_or(0)
    }
}

/// Root-span name prefix that marks the benchmark's own units of work.
const ROOT_PREFIX: &str = "bench.";

/// A snapshot of the trace, indexed by the benchmark's root spans.
#[derive(Debug)]
pub struct Spans {
    events: Vec<TraceEvent>,
    dropped: u64,
    /// `span_id` → root name, for every `bench.*` root.
    roots: HashMap<u64, String>,
}

impl Spans {
    /// Drains every thread's trace ring (non-destructively).
    pub fn capture() -> Spans {
        let (events, dropped) = imt_obs::trace::snapshot();
        Spans::from_events(events, dropped)
    }

    fn from_events(events: Vec<TraceEvent>, dropped: u64) -> Spans {
        let roots = events
            .iter()
            .filter(|e| e.kind == TraceKind::Span && e.parent_id == 0)
            .filter(|e| e.name.starts_with(ROOT_PREFIX))
            .map(|e| (e.span_id, e.name.clone()))
            .collect();
        Spans {
            events,
            dropped,
            roots,
        }
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn layer_spans<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| {
            e.kind == TraceKind::Span && e.name == layer && self.roots.contains_key(&e.parent_id)
        })
    }

    /// Durations (ns) of every `layer` span directly under a benchmark root.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.layer_spans(layer).map(|e| e.dur_ns as f64).collect()
    }

    /// Total nanoseconds spent in `layer` directly under benchmark roots.
    pub fn total_ns(&self, layer: &str) -> u64 {
        self.layer_spans(layer).map(|e| e.dur_ns).sum()
    }

    /// The ledger of every root named `root`: its end-to-end median
    /// against the median, over roots, of the time each direct child
    /// layer took inside it (zero for a root that never called it).
    pub fn ledger(&self, root: &str) -> Ledger {
        let mut units: HashMap<u64, (u64, BTreeMap<&str, u64>)> = HashMap::new();
        for e in &self.events {
            if e.kind == TraceKind::Span && e.parent_id == 0 && e.name == root {
                units.entry(e.span_id).or_default().0 = e.dur_ns;
            }
        }
        for e in &self.events {
            if e.kind != TraceKind::Span {
                continue;
            }
            if let Some((_, layers)) = units.get_mut(&e.parent_id) {
                *layers.entry(e.name.as_str()).or_default() += e.dur_ns;
            }
        }
        let names: Vec<&str> = units
            .values()
            .flat_map(|(_, layers)| layers.keys().copied())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let e2e: Vec<f64> = units.values().map(|(dur, _)| *dur as f64).collect();
        let rows = names
            .iter()
            .map(|name| {
                let per_unit: Vec<f64> = units
                    .values()
                    .map(|(_, layers)| layers.get(name).copied().unwrap_or(0) as f64)
                    .collect();
                (name.to_string(), quantile(&per_unit, 0.5) / 1e6)
            })
            .collect();
        Ledger {
            root: root.to_string(),
            units: units.len(),
            e2e_p50_ms: quantile(&e2e, 0.5) / 1e6,
            rows,
        }
    }

    /// Chrome trace-event JSON of every trace rooted at a benchmark span.
    pub fn chrome_trace(&self, run: &str) -> Json {
        let traces: HashSet<u64> = self
            .events
            .iter()
            .filter(|e| self.roots.contains_key(&e.span_id))
            .map(|e| e.trace_id)
            .collect();
        let ours = self
            .events
            .iter()
            .filter(|e| traces.contains(&e.trace_id))
            .cloned()
            .collect();
        imt_obs::trace::chrome_trace(&[(run.to_string(), ours)])
    }
}

/// Per-unit medians of end-to-end time and of each layer inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// The root span name the ledger covers.
    pub root: String,
    /// How many roots were found.
    pub units: usize,
    /// Median end-to-end time of one unit.
    pub e2e_p50_ms: f64,
    /// `(layer, median ms per unit)`, sorted by layer name.
    pub rows: Vec<(String, f64)>,
}

impl Ledger {
    /// The part of the end-to-end median the layer medians do not cover,
    /// as a percentage of the end-to-end median.
    pub fn unexplained_pct(&self) -> f64 {
        if self.e2e_p50_ms <= 0.0 {
            return 0.0;
        }
        let explained: f64 = self.rows.iter().map(|(_, ms)| ms).sum();
        (self.e2e_p50_ms - explained) / self.e2e_p50_ms * 100.0
    }

    /// The layer whose median grew most from `base` to `self`.
    #[cfg(test)]
    pub fn largest_growth(&self, base: &Ledger) -> Option<(String, f64)> {
        self.rows
            .iter()
            .map(|(name, ms)| {
                let before = base
                    .rows
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, b)| *b);
                (name.clone(), ms - before)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The ledger as `workload metric value unit` lines.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        let tag = self.root.trim_start_matches(ROOT_PREFIX);
        let mut out = vec![
            format!("{workload} ledger.{tag}.units {} count", self.units),
            format!("{workload} ledger.{tag}.e2e_p50_ms {} ms", self.e2e_p50_ms),
        ];
        for (layer, ms) in &self.rows {
            out.push(format!("{workload} ledger.{tag}.{layer}_ms {ms} ms"));
        }
        out.push(format!(
            "{workload} ledger.{tag}.unexplained_pct {} %",
            self.unexplained_pct()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, span_id: u64, parent_id: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind: TraceKind::Span,
            trace_id: span_id.min(parent_id.max(1)),
            span_id,
            parent_id,
            thread: 1,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn ledger_takes_medians_over_units_of_direct_children() {
        let events = vec![
            span("bench.grid", 1, 0, 10_000_000),
            span("sim.record", 2, 1, 6_000_000),
            span("core.encode", 3, 1, 3_000_000),
            // A library span under a layer span is not a layer of the unit.
            span("core.encode_program", 4, 3, 2_900_000),
            span("bench.grid", 5, 0, 12_000_000),
            span("sim.record", 6, 5, 8_000_000),
            span("core.encode", 7, 5, 3_000_000),
            span("bench.grid", 8, 0, 11_000_000),
            span("sim.record", 9, 8, 7_000_000),
            span("core.encode", 10, 8, 1_000_000),
            span("core.encode", 11, 8, 2_000_000),
        ];
        let spans = Spans::from_events(events, 0);
        let ledger = spans.ledger("bench.grid");
        assert_eq!(ledger.units, 3);
        assert_eq!(ledger.e2e_p50_ms, 11.0);
        assert_eq!(
            ledger.rows,
            vec![
                ("core.encode".to_string(), 3.0),
                ("sim.record".to_string(), 7.0)
            ]
        );
        assert!((ledger.unexplained_pct() - 100.0 / 11.0).abs() < 1e-9);
        assert_eq!(spans.durations("core.encode").len(), 4);
        assert_eq!(spans.total_ns("sim.record"), 21_000_000);
        assert!(spans.durations("core.encode_program").is_empty());
    }

    #[test]
    fn largest_growth_names_the_slowed_layer() {
        let base = Ledger {
            root: "bench.grid".into(),
            units: 3,
            e2e_p50_ms: 10.0,
            rows: vec![("a".into(), 6.0), ("b".into(), 3.0)],
        };
        let slowed = Ledger {
            e2e_p50_ms: 12.0,
            rows: vec![("a".into(), 6.1), ("b".into(), 4.9)],
            ..base.clone()
        };
        assert_eq!(
            slowed.largest_growth(&base).map(|(n, _)| n),
            Some("b".into())
        );
    }
}
