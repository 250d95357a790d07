//! Perf-history sentinel: scale-stamped summaries of the committed
//! `BENCH_*.json` artifacts, appended to `results/BENCH_history.jsonl`
//! by `imt bench --record` and compared by `imt obs regress`.
//!
//! ## Why a sentinel
//!
//! The bench artifacts are point-in-time snapshots; nothing relates one
//! PR's numbers to the last PR's. The sentinel closes that loop: each
//! recorded entry is one JSONL line
//!
//! ```json
//! {"schema": "imt-bench-history/v1", "scale": "paper",
//!  "simd_path": "avx2", "threads": 8,
//!  "metrics": {"serve.throughput_rps": 512.0, ...}}
//! ```
//!
//! and [`regress`] compares the *current* artifacts against the **median
//! of the last N same-scale entries** (noise-aware: one outlier run in
//! the history cannot move the baseline) with per-metric tolerances —
//! throughput-like metrics regress when they fall more than their
//! tolerance below baseline, latency-like (`*_ms`) metrics when they
//! rise more than theirs above it.
//!
//! Entries are stamped with the scale read from the artifacts
//! themselves, not from CLI flags: recording at `--test-scale` with
//! paper-scale artifacts on disk stamps `paper`, which is what the
//! numbers actually are.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use imt_obs::json::Json;

/// The history entry schema identifier.
pub const SCHEMA: &str = "imt-bench-history/v1";

/// History file name under the results directory.
pub const FILE: &str = "BENCH_history.jsonl";

/// Default number of most-recent same-scale entries the baseline median
/// is taken over.
pub const DEFAULT_WINDOW: usize = 5;

/// The parsed `BENCH_*.json` artifacts present in a results directory.
pub struct BenchDocs {
    /// `BENCH_pipeline.json`, if present.
    pub pipeline: Option<Json>,
    /// `BENCH_replay.json`, if present.
    pub replay: Option<Json>,
    /// `BENCH_serve.json`, if present.
    pub serve: Option<Json>,
    /// `BENCH_net.json`, if present.
    pub net: Option<Json>,
    /// `BENCH_arena.json`, if present.
    pub arena: Option<Json>,
}

impl BenchDocs {
    /// Whether no artifact was found at all.
    pub fn is_empty(&self) -> bool {
        self.pipeline.is_none()
            && self.replay.is_none()
            && self.serve.is_none()
            && self.net.is_none()
            && self.arena.is_none()
    }
}

/// Loads whichever `BENCH_*.json` artifacts exist under `results`.
///
/// # Errors
///
/// An artifact that exists but does not parse is an error (a silently
/// skipped file would record a misleadingly sparse entry).
pub fn load_docs(results: &Path) -> Result<BenchDocs, String> {
    let load = |name: &str| -> Result<Option<Json>, String> {
        let path = results.join(name);
        if !path.exists() {
            return Ok(None);
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(BenchDocs {
        pipeline: load("BENCH_pipeline.json")?,
        replay: load("BENCH_replay.json")?,
        serve: load("BENCH_serve.json")?,
        net: load("BENCH_net.json")?,
        arena: load("BENCH_arena.json")?,
    })
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(values[values.len() / 2])
}

/// Median of `key` over an artifact's per-kernel rows.
fn median_over(doc: &Json, rows_key: &str, key: &str) -> Option<f64> {
    let rows = doc.get(rows_key)?.as_array()?;
    median(
        rows.iter()
            .filter_map(|row| row.get(key).and_then(Json::as_f64))
            .collect(),
    )
}

/// Summarizes the artifacts into the flat metric map a history entry
/// carries. Missing artifacts simply contribute no metrics.
///
/// # Errors
///
/// Disagreeing `scale` stamps across artifacts (the numbers would not be
/// comparable to any single baseline), or no artifacts at all.
pub fn summarize(docs: &BenchDocs) -> Result<Json, String> {
    if docs.is_empty() {
        return Err("no BENCH_*.json artifacts found; run `imt bench` first".to_string());
    }
    let mut scale: Option<String> = None;
    let mut simd_path: Option<String> = None;
    let mut threads: Option<u64> = None;
    for doc in [
        &docs.pipeline,
        &docs.replay,
        &docs.serve,
        &docs.net,
        &docs.arena,
    ]
    .into_iter()
    .flatten()
    {
        if let Some(s) = doc.get("scale").and_then(Json::as_str) {
            match &scale {
                Some(prev) if prev != s => {
                    return Err(format!(
                        "artifacts disagree on scale ({prev} vs {s}); regenerate them together"
                    ));
                }
                _ => scale = Some(s.to_string()),
            }
        }
        if let Some(p) = doc.get("simd_path").and_then(Json::as_str) {
            simd_path = Some(p.to_string());
        }
        if let Some(t) = doc.get("threads").and_then(Json::as_u64) {
            threads = Some(t);
        }
    }
    let scale = scale.ok_or("no artifact carries a `scale` stamp")?;

    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut push = |name: &str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.push((name.to_string(), Json::F64(v)));
        }
    };
    if let Some(pipeline) = &docs.pipeline {
        push(
            "pipeline.blocks_per_sec",
            median_over(pipeline, "kernels", "blocks_per_sec"),
        );
        push(
            "pipeline.codec_speedup",
            median_over(pipeline, "kernels", "codec_speedup"),
        );
        push(
            "pipeline.codec_sliced_speedup",
            median_over(pipeline, "kernels", "codec_sliced_speedup"),
        );
    }
    if let Some(replay) = &docs.replay {
        push("replay.speedup", median_over(replay, "kernels", "speedup"));
    }
    if let Some(serve) = &docs.serve {
        // Best sweep point by throughput; its tail latency rides along so
        // a PR cannot buy throughput with unbounded p99.
        let best = serve
            .get("sweeps")
            .and_then(Json::as_array)
            .and_then(|sweeps| {
                sweeps
                    .iter()
                    .filter_map(|s| {
                        s.get("throughput_rps")
                            .and_then(Json::as_f64)
                            .map(|t| (t, s))
                    })
                    .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            });
        if let Some((throughput, sweep)) = best {
            push("serve.throughput_rps", Some(throughput));
            push("serve.p99_ms", sweep.get("p99_ms").and_then(Json::as_f64));
        }
    }
    if let Some(net) = &docs.net {
        // The network path's capacity and its open-loop tail latency:
        // a PR may not slow the wire without tripping the sentinel.
        push(
            "net.saturation_rps",
            net.get("saturation_rps").and_then(Json::as_f64),
        );
        let open = net.get("open_loop");
        push(
            "net.p99_ms",
            open.and_then(|o| o.get("p99_ms")).and_then(Json::as_f64),
        );
        push(
            "net.p999_ms",
            open.and_then(|o| o.get("p999_ms")).and_then(Json::as_f64),
        );
        // The scaling phase's saturation at wide connection counts and
        // the 10⁶-request open-loop tail, apart from the probe above.
        let reactor = net.get("reactor");
        push(
            "net.reactor.saturation_rps",
            reactor
                .and_then(|r| r.get("saturation_rps"))
                .and_then(Json::as_f64),
        );
        let mega = reactor.and_then(|r| r.get("open_loop_1m"));
        push(
            "net.reactor.p99_ms",
            mega.and_then(|o| o.get("p99_ms")).and_then(Json::as_f64),
        );
        push(
            "net.reactor.p999_ms",
            mega.and_then(|o| o.get("p999_ms")).and_then(Json::as_f64),
        );
    }
    if let Some(arena) = &docs.arena {
        // The arena's quality floor: auto-select and the best single
        // scheme must keep eliminating transitions. These are exact
        // (replay-derived) numbers, so the default tolerance is pure
        // headroom against intentional re-baselining, not noise.
        let nested = |outer: &str| {
            let rows = arena.get("kernels")?.as_array()?;
            median(
                rows.iter()
                    .filter_map(|row| {
                        row.get(outer)?
                            .get("reduction_percent")
                            .and_then(Json::as_f64)
                    })
                    .collect(),
            )
        };
        push("arena.auto_reduction_percent", nested("auto"));
        push("arena.best_single_reduction_percent", nested("best_single"));
    }
    if metrics.is_empty() {
        return Err("artifacts carried no recognized metrics".to_string());
    }

    let mut pairs = vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("scale".to_string(), Json::str(scale)),
    ];
    if let Some(p) = simd_path {
        pairs.push(("simd_path".to_string(), Json::str(p)));
    }
    if let Some(t) = threads {
        pairs.push(("threads".to_string(), Json::U64(t)));
    }
    pairs.push(("metrics".to_string(), Json::Obj(metrics)));
    Ok(Json::Obj(pairs))
}

/// Appends `entry` to `<results>/BENCH_history.jsonl`, creating the file.
/// Returns the path and the 1-based entry number.
///
/// # Errors
///
/// I/O failure opening or writing the history file.
pub fn append(results: &Path, entry: &Json) -> Result<(PathBuf, usize), String> {
    let path = results.join(FILE);
    std::fs::create_dir_all(results).map_err(|e| format!("{}: {e}", results.display()))?;
    let existing = match std::fs::read_to_string(&path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count(),
        Err(_) => 0,
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", entry.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, existing + 1))
}

/// Reads and parses every entry of `<results>/BENCH_history.jsonl`
/// (empty when the file does not exist).
///
/// # Errors
///
/// A line that is not valid JSON or carries a different schema.
pub fn read_history(results: &Path) -> Result<Vec<Json>, String> {
    let path = results.join(FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => return Ok(Vec::new()),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc =
            Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!(
                "{} line {}: schema `{schema}`, expected `{SCHEMA}`",
                path.display(),
                i + 1
            ));
        }
        entries.push(doc);
    }
    Ok(entries)
}

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPolicy {
    /// Relative tolerance around the baseline (e.g. 0.15 = 15 %).
    pub tolerance: f64,
    /// Whether larger values are better (throughput) or worse (latency).
    pub higher_is_better: bool,
}

/// Per-metric regression policy. Tolerances are deliberately asymmetric
/// with the metric's noise: wall-clock throughput on shared CI runners
/// jitters by ~10 %, speedup *ratios* (both sides jitter) a bit more,
/// and tail latency the most.
pub fn policy(metric: &str) -> MetricPolicy {
    if metric.ends_with("_ms") {
        return MetricPolicy {
            tolerance: 0.50,
            higher_is_better: false,
        };
    }
    let tolerance = match metric {
        "serve.throughput_rps" => 0.15,
        _ => 0.25, // blocks_per_sec and the speedup ratios
    };
    MetricPolicy {
        tolerance,
        higher_is_better: true,
    }
}

/// One metric's verdict from [`regress`].
#[derive(Debug, Clone)]
pub struct Check {
    /// Metric name, e.g. `serve.throughput_rps`.
    pub metric: String,
    /// Median of the baseline window (`NaN`-free; absent metrics are
    /// skipped, not zero).
    pub baseline: f64,
    /// The current artifacts' value.
    pub current: f64,
    /// History entries the baseline median was taken over.
    pub samples: usize,
    /// Applied policy.
    pub policy: MetricPolicy,
    /// Whether the current value crossed the tolerance the wrong way.
    pub regressed: bool,
}

impl Check {
    /// The bound the current value was held to.
    pub fn bound(&self) -> f64 {
        if self.policy.higher_is_better {
            self.baseline * (1.0 - self.policy.tolerance)
        } else {
            self.baseline * (1.0 + self.policy.tolerance)
        }
    }
}

/// Compares `current` (a [`summarize`] entry) against the history:
/// for each current metric with at least one same-scale baseline sample,
/// the baseline is the median of the last `window` samples and the
/// verdict follows [`policy`]. Metrics with no history are skipped —
/// a new metric cannot regress.
pub fn regress(history: &[Json], current: &Json, window: usize) -> Vec<Check> {
    let window = window.max(1);
    let scale = current.get("scale").and_then(Json::as_str).unwrap_or("");
    let same_scale: Vec<&Json> = history
        .iter()
        .filter(|e| e.get("scale").and_then(Json::as_str) == Some(scale))
        .collect();
    let Some(metrics) = current.get("metrics").and_then(Json::as_object) else {
        return Vec::new();
    };
    let mut checks = Vec::new();
    for (metric, value) in metrics {
        let Some(current_value) = value.as_f64() else {
            continue;
        };
        let samples: Vec<f64> = same_scale
            .iter()
            .rev()
            .filter_map(|e| {
                e.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(Json::as_f64)
            })
            .take(window)
            .collect();
        let Some(baseline) = median(samples.clone()) else {
            continue;
        };
        let policy = policy(metric);
        let regressed = if policy.higher_is_better {
            current_value < baseline * (1.0 - policy.tolerance)
        } else {
            current_value > baseline * (1.0 + policy.tolerance)
        };
        checks.push(Check {
            metric: metric.clone(),
            baseline,
            current: current_value,
            samples: samples.len(),
            policy,
            regressed,
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(scale: &str, metrics: Vec<(&str, f64)>) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("scale", Json::str(scale)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::F64(v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn net_doc(scale: &str, saturation: f64, p99: f64) -> Json {
        Json::obj(vec![
            ("scale", Json::str(scale)),
            ("saturation_rps", Json::F64(saturation)),
            (
                "open_loop",
                Json::obj(vec![
                    ("p99_ms", Json::F64(p99)),
                    ("p999_ms", Json::F64(p99 * 2.0)),
                ]),
            ),
            (
                "reactor",
                Json::obj(vec![
                    ("saturation_rps", Json::F64(saturation * 3.0)),
                    (
                        "open_loop_1m",
                        Json::obj(vec![
                            ("p99_ms", Json::F64(p99 / 2.0)),
                            ("p999_ms", Json::F64(p99)),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    fn serve_doc(scale: &str, throughput: f64, p99: f64) -> Json {
        Json::obj(vec![
            ("scale", Json::str(scale)),
            (
                "sweeps",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("workers", Json::U64(1)),
                        ("throughput_rps", Json::F64(throughput / 2.0)),
                        ("p99_ms", Json::F64(p99 * 2.0)),
                    ]),
                    Json::obj(vec![
                        ("workers", Json::U64(4)),
                        ("throughput_rps", Json::F64(throughput)),
                        ("p99_ms", Json::F64(p99)),
                    ]),
                ]),
            ),
        ])
    }

    fn arena_doc(scale: &str, auto: &[f64], best: &[f64]) -> Json {
        Json::obj(vec![
            ("scale", Json::str(scale)),
            (
                "kernels",
                Json::Arr(
                    auto.iter()
                        .zip(best)
                        .map(|(&a, &b)| {
                            Json::obj(vec![
                                ("auto", Json::obj(vec![("reduction_percent", Json::F64(a))])),
                                (
                                    "best_single",
                                    Json::obj(vec![("reduction_percent", Json::F64(b))]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn summarize_takes_medians_and_best_sweep() {
        let pipeline = Json::obj(vec![
            ("scale", Json::str("paper")),
            ("simd_path", Json::str("avx2")),
            ("threads", Json::U64(8)),
            (
                "kernels",
                Json::Arr(
                    [10.0, 30.0, 20.0]
                        .iter()
                        .map(|&b| {
                            Json::obj(vec![
                                ("blocks_per_sec", Json::F64(b)),
                                ("codec_sliced_speedup", Json::F64(b / 10.0)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let docs = BenchDocs {
            pipeline: Some(pipeline),
            replay: None,
            serve: Some(serve_doc("paper", 100.0, 4.0)),
            net: Some(net_doc("paper", 900.0, 12.0)),
            arena: Some(arena_doc("paper", &[40.0, 50.0, 45.0], &[38.0, 48.0, 43.0])),
        };
        let entry = summarize(&docs).unwrap();
        assert_eq!(entry.get("scale").and_then(Json::as_str), Some("paper"));
        assert_eq!(entry.get("simd_path").and_then(Json::as_str), Some("avx2"));
        let metrics = entry.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("pipeline.blocks_per_sec")
                .and_then(Json::as_f64),
            Some(20.0),
            "median, not mean"
        );
        assert_eq!(
            metrics.get("serve.throughput_rps").and_then(Json::as_f64),
            Some(100.0),
            "best sweep point"
        );
        assert_eq!(
            metrics.get("serve.p99_ms").and_then(Json::as_f64),
            Some(4.0),
            "p99 of the best-throughput sweep"
        );
        assert_eq!(
            metrics.get("net.saturation_rps").and_then(Json::as_f64),
            Some(900.0)
        );
        assert_eq!(metrics.get("net.p99_ms").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            metrics.get("net.p999_ms").and_then(Json::as_f64),
            Some(24.0)
        );
        assert_eq!(
            metrics
                .get("net.reactor.saturation_rps")
                .and_then(Json::as_f64),
            Some(2700.0),
            "reactor saturation recorded per mode"
        );
        assert_eq!(
            metrics.get("net.reactor.p99_ms").and_then(Json::as_f64),
            Some(6.0)
        );
        assert_eq!(
            metrics.get("net.reactor.p999_ms").and_then(Json::as_f64),
            Some(12.0)
        );
        assert_eq!(
            metrics
                .get("arena.auto_reduction_percent")
                .and_then(Json::as_f64),
            Some(45.0),
            "median over the per-kernel auto reductions"
        );
        assert_eq!(
            metrics
                .get("arena.best_single_reduction_percent")
                .and_then(Json::as_f64),
            Some(43.0)
        );
    }

    #[test]
    fn summarize_rejects_disagreeing_scales() {
        let docs = BenchDocs {
            pipeline: Some(Json::obj(vec![
                ("scale", Json::str("test")),
                ("kernels", Json::Arr(vec![])),
            ])),
            replay: None,
            serve: Some(serve_doc("paper", 100.0, 4.0)),
            net: None,
            arena: None,
        };
        let err = summarize(&docs).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn sentinel_fires_on_a_20_percent_throughput_regression() {
        let history: Vec<Json> = (0..5)
            .map(|_| entry("paper", vec![("serve.throughput_rps", 100.0)]))
            .collect();
        let slowed = entry("paper", vec![("serve.throughput_rps", 80.0)]);
        let checks = regress(&history, &slowed, DEFAULT_WINDOW);
        assert_eq!(checks.len(), 1);
        assert!(
            checks[0].regressed,
            "a 20% drop must cross the 15% throughput tolerance"
        );
        assert_eq!(checks[0].baseline, 100.0);

        // The recorded baseline itself passes.
        let same = entry("paper", vec![("serve.throughput_rps", 100.0)]);
        assert!(!regress(&history, &same, DEFAULT_WINDOW)[0].regressed);
        // ...as does ordinary noise inside the tolerance.
        let noisy = entry("paper", vec![("serve.throughput_rps", 90.0)]);
        assert!(!regress(&history, &noisy, DEFAULT_WINDOW)[0].regressed);
    }

    #[test]
    fn baseline_median_shrugs_off_one_outlier_run() {
        let mut history: Vec<Json> = (0..4)
            .map(|_| entry("paper", vec![("serve.throughput_rps", 100.0)]))
            .collect();
        // One anomalously fast run must not raise the bar...
        history.push(entry("paper", vec![("serve.throughput_rps", 500.0)]));
        let current = entry("paper", vec![("serve.throughput_rps", 95.0)]);
        let checks = regress(&history, &current, DEFAULT_WINDOW);
        assert_eq!(checks[0].baseline, 100.0, "median ignores the outlier");
        assert!(!checks[0].regressed);
        // ...and only the window's most recent entries count.
        let checks = regress(&history, &current, 1);
        assert_eq!(checks[0].baseline, 500.0, "window=1 sees only the outlier");
        assert!(checks[0].regressed);
    }

    #[test]
    fn latency_regresses_upward_and_other_scales_are_ignored() {
        let history = vec![
            entry("test", vec![("serve.p99_ms", 1.0)]),
            entry("paper", vec![("serve.p99_ms", 10.0)]),
        ];
        // p99 doubled versus the paper-scale baseline: above the 50%
        // latency tolerance. The test-scale entry must not dilute it.
        let current = entry("paper", vec![("serve.p99_ms", 20.0)]);
        let checks = regress(&history, &current, DEFAULT_WINDOW);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].baseline, 10.0);
        assert!(checks[0].regressed);
        assert!(!checks[0].policy.higher_is_better);

        // A brand-new metric has no baseline and cannot regress.
        let novel = entry("paper", vec![("pipeline.blocks_per_sec", 1.0)]);
        assert!(regress(&history, &novel, DEFAULT_WINDOW).is_empty());
    }

    #[test]
    fn history_file_round_trips_through_append_and_read() {
        let dir = std::env::temp_dir().join("imt-bench-history-test");
        let _ = std::fs::remove_dir_all(&dir);
        let e = entry("paper", vec![("serve.throughput_rps", 100.0)]);
        let (path, n1) = append(&dir, &e).unwrap();
        let (_, n2) = append(&dir, &e).unwrap();
        assert_eq!((n1, n2), (1, 2));
        assert_eq!(path, dir.join(FILE));
        let entries = read_history(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], e);

        // A corrupted line fails loudly instead of silently shrinking
        // the baseline window.
        std::fs::write(&path, "{\"schema\":\"other/v1\"}\n").unwrap();
        assert!(read_history(&dir).unwrap_err().contains("schema"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_results_dir_reads_as_empty_history() {
        let dir = std::env::temp_dir().join("imt-bench-history-absent");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_history(&dir).unwrap().is_empty());
        assert!(load_docs(&dir).unwrap().is_empty());
        assert!(summarize(&load_docs(&dir).unwrap()).is_err());
    }
}
