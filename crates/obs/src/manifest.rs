//! Run manifests: one JSON document per run capturing configuration, the
//! full metric/span snapshot and recorded events, plus the validator
//! behind `imt obs check`.
//!
//! Schema `imt-obs/v1` (see EXPERIMENTS.md for the prose version):
//!
//! ```json
//! {
//!   "schema": "imt-obs/v1",
//!   "run": "exp_fig6",
//!   "status": "completed",
//!   "<caller sections>": { ... },
//!   "metrics": [
//!     {"name": "...", "label": "...", "kind": "counter", "value": 0},
//!     {"name": "...", "label": "...", "kind": "gauge", "value": 0},
//!     {"name": "...", "label": "...", "kind": "histogram",
//!      "count": 0, "sum": 0, "min": 0, "max": 0, "buckets": [[1, 3]]},
//!     {"name": "...", "label": "...", "kind": "span",
//!      "count": 0, "total_ns": 0, "min_ns": 0, "max_ns": 0}
//!   ],
//!   "events": [{"kind": "...", "label": "...", "fields": { ... }}]
//! }
//! ```
//!
//! `status` is `"completed"` for manifests written by [`finish_run`] and
//! `"aborted"` for partial manifests flushed by a [`RunGuard`] whose run
//! crashed before finishing; older manifests may omit it.
//!
//! In [`Mode::Trace`] a manifest additionally carries a `trace` section —
//! `{"dropped": u64, "events": [...]}` per [`crate::trace::events_to_json`] —
//! which `imt obs trace export` converts to Chrome trace-event JSON. The
//! aborted-flush path captures it too, so a crashed run still exports a
//! partial timeline.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::registry::{MetricSnapshot, SnapshotValue};
use crate::{event, registry, sink, Mode};

/// The manifest schema identifier.
pub const SCHEMA: &str = "imt-obs/v1";

/// Where manifests and JSONL snapshots go: `IMT_OBS_PATH`, defaulting to
/// `results/obs`.
pub fn obs_dir() -> PathBuf {
    std::env::var("IMT_OBS_PATH")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results/obs"))
}

/// One metric snapshot as its manifest JSON object.
pub fn metric_to_json(metric: &MetricSnapshot) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::str(metric.name)),
        ("label".to_string(), Json::str(&metric.label)),
        ("kind".to_string(), Json::str(metric.value.kind())),
    ];
    match &metric.value {
        SnapshotValue::Counter(v) | SnapshotValue::Gauge(v) => {
            pairs.push(("value".to_string(), Json::U64(*v)));
        }
        SnapshotValue::Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        } => {
            pairs.push(("count".to_string(), Json::U64(*count)));
            pairs.push(("sum".to_string(), Json::U64(*sum)));
            pairs.push(("min".to_string(), Json::U64(*min)));
            pairs.push(("max".to_string(), Json::U64(*max)));
            pairs.push((
                "buckets".to_string(),
                Json::Arr(
                    buckets
                        .iter()
                        .map(|(i, n)| Json::Arr(vec![Json::U64(*i as u64), Json::U64(*n)]))
                        .collect(),
                ),
            ));
        }
        SnapshotValue::Span {
            count,
            total_ns,
            min_ns,
            max_ns,
        } => {
            pairs.push(("count".to_string(), Json::U64(*count)));
            pairs.push(("total_ns".to_string(), Json::U64(*total_ns)));
            pairs.push(("min_ns".to_string(), Json::U64(*min_ns)));
            pairs.push(("max_ns".to_string(), Json::U64(*max_ns)));
        }
    }
    Json::Obj(pairs)
}

/// A run manifest under construction.
pub struct Manifest {
    run: String,
    sections: Vec<(String, Json)>,
    metrics: Vec<MetricSnapshot>,
    events: Vec<event::Event>,
    trace: Option<(Vec<crate::trace::TraceEvent>, u64)>,
    captured: bool,
}

impl Manifest {
    /// Starts a manifest for the run named `run` (becomes the file stem).
    pub fn new(run: impl Into<String>) -> Manifest {
        Manifest {
            run: run.into(),
            sections: Vec::new(),
            metrics: Vec::new(),
            events: Vec::new(),
            trace: None,
            captured: false,
        }
    }

    /// The run name.
    pub fn run(&self) -> &str {
        &self.run
    }

    /// Adds (or replaces) a caller section, e.g. `"config"`.
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        let key = key.into();
        if let Some(slot) = self.sections.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.sections.push((key, value));
        }
    }

    /// Snapshots the registry and event buffer into the manifest — and,
    /// in [`Mode::Trace`], the per-thread trace rings.
    pub fn capture(&mut self) {
        self.metrics = registry::snapshot();
        self.events = event::snapshot();
        if crate::trace_enabled() {
            self.trace = Some(crate::trace::snapshot());
        }
        self.captured = true;
    }

    /// The manifest as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("run".to_string(), Json::str(&self.run)),
        ];
        for (key, value) in &self.sections {
            pairs.push((key.clone(), value.clone()));
        }
        pairs.push((
            "metrics".to_string(),
            Json::Arr(self.metrics.iter().map(metric_to_json).collect()),
        ));
        pairs.push((
            "events".to_string(),
            Json::Arr(self.events.iter().map(event::Event::to_json).collect()),
        ));
        if let Some((events, dropped)) = &self.trace {
            pairs.push((
                "trace".to_string(),
                crate::trace::events_to_json(events, *dropped),
            ));
        }
        Json::Obj(pairs)
    }

    /// The manifest rendered as pretty JSON.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Writes `<obs_dir>/<run>.json`, creating the directory.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(&obs_dir())
    }

    /// Writes `<dir>/<run>.json`, creating the directory.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.run));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.render().as_bytes())?;
        file.write_all(b"\n")?;
        Ok(path)
    }

    /// Writes `<dir>/<run>.jsonl` — one `{"type": "metric" | "event"}`
    /// line per snapshot entry — creating the directory.
    pub fn write_jsonl_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.jsonl", self.run));
        std::fs::write(&path, sink::snapshot_jsonl(&self.metrics, &self.events))?;
        Ok(path)
    }
}

/// Ends a run according to the active [`Mode`]:
///
/// * [`Mode::Off`] — does nothing, returns `None`;
/// * [`Mode::Report`] — prints the human-readable report to stderr;
/// * [`Mode::Json`] — captures a manifest with the given extra sections,
///   writes `<run>.json` and `<run>.jsonl` under [`obs_dir`], and
///   returns the manifest path;
/// * [`Mode::Trace`] — like [`Mode::Json`], with the trace rings captured
///   into the manifest's `trace` section.
///
/// Output goes to stderr/files only; stdout is reserved for experiment
/// artifacts, which must stay byte-identical with observability on.
pub fn finish_run<K: Into<String>>(
    run: &str,
    extra: Vec<(K, Json)>,
) -> std::io::Result<Option<PathBuf>> {
    defuse(run);
    match crate::mode() {
        Mode::Off => Ok(None),
        Mode::Report => {
            eprintln!("{}", sink::render_report(run));
            Ok(None)
        }
        Mode::Json | Mode::Trace => {
            let mut manifest = Manifest::new(run);
            for (key, value) in extra {
                manifest.set(key, value);
            }
            manifest.set("status", Json::str("completed"));
            manifest.capture();
            let dir = obs_dir();
            let path = manifest.write_to(&dir)?;
            manifest.write_jsonl_to(&dir)?;
            eprintln!("imt-obs: wrote {}", path.display());
            Ok(Some(path))
        }
    }
}

/// Run names whose [`RunGuard`] has not been defused yet. A poisoned lock
/// only means another thread panicked while armed — exactly the situation
/// the guard exists for — so poisoning is ignored.
static ARMED: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());

/// Removes `run` from the armed list; returns whether it was armed.
fn defuse(run: &str) -> bool {
    let mut armed = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    let before = armed.len();
    armed.retain(|r| r != run);
    armed.len() != before
}

/// Crash bracket for a run: arm it first thing, and if the process
/// panics (or otherwise drops the guard) before [`finish_run`] or
/// [`RunGuard::complete`] defuses it, a partial manifest with
/// `"status": "aborted"` is flushed under [`obs_dir`] so `imt obs check`
/// reports the crashed run instead of finding nothing.
///
/// Only [`Mode::Json`] writes anything; in other modes the guard is
/// bookkeeping-only. `finish_run` defuses by run name, so the usual
/// pattern needs no explicit hand-off:
///
/// ```no_run
/// let _guard = imt_obs::manifest::RunGuard::begin("exp_fault");
/// // ... the run; a panic here flushes an aborted manifest ...
/// imt_obs::manifest::finish_run::<&str>("exp_fault", vec![]).unwrap();
/// ```
pub struct RunGuard {
    run: String,
}

impl RunGuard {
    /// Arms a guard for the run named `run`.
    pub fn begin(run: impl Into<String>) -> RunGuard {
        let run = run.into();
        ARMED
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(run.clone());
        RunGuard { run }
    }

    /// Defuses the guard without writing anything — for runs that end
    /// without calling [`finish_run`] (e.g. an error path that already
    /// reported failure to the user).
    pub fn complete(self) {
        defuse(&self.run);
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        if !defuse(&self.run) || !matches!(crate::mode(), Mode::Json | Mode::Trace) {
            return;
        }
        // Best-effort: a failed flush during a crash must not mask the
        // original panic with a second one.
        match write_aborted(&self.run, &obs_dir()) {
            Ok(path) => eprintln!(
                "imt-obs: run `{}` aborted; partial manifest at {}",
                self.run,
                path.display()
            ),
            Err(err) => eprintln!("imt-obs: run `{}` aborted; flush failed: {err}", self.run),
        }
    }
}

/// Captures whatever the registry holds right now into
/// `<dir>/<run>.json` with `"status": "aborted"`. In [`Mode::Trace`] the
/// capture includes the trace rings (spans that *closed* before the
/// crash), so even an aborted run exports a partial timeline.
fn write_aborted(run: &str, dir: &Path) -> std::io::Result<PathBuf> {
    let mut manifest = Manifest::new(run);
    manifest.set("status", Json::str("aborted"));
    manifest.capture();
    let path = manifest.write_to(dir)?;
    manifest.write_jsonl_to(dir)?;
    Ok(path)
}

fn field<'a>(doc: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn u64_field(doc: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    field(doc, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a u64"))
}

fn str_field<'a>(doc: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    field(doc, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))
}

/// Validates a parsed document against the `imt-obs/v1` schema.
///
/// Beyond shape checks, it cross-checks internal consistency: histogram
/// bucket counts must sum to `count`, span `min_ns <= max_ns`, any
/// `eval` event's per-lane transition arrays must sum to its totals — the
/// same invariant the e2e test asserts against
/// `EncodedProgram::static_saved_transitions()`; the encoded total also
/// carries the event's `extra_line_transitions` (bus-invert's invert
/// line; 0 when absent) — and an optional `status` must be `"completed"`
/// or `"aborted"`.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = str_field(doc, "schema", "manifest")?;
    if schema != SCHEMA {
        return Err(format!("manifest: schema `{schema}`, expected `{SCHEMA}`"));
    }
    let run = str_field(doc, "run", "manifest")?;
    if run.is_empty() {
        return Err("manifest: empty `run`".to_string());
    }
    // `status` is optional (pre-existing manifests omit it) but, when
    // present, must be one of the two states a run can end in.
    if let Some(status) = doc.get("status") {
        let status = status
            .as_str()
            .ok_or("manifest: `status` is not a string")?;
        if status != "completed" && status != "aborted" {
            return Err(format!(
                "manifest: status `{status}`, expected `completed` or `aborted`"
            ));
        }
    }

    let metrics = field(doc, "metrics", "manifest")?
        .as_array()
        .ok_or("manifest: `metrics` is not an array")?;
    for (i, metric) in metrics.iter().enumerate() {
        let name = str_field(metric, "name", "metric")?;
        let ctx = format!("metric[{i}] `{name}`");
        str_field(metric, "label", &ctx)?;
        match str_field(metric, "kind", &ctx)? {
            "counter" | "gauge" => {
                u64_field(metric, "value", &ctx)?;
            }
            "histogram" => {
                let count = u64_field(metric, "count", &ctx)?;
                u64_field(metric, "sum", &ctx)?;
                let min = u64_field(metric, "min", &ctx)?;
                let max = u64_field(metric, "max", &ctx)?;
                if count > 0 && min > max {
                    return Err(format!("{ctx}: min {min} > max {max}"));
                }
                let buckets = field(metric, "buckets", &ctx)?
                    .as_array()
                    .ok_or_else(|| format!("{ctx}: `buckets` is not an array"))?;
                let mut total = 0u64;
                for bucket in buckets {
                    let pair = bucket
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("{ctx}: bucket is not an [index, count] pair"))?;
                    let index = pair[0]
                        .as_u64()
                        .ok_or_else(|| format!("{ctx}: bucket index is not a u64"))?;
                    if index as usize >= registry::HISTOGRAM_BUCKETS {
                        return Err(format!("{ctx}: bucket index {index} out of range"));
                    }
                    total += pair[1]
                        .as_u64()
                        .ok_or_else(|| format!("{ctx}: bucket count is not a u64"))?;
                }
                if total != count {
                    return Err(format!("{ctx}: buckets sum to {total}, count is {count}"));
                }
            }
            "span" => {
                let count = u64_field(metric, "count", &ctx)?;
                let total = u64_field(metric, "total_ns", &ctx)?;
                let min = u64_field(metric, "min_ns", &ctx)?;
                let max = u64_field(metric, "max_ns", &ctx)?;
                if count > 0 && (min > max || total < max) {
                    return Err(format!(
                        "{ctx}: inconsistent span stats (total {total}, min {min}, max {max})"
                    ));
                }
            }
            other => return Err(format!("{ctx}: unknown kind `{other}`")),
        }
    }

    let events = field(doc, "events", "manifest")?
        .as_array()
        .ok_or("manifest: `events` is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let kind = str_field(ev, "kind", &format!("event[{i}]"))?;
        let ctx = format!("event[{i}] `{kind}`");
        str_field(ev, "label", &ctx)?;
        let fields = field(ev, "fields", &ctx)?;
        if kind == "eval" {
            let extra = match fields.get("extra_line_transitions") {
                None => 0,
                Some(extra) => extra
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: `extra_line_transitions` is not a u64"))?,
            };
            for (lanes_key, total_key, extra) in [
                ("per_lane_baseline", "baseline_transitions", 0),
                ("per_lane_encoded", "encoded_transitions", extra),
            ] {
                let (Some(lanes), Some(total)) = (fields.get(lanes_key), fields.get(total_key))
                else {
                    continue;
                };
                let lanes = lanes
                    .as_array()
                    .ok_or_else(|| format!("{ctx}: `{lanes_key}` is not an array"))?;
                let total = total
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: `{total_key}` is not a u64"))?;
                let mut sum = 0u64;
                for lane in lanes {
                    sum += lane
                        .as_u64()
                        .ok_or_else(|| format!("{ctx}: `{lanes_key}` entry is not a u64"))?;
                }
                if sum.checked_add(extra) != Some(total) {
                    return Err(format!(
                        "{ctx}: `{lanes_key}` sums to {sum} with {extra} extra-line \
                         transitions, `{total_key}` is {total}"
                    ));
                }
            }
        }
    }

    // The trace section is optional ([`Mode::Trace`] runs only).
    if let Some(trace) = doc.get("trace") {
        crate::trace::validate_section(trace)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SnapshotValue;

    /// Callers hold [`crate::test_lock`]: the registry is zeroed first so
    /// the captured counter reads exactly this manifest's 7, whichever
    /// caller ran before.
    fn sample_manifest() -> Manifest {
        crate::registry::reset();
        crate::counter_labeled("manifest.test.counter", "mmul/k5").add(7);
        crate::histogram("manifest.test.hist").observe(9);
        let mut m = Manifest::new("manifest-test");
        m.set("config", Json::obj(vec![("k", Json::U64(5))]));
        m.capture();
        m
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let _lock = crate::test_lock();
        let m = sample_manifest();
        let doc = Json::parse(&m.render()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("run").and_then(Json::as_str), Some("manifest-test"));
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("k"))
                .and_then(Json::as_u64),
            Some(5)
        );
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
        let mine = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("manifest.test.counter"))
            .expect("captured counter present");
        assert_eq!(mine.get("label").and_then(Json::as_str), Some("mmul/k5"));
        assert_eq!(mine.get("value").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn set_replaces_existing_sections() {
        let mut m = Manifest::new("x");
        m.set("config", Json::U64(1));
        m.set("config", Json::U64(2));
        let doc = m.to_json();
        assert_eq!(doc.get("config").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn validate_rejects_bad_documents() {
        for (src, fragment) in [
            (
                r#"{"run":"x","metrics":[],"events":[]}"#,
                "missing `schema`",
            ),
            (
                r#"{"schema":"imt-obs/v0","run":"x","metrics":[],"events":[]}"#,
                "expected `imt-obs/v1`",
            ),
            (
                r#"{"schema":"imt-obs/v1","run":"","metrics":[],"events":[]}"#,
                "empty `run`",
            ),
            (
                r#"{"schema":"imt-obs/v1","run":"x","metrics":[
                    {"name":"a","label":"","kind":"counter"}],"events":[]}"#,
                "missing `value`",
            ),
            (
                r#"{"schema":"imt-obs/v1","run":"x","metrics":[
                    {"name":"a","label":"","kind":"histogram",
                     "count":3,"sum":1,"min":0,"max":1,"buckets":[[0,1]]}],"events":[]}"#,
                "buckets sum to 1",
            ),
            (
                r#"{"schema":"imt-obs/v1","run":"x","metrics":[],"events":[
                    {"kind":"eval","label":"t","fields":{
                     "per_lane_baseline":[1,2],"baseline_transitions":5}}]}"#,
                "sums to 3",
            ),
        ] {
            let doc = Json::parse(src).unwrap();
            let err = validate(&doc).unwrap_err();
            assert!(err.contains(fragment), "{src}: got {err}");
        }
    }

    #[test]
    fn eval_lane_sums_carry_the_extra_line_transitions() {
        let event = |fields: &str| {
            format!(
                r#"{{"schema":"imt-obs/v1","run":"x","metrics":[],"events":[
                    {{"kind":"eval","label":"t","fields":{{{fields}}}}}]}}"#
            )
        };
        let check = |fields: &str| validate(&Json::parse(&event(fields)).unwrap());
        // Bus-invert: the data lanes plus the invert line make the total.
        check(
            r#""per_lane_baseline":[4,5],"baseline_transitions":9,
               "per_lane_encoded":[2,3],"encoded_transitions":7,
               "extra_line_transitions":2"#,
        )
        .unwrap();
        // An event from before the field existed: no extra lines.
        check(r#""per_lane_encoded":[2,3],"encoded_transitions":5"#).unwrap();
        // Off by one either way still fails.
        for total in [6, 8] {
            let err = check(&format!(
                r#""per_lane_encoded":[2,3],"encoded_transitions":{total},
                   "extra_line_transitions":2"#
            ))
            .unwrap_err();
            assert!(err.contains("sums to 5 with 2 extra-line"), "{err}");
        }
        // The extra lines never excuse a baseline that does not add up.
        let err = check(
            r#""per_lane_baseline":[4,5],"baseline_transitions":11,
               "extra_line_transitions":2"#,
        )
        .unwrap_err();
        assert!(err.contains("`per_lane_baseline` sums to 9"), "{err}");
        let err = check(r#""extra_line_transitions":-1"#).unwrap_err();
        assert!(err.contains("not a u64"), "{err}");
    }

    #[test]
    fn validate_checks_the_status_field() {
        let ok = |status: &str| {
            format!(
                r#"{{"schema":"imt-obs/v1","run":"x","status":"{status}","metrics":[],"events":[]}}"#
            )
        };
        validate(&Json::parse(&ok("completed")).unwrap()).unwrap();
        validate(&Json::parse(&ok("aborted")).unwrap()).unwrap();
        let err = validate(&Json::parse(&ok("running")).unwrap()).unwrap_err();
        assert!(err.contains("status `running`"), "{err}");
        let err = validate(
            &Json::parse(
                r#"{"schema":"imt-obs/v1","run":"x","status":3,"metrics":[],"events":[]}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("not a string"), "{err}");
    }

    #[test]
    fn guard_is_defused_by_finish_run_and_complete() {
        let _lock = crate::test_lock();
        let before = crate::mode();
        crate::set_mode(Mode::Off);
        let guard = RunGuard::begin("guard-defuse-finish");
        // Off mode writes nothing, but still marks the run as ended.
        finish_run::<&str>("guard-defuse-finish", vec![]).unwrap();
        drop(guard); // must not re-defuse (finish_run already did)
        assert!(!defuse("guard-defuse-finish"));

        let guard = RunGuard::begin("guard-defuse-complete");
        guard.complete();
        assert!(!defuse("guard-defuse-complete"));
        crate::set_mode(before);
    }

    #[test]
    fn dropped_guard_flushes_an_aborted_manifest() {
        let _lock = crate::test_lock();
        let dir = std::env::temp_dir().join("imt-obs-guard-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_aborted("guard-abort-test", &dir).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("aborted"));
        assert_eq!(
            doc.get("run").and_then(Json::as_str),
            Some("guard-abort-test")
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The Drop path goes through the same flush; armed + non-Json
        // drop must stay silent (nothing to clean up afterwards).
        let before = crate::mode();
        crate::set_mode(Mode::Off);
        drop(RunGuard::begin("guard-abort-off"));
        assert!(!defuse("guard-abort-off"));
        crate::set_mode(before);
    }

    #[test]
    fn aborted_flush_drains_the_trace_rings() {
        let dir = std::env::temp_dir().join("imt-obs-guard-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let _lock = crate::test_lock();
        let before = crate::mode();
        crate::set_mode(Mode::Trace);
        crate::trace::reset();
        // A span that *closed* before the "crash" must survive into the
        // aborted manifest's partial timeline.
        {
            let _s = crate::trace::span("manifest.abort_probe");
        }
        let path = write_aborted("guard-abort-trace", &dir).unwrap();
        crate::trace::reset();
        crate::set_mode(before);

        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate(&doc).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("aborted"));
        let (events, _) =
            crate::trace::events_from_json(doc.get("trace").expect("trace section")).unwrap();
        assert!(
            events.iter().any(|e| e.name == "manifest.abort_probe"),
            "closed span survives the abort flush"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_checks_the_trace_section() {
        let err = validate(
            &Json::parse(
                r#"{"schema":"imt-obs/v1","run":"x","metrics":[],"events":[],
                    "trace":{"dropped":0,"events":[{"name":"a"}]}}"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("trace section"), "{err}");
    }

    #[test]
    fn metric_json_covers_every_kind() {
        let hist = MetricSnapshot {
            name: "h",
            label: String::new(),
            value: SnapshotValue::Histogram {
                count: 2,
                sum: 10,
                min: 2,
                max: 8,
                buckets: vec![(2, 1), (4, 1)],
            },
        };
        assert_eq!(
            metric_to_json(&hist).render(),
            r#"{"name":"h","label":"","kind":"histogram","count":2,"sum":10,"min":2,"max":8,"buckets":[[2,1],[4,1]]}"#
        );
        let span = MetricSnapshot {
            name: "s",
            label: "l".to_string(),
            value: SnapshotValue::Span {
                count: 1,
                total_ns: 5,
                min_ns: 5,
                max_ns: 5,
            },
        };
        assert_eq!(
            metric_to_json(&span).render(),
            r#"{"name":"s","label":"l","kind":"span","count":1,"total_ns":5,"min_ns":5,"max_ns":5}"#
        );
    }

    #[test]
    fn write_creates_files_under_dir() {
        let _lock = crate::test_lock();
        let dir = std::env::temp_dir().join("imt-obs-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        let m = sample_manifest();
        let json_path = m.write_to(&dir).unwrap();
        let jsonl_path = m.write_jsonl_to(&dir).unwrap();
        assert_eq!(json_path, dir.join("manifest-test.json"));
        let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        validate(&doc).unwrap();
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.lines().count() >= 2);
        for line in jsonl.lines() {
            let line_doc = Json::parse(line).unwrap();
            let ty = line_doc.get("type").and_then(Json::as_str).unwrap();
            assert!(ty == "metric" || ty == "event", "unexpected type {ty}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
