//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! and the checks `imt_benchmark check` runs over it.
//!
//! `BENCHMARK.json` is the single list of workload and metric names: the
//! workloads print every name it declares and nothing else in their final
//! JSON line. What the file cannot hold — which end-to-end metric each
//! per-layer metric should move, and on which workload — lives in
//! [`LAYER_TARGETS`] and is checked against the file.

use imt_obs::json::Json;

/// The repository's declaration, compiled in so the benchmark needs no
/// file at run time.
pub const EMBEDDED: &str = include_str!("../../../../../BENCHMARK.json");

/// A full evaluation of the benchmark makes four runs plus this many per
/// workload, all within [`TOTAL_BUDGET_S`]; `check` refuses a
/// `run_seconds` that cannot fit.
const RUNS_PER_WORKLOAD: u64 = 22;
/// Wall-clock cap, in seconds, on all of those runs together.
const TOTAL_BUDGET_S: u64 = 3420;

/// Which end-to-end metric each per-layer metric should move, on which
/// workload. Written down before measuring: a change to a layer that does
/// not move its target on its workload has not shown a gain.
pub const LAYER_TARGETS: &[(&str, &[(&str, &str)])] = &[
    (
        "kernels.spec_us",
        &[("p50_ms", "serve-hot"), ("ops_per_s", "serve-hot")],
    ),
    (
        "isa.assemble_us",
        &[
            ("p50_ms", "fig6-cold"),
            ("setup_s", "serve-hot"),
            ("setup_s", "serve-sweep"),
        ],
    ),
    (
        "sim.record_mfetch_s",
        &[
            ("p50_ms", "fig6-cold"),
            ("setup_s", "serve-hot"),
            ("setup_s", "serve-sweep"),
        ],
    ),
    ("sim.core_mfetch_s", &[("ops_per_s", "fullsim-eval")]),
    ("core.encode_us", &[("p50_ms", "serve-sweep")]),
    ("core.replay_us", &[("p50_ms", "serve-sweep")]),
    ("core.scheme_us", &[("p50_ms", "serve-sweep")]),
    ("bitcode.encode_us", &[("p50_ms", "serve-sweep")]),
    ("core.full_eval_mfetch_s", &[("ops_per_s", "fullsim-eval")]),
    (
        "core.scheme_full_mfetch_s",
        &[("ops_per_s", "fullsim-eval")],
    ),
    (
        "net.request_codec_us",
        &[("p50_ms", "serve-hot"), ("ops_per_s", "serve-hot")],
    ),
    (
        "net.response_codec_us",
        &[("p50_ms", "serve-hot"), ("ops_per_s", "serve-hot")],
    ),
    (
        "net.overhead_us_p50",
        &[("p50_ms", "serve-hot"), ("ops_per_s", "serve-hot")],
    ),
    (
        "net.overhead_us_p90",
        &[("p90_ms", "serve-hot"), ("ops_per_s", "serve-hot")],
    ),
    (
        "serve.queue_us_p50",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    (
        "serve.queue_us_p90",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    (
        "serve.service_us_p50",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    (
        "serve.service_us_p90",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    (
        "serve.memo_hit_ratio",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    (
        "serve.mean_batch",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    (
        "serve.peak_queue_depth",
        &[
            ("p90_ms", "serve-hot"),
            ("p90_ms", "serve-sweep"),
            ("ops_per_s", "serve-hot"),
            ("ops_per_s", "serve-sweep"),
        ],
    ),
    // Validity of the run itself: a large unexplained remainder means the
    // ledger does not describe where the time went.
    (
        "ledger.unexplained_pct",
        &[
            ("p50_ms", "fig6-cold"),
            ("p50_ms", "fullsim-eval"),
            ("p50_ms", "serve-hot"),
            ("p50_ms", "serve-sweep"),
        ],
    ),
];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

/// One declared metric. `bound` is `None` for per-layer metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

impl Metric {
    /// Whether `candidate` is worse than `base` by more than the bound.
    pub fn regressed(&self, base: f64, candidate: f64) -> bool {
        let bound = self.bound.unwrap_or(f64::INFINITY);
        match self.better {
            Better::Lower => candidate > base * (1.0 + bound),
            Better::Higher => candidate < base * (1.0 - bound),
        }
    }
}

/// A parsed and validated `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Benchmark {
    /// The compiled-in declaration.
    ///
    /// # Panics
    ///
    /// If the compiled-in file fails validation — the `check` tests keep
    /// that from being committed.
    pub fn embedded() -> Benchmark {
        Benchmark::parse(EMBEDDED).unwrap_or_else(|errors| {
            panic!("BENCHMARK.json is invalid:\n  {}", errors.join("\n  "))
        })
    }

    /// Parses and validates a declaration, returning every problem found.
    pub fn parse(text: &str) -> Result<Benchmark, Vec<String>> {
        let doc = Json::parse(text).map_err(|e| vec![format!("not JSON: {e}")])?;
        let mut errors = Vec::new();
        let bench = read(&doc, &mut errors);
        if errors.is_empty() {
            validate(&bench, &mut errors);
        }
        if errors.is_empty() {
            Ok(bench)
        } else {
            Err(errors)
        }
    }

    /// Whether `name` is a declared workload.
    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }
}

fn keys_exactly(value: &Json, keys: &[&str], what: &str, errors: &mut Vec<String>) {
    let Some(pairs) = value.as_object() else {
        errors.push(format!("{what}: not an object"));
        return;
    };
    let mut present: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    present.sort_unstable();
    let mut wanted = keys.to_vec();
    wanted.sort_unstable();
    if present != wanted {
        errors.push(format!(
            "{what}: keys {present:?}, expected exactly {wanted:?}"
        ));
    }
}

fn string_field(value: &Json, key: &str, what: &str, errors: &mut Vec<String>) -> String {
    match value.get(key).and_then(Json::as_str) {
        Some(s) => s.to_string(),
        None => {
            errors.push(format!("{what}: `{key}` must be a string"));
            String::new()
        }
    }
}

fn array<'a>(doc: &'a Json, key: &str, errors: &mut Vec<String>) -> &'a [Json] {
    doc.get(key).and_then(Json::as_array).unwrap_or_else(|| {
        errors.push(format!("`{key}` must be an array"));
        &[]
    })
}

fn read_metric(value: &Json, with_bound: bool, errors: &mut Vec<String>) -> Metric {
    let what = format!(
        "metric {}",
        value.get("name").map(Json::render).unwrap_or_default()
    );
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    keys_exactly(value, keys, &what, errors);
    let better = match value.get("better").and_then(Json::as_str) {
        Some("lower") => Better::Lower,
        Some("higher") => Better::Higher,
        _ => {
            errors.push(format!("{what}: `better` must be \"lower\" or \"higher\""));
            Better::Lower
        }
    };
    let bound = with_bound.then(|| {
        value
            .get("bound")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| {
                errors.push(format!("{what}: `bound` must be a number"));
                f64::NAN
            })
    });
    Metric {
        name: string_field(value, "name", &what, errors),
        unit: string_field(value, "unit", &what, errors),
        better,
        bound,
    }
}

fn read(doc: &Json, errors: &mut Vec<String>) -> Benchmark {
    keys_exactly(
        doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
        errors,
    );
    let command = array(doc, "command", errors);
    if command.is_empty() || command.len() > 32 {
        errors.push("`command` must hold 1 to 32 strings".into());
    }
    for arg in command {
        match arg.as_str() {
            Some(s) if s.chars().count() <= 200 && !leaves_repo(s) => {}
            _ => errors.push(format!(
                "command argument {} is not a relative string of at most 200 characters",
                arg.render()
            )),
        }
    }
    let paths = array(doc, "paths", errors);
    if paths.is_empty() || paths.len() > 16 {
        errors.push("`paths` must hold 1 to 16 directories".into());
    }
    for path in paths {
        let ok = path.as_str().is_some_and(|p| {
            !p.is_empty()
                && p.len() <= 200
                && p.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
                && !leaves_repo(p)
        });
        if !ok {
            errors.push(format!(
                "path {} is not a relative path of at most 200 [A-Za-z0-9_./-]",
                path.render()
            ));
        }
    }
    let run_seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap_or(0);
    if !(1..=60).contains(&run_seconds) {
        errors.push("`run_seconds` must be a whole number from 1 to 60".into());
    }
    let workloads = array(doc, "workloads", errors)
        .iter()
        .map(|w| {
            let what = format!(
                "workload {}",
                w.get("name").map(Json::render).unwrap_or_default()
            );
            keys_exactly(w, &["name", "why"], &what, errors);
            Workload {
                name: string_field(w, "name", &what, errors),
                why: string_field(w, "why", &what, errors),
            }
        })
        .collect();
    let end_to_end = array(doc, "end_to_end", errors)
        .iter()
        .map(|m| read_metric(m, true, errors))
        .collect();
    let per_layer = array(doc, "per_layer", errors)
        .iter()
        .map(|m| read_metric(m, false, errors))
        .collect();
    Benchmark {
        run_seconds,
        workloads,
        end_to_end,
        per_layer,
    }
}

/// Whether a command argument or path is absolute or climbs out through `..`.
fn leaves_repo(s: &str) -> bool {
    s.starts_with('/') || s.split('/').any(|part| part == "..")
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn validate(bench: &Benchmark, errors: &mut Vec<String>) {
    if !(2..=8).contains(&bench.workloads.len()) {
        errors.push(format!(
            "{} workloads, expected 2 to 8",
            bench.workloads.len()
        ));
    }
    if !(1..=16).contains(&bench.end_to_end.len()) {
        errors.push(format!(
            "{} end-to-end metrics, expected 1 to 16",
            bench.end_to_end.len()
        ));
    }
    if !(1..=128).contains(&bench.per_layer.len()) {
        errors.push(format!(
            "{} per-layer metrics, expected 1 to 128",
            bench.per_layer.len()
        ));
    }
    let runs = 4 + RUNS_PER_WORKLOAD * bench.workloads.len() as u64;
    if runs * bench.run_seconds >= TOTAL_BUDGET_S {
        errors.push(format!(
            "{runs} runs of {} s do not fit in {TOTAL_BUDGET_S} s",
            bench.run_seconds
        ));
    }

    let mut names: Vec<&str> = Vec::new();
    for w in &bench.workloads {
        names.push(&w.name);
        if w.why.is_empty() || w.why.chars().count() > 200 || w.why.contains('\n') {
            errors.push(format!(
                "workload {}: `why` must be one line of 1 to 200 characters",
                w.name
            ));
        }
    }
    for m in bench.end_to_end.iter().chain(&bench.per_layer) {
        names.push(&m.name);
        if !valid_unit(&m.unit) {
            errors.push(format!(
                "metric {}: unit {:?} is not 1 to 16 [A-Za-z0-9_/%.-]",
                m.name, m.unit
            ));
        }
    }
    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            errors.push(format!(
                "name {name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if names[..i].contains(name) {
            errors.push(format!("name {name:?} is used more than once"));
        }
    }

    for m in &bench.end_to_end {
        if !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            errors.push(format!("metric {}: bound must be in (0, 0.25]", m.name));
        }
    }
    match bench.end_to_end.iter().find(|m| m.name == "setup_s") {
        None => errors.push("no `setup_s` end-to-end metric".into()),
        Some(setup) => {
            if setup.unit != "s" || setup.better != Better::Lower {
                errors.push("`setup_s` must have unit \"s\" and better \"lower\"".into());
            }
            let largest = bench
                .end_to_end
                .iter()
                .filter_map(|m| m.bound)
                .fold(0.0, f64::max);
            if setup.bound != Some(largest) {
                errors.push("`setup_s` must carry the largest bound".into());
            }
        }
    }

    for layer in &bench.per_layer {
        if !LAYER_TARGETS.iter().any(|(name, _)| *name == layer.name) {
            errors.push(format!(
                "layer metric {} has no target in LAYER_TARGETS",
                layer.name
            ));
        }
    }
    for (layer, targets) in LAYER_TARGETS {
        if !bench.per_layer.iter().any(|m| m.name == *layer) {
            errors.push(format!(
                "LAYER_TARGETS names undeclared layer metric {layer}"
            ));
        }
        if targets.is_empty() {
            errors.push(format!("layer metric {layer} names no target"));
        }
        for (metric, workload) in *targets {
            if !bench.end_to_end.iter().any(|m| m.name == *metric) {
                errors.push(format!(
                    "layer metric {layer} targets undeclared metric {metric}"
                ));
            }
            if !bench.has_workload(workload) {
                errors.push(format!(
                    "layer metric {layer} targets undeclared workload {workload}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_declaration_is_valid() {
        let bench = Benchmark::parse(EMBEDDED).unwrap_or_else(|e| panic!("{e:#?}"));
        assert_eq!(bench.workloads.len(), crate::WORKLOADS.len());
        for (declared, (name, _)) in bench.workloads.iter().zip(crate::WORKLOADS) {
            assert_eq!(
                declared.name, *name,
                "workload order must match the program's"
            );
        }
    }

    #[test]
    fn names_follow_the_pattern() {
        assert!(valid_name("p50_ms"));
        assert!(valid_name("serve.queue_us_p90"));
        assert!(valid_name("fig6-cold"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    fn mutated(from: &str, to: &str) -> Vec<String> {
        assert!(EMBEDDED.contains(from), "fixture text {from:?} not found");
        Benchmark::parse(&EMBEDDED.replacen(from, to, 1)).expect_err("mutation must be refused")
    }

    #[test]
    fn broken_declarations_are_refused_by_name() {
        let errors = mutated("\"name\": \"p90_ms\"", "\"name\": \"p90 ms\"");
        assert!(
            errors.iter().any(|e| e.contains("\"p90 ms\"")),
            "{errors:?}"
        );

        let errors = mutated(
            "\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25",
            "\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.05",
        );
        assert!(
            errors.iter().any(|e| e.contains("largest bound")),
            "{errors:?}"
        );

        let errors = mutated("\"bound\": 0.25", "\"bound\": 0.5");
        assert!(errors.iter().any(|e| e.contains("(0, 0.25]")), "{errors:?}");

        let errors = mutated(
            "\"name\": \"core.encode_us\"",
            "\"name\": \"core.encoder_us\"",
        );
        assert!(
            errors.iter().any(|e| e.contains("core.encoder_us")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("core.encode_us")),
            "{errors:?}"
        );

        let errors = mutated("\"unit\": \"ms\"", "\"unit\": \"milli seconds\"");
        assert!(errors.iter().any(|e| e.contains("unit")), "{errors:?}");

        let errors = mutated("\"run_seconds\": ", "\"run_seconds\": 9");
        assert!(
            errors.iter().any(|e| e.contains("run_seconds")),
            "{errors:?}"
        );
    }

    #[test]
    fn too_few_workloads_are_refused() {
        let mut bench = Benchmark::embedded();
        bench.workloads.truncate(1);
        let mut errors = Vec::new();
        validate(&bench, &mut errors);
        assert!(
            errors.iter().any(|e| e.contains("1 workloads")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("undeclared workload")),
            "{errors:?}"
        );
    }

    #[test]
    fn regression_respects_direction_and_bound() {
        let lower = Metric {
            name: "p50_ms".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(0.1),
        };
        assert!(!lower.regressed(10.0, 10.9));
        assert!(lower.regressed(10.0, 11.1));
        assert!(!lower.regressed(10.0, 5.0));
        let higher = Metric {
            better: Better::Higher,
            ..lower
        };
        assert!(!higher.regressed(10.0, 9.1));
        assert!(higher.regressed(10.0, 8.9));
    }
}
