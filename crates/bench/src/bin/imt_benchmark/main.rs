//! `imt_benchmark` — the repository benchmark: four workloads, end-to-end
//! metrics measured with tracing off, and a traced run that splits each
//! workload's end-to-end time into its layers. See `README.md` beside this
//! file for the metrics, the workloads and why each exists.
//!
//! ```text
//! imt_benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! imt_benchmark run   --seed N [--seconds S] [--workload W]... [--out DIR]
//! imt_benchmark trace --seed N [--seconds S] [--workload W]... [--out DIR]
//! imt_benchmark check
//! imt_benchmark compare RUNS_A RUNS_B
//! ```
//!
//! The first form runs one workload in this process and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`, the metrics being
//! every end-to-end metric of `BENCHMARK.json` (`--trace 0`) or every
//! per-layer metric (`--trace 1`). `run` and `trace` run each workload in a
//! child process of its own, one at a time.

mod catalog;
mod compare;
mod ledger;
mod offline;
mod pin;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use imt_kernels::{Kernel, KernelSpec};
use imt_obs::json::Json;

use catalog::Benchmark;
use ledger::{Layers, Ledger, Spans};
use stats::quantile;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, WorkloadFn); 4] = [
    ("fig6-cold", offline::fig6_cold),
    ("fullsim-eval", offline::fullsim_eval),
    ("serve-hot", serve::serve_hot),
    ("serve-sweep", serve::serve_sweep),
];

/// A workload: runs for about `params.seconds`, checks its outputs, and
/// reports what it measured.
pub type WorkloadFn = fn(&Params, &mut Layers) -> Result<Outcome, String>;

/// What one workload run is given.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds every generated input.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Whether spans are recorded (`IMT_OBS=trace` mode).
    pub trace: bool,
    /// Test-sized kernels (the smoke tests) instead of the paper's sizes.
    pub test_scale: bool,
    /// Scratch directory for the socket and the profile cache.
    pub work_dir: PathBuf,
}

impl Params {
    /// The kernel instance at this run's scale.
    pub fn spec(&self, kernel: Kernel) -> KernelSpec {
        if self.test_scale {
            kernel.test_spec()
        } else {
            kernel.paper_spec()
        }
    }
}

/// Counters read from the service during a serving workload's capacity
/// loops.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub memo_hit_ratio: f64,
    pub mean_batch: f64,
    pub peak_queue_depth: f64,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, requests).
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Every measured value, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The root span the workload's ledger covers.
    pub ledger_root: &'static str,
    /// Counters for the serving layers, when the workload serves.
    pub serve: Option<ServeCounters>,
    /// Extra `workload metric value unit` lines (output-check failures,
    /// the replay ledger).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Adds the per-layer metrics, from the trace, to a traced outcome.
fn push_layer_metrics(outcome: &mut Outcome, spans: &Spans, layers: &Layers, ledger: &Ledger) {
    let us = |layer: &str, q: f64| quantile(&spans.durations(layer), q) / 1e3;
    let mfetch_s = |layer: &str| match spans.total_ns(layer) {
        0 => 0.0,
        ns => layers.work(layer) as f64 / ns as f64 * 1e3,
    };
    let serve = outcome.serve.unwrap_or_default();
    let values: [(&str, f64, &'static str); 22] = [
        ("kernels.spec_us", us("kernels.spec", 0.5), "us"),
        ("isa.assemble_us", us("isa.assemble", 0.5), "us"),
        ("sim.record_mfetch_s", mfetch_s("sim.record"), "Mfetch/s"),
        ("sim.core_mfetch_s", mfetch_s("sim.core"), "Mfetch/s"),
        ("core.encode_us", us("core.encode", 0.5), "us"),
        ("core.replay_us", us("core.replay", 0.5), "us"),
        ("core.scheme_us", us("core.scheme", 0.5), "us"),
        ("bitcode.encode_us", us("bitcode.encode", 0.5), "us"),
        (
            "core.full_eval_mfetch_s",
            mfetch_s("core.full_eval"),
            "Mfetch/s",
        ),
        (
            "core.scheme_full_mfetch_s",
            mfetch_s("core.scheme_full"),
            "Mfetch/s",
        ),
        ("net.request_codec_us", us("net.request_codec", 0.5), "us"),
        ("net.response_codec_us", us("net.response_codec", 0.5), "us"),
        ("net.overhead_us_p50", us("net.overhead", 0.5), "us"),
        ("net.overhead_us_p90", us("net.overhead", 0.9), "us"),
        ("serve.queue_us_p50", us("serve.queue", 0.5), "us"),
        ("serve.queue_us_p90", us("serve.queue", 0.9), "us"),
        ("serve.service_us_p50", us("serve.service", 0.5), "us"),
        ("serve.service_us_p90", us("serve.service", 0.9), "us"),
        ("serve.memo_hit_ratio", serve.memo_hit_ratio, "ratio"),
        ("serve.mean_batch", serve.mean_batch, "count"),
        ("serve.peak_queue_depth", serve.peak_queue_depth, "count"),
        ("ledger.unexplained_pct", ledger.unexplained_pct(), "%"),
    ];
    for (name, value, unit) in values {
        outcome.push(name, value, unit);
    }
}

/// Trace-ring slots per recording thread: enough that a paper-scale run
/// keeps every span of the benchmark's own threads.
const TRACE_CAPACITY: usize = 1 << 16;

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn default_out_dir() -> PathBuf {
    target_dir().join("imt-benchmark").join("runs")
}

/// Command-line options shared by the workload, `run` and `trace` forms.
#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workloads: Vec::new(),
            seed: 1,
            seconds: None,
            trace: false,
            out: default_out_dir(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => opts.workloads.push(value()?.clone()),
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    opts.seconds = Some(s);
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out" => opts.out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let bench = Benchmark::embedded();
        if let Some(unknown) = opts.workloads.iter().find(|w| !bench.has_workload(w)) {
            return Err(format!("unknown workload {unknown}"));
        }
        Ok(opts)
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or_else(|| Benchmark::embedded().run_seconds as f64)
    }
}

const USAGE: &str = "usage:
  imt_benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
  imt_benchmark run   --seed N [--seconds S] [--workload W]... [--out DIR]
  imt_benchmark trace --seed N [--seconds S] [--workload W]... [--out DIR]
  imt_benchmark check
  imt_benchmark compare RUNS_A RUNS_B";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "check" | "compare")) => (c, &args[1..]),
        _ => ("workload", &args[..]),
    };
    let result = match command {
        "check" => check(rest),
        "compare" => compare::compare(rest),
        _ => Options::parse(rest).and_then(|opts| match command {
            "run" => run_children(&opts, false),
            "trace" => run_children(&opts, true),
            _ => run_one(&opts),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("imt_benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `check`: validates the compiled-in `BENCHMARK.json`.
fn check(args: &[String]) -> Result<bool, String> {
    if !args.is_empty() {
        return Err("check takes no arguments".into());
    }
    match Benchmark::parse(catalog::EMBEDDED) {
        Ok(bench) => {
            println!(
                "BENCHMARK.json: ok ({} workloads, {} end-to-end metrics, {} per-layer metrics, {} layer targets)",
                bench.workloads.len(),
                bench.end_to_end.len(),
                bench.per_layer.len(),
                catalog::LAYER_TARGETS.iter().map(|(_, t)| t.len()).sum::<usize>(),
            );
            Ok(true)
        }
        Err(errors) => {
            for e in errors {
                println!("BENCHMARK.json: {e}");
            }
            Ok(false)
        }
    }
}

/// Runs one workload in this process. Returns whether its outputs were
/// correct.
fn run_one(opts: &Options) -> Result<bool, String> {
    let [workload] = opts.workloads.as_slice() else {
        return Err("give exactly one --workload".into());
    };
    // Before any thread starts: every thread inherits the CPU.
    pin::pin_to_one_cpu()?;
    let run = WORKLOADS
        .iter()
        .find(|(name, _)| name == workload)
        .map(|(_, run)| *run)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let work_dir = target_dir()
        .join("imt-benchmark")
        .join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    // Set before any thread starts: the trace rings read their size once,
    // and the serving workloads warm profiles into an empty, per-run cache.
    std::env::set_var("IMT_TRACE_CAPACITY", TRACE_CAPACITY.to_string());
    std::env::set_var(
        imt_core::profile_cache::DIR_ENV,
        work_dir.join("profile-cache"),
    );
    std::env::remove_var(imt_core::profile_cache::MODE_ENV);
    let params = Params {
        seed: opts.seed,
        seconds: opts.seconds(),
        trace: opts.trace,
        test_scale: false,
        work_dir: work_dir.clone(),
    };
    let result = measure(workload, run, &params, &mut Layers::default());
    let _ = std::fs::remove_dir_all(&work_dir);
    let (outcome, spans) = result?;
    report(workload, opts, &outcome, spans.as_ref())
}

/// Runs a workload with the observability mode its params ask for and, in
/// a traced run, adds the per-layer metrics and the ledger.
fn measure(
    workload: &str,
    run: WorkloadFn,
    params: &Params,
    layers: &mut Layers,
) -> Result<(Outcome, Option<Spans>), String> {
    imt_obs::set_mode(if params.trace {
        imt_obs::Mode::Trace
    } else {
        imt_obs::Mode::Off
    });
    imt_obs::trace::reset();
    let mut outcome = run(params, layers)?;
    imt_obs::set_mode(imt_obs::Mode::Off);
    if !params.trace {
        return Ok((outcome, None));
    }
    let spans = Spans::capture();
    let ledger = spans.ledger(outcome.ledger_root);
    push_layer_metrics(&mut outcome, &spans, layers, &ledger);
    outcome.notes.extend(ledger.lines(workload));
    outcome.notes.push(format!(
        "{workload} trace.dropped_events {} count",
        spans.dropped()
    ));
    Ok((outcome, Some(spans)))
}

/// Prints every measured value, writes the result (and, traced, the
/// Chrome trace) under `--out`, and ends with the JSON line of the
/// declared metrics.
fn report(
    workload: &str,
    opts: &Options,
    outcome: &Outcome,
    spans: Option<&Spans>,
) -> Result<bool, String> {
    let bench = Benchmark::embedded();
    let declared = if opts.trace {
        &bench.per_layer
    } else {
        &bench.end_to_end
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    let correct = outcome.failed == 0;
    let mut selected = Vec::new();
    for metric in declared {
        let value = outcome
            .value(&metric.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{workload} did not measure {}", metric.name))?;
        selected.push((
            metric.name.clone(),
            Json::obj(vec![
                ("value", Json::F64(value)),
                ("unit", Json::str(metric.unit.clone())),
            ]),
        ));
    }
    let all = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::F64(*value)),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    let record = Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::U64(opts.seed)),
        ("seconds", Json::F64(opts.seconds())),
        ("trace", Json::Bool(opts.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", Json::Obj(all)),
    ]);
    let stem = format!("{workload}.seed{}.t{}", opts.seed, u8::from(opts.trace));
    write_file(
        &opts.out,
        &format!("{stem}.result.json"),
        &record.render_pretty(),
    )?;
    if let Some(spans) = spans {
        write_file(
            &opts.out,
            &format!("{stem}.chrome.json"),
            &spans.chrome_trace(workload).render(),
        )?;
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", Json::Obj(selected)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run` / `trace`: every selected workload in a child process of its own,
/// one after another. A traced run also runs the workload untraced and
/// reports the tracing overhead on `p50_ms`.
fn run_children(opts: &Options, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let workloads: Vec<String> = if opts.workloads.is_empty() {
        WORKLOADS.iter().map(|(name, _)| name.to_string()).collect()
    } else {
        opts.workloads.clone()
    };
    let mut all_ok = true;
    for workload in &workloads {
        let modes: &[bool] = if traced { &[false, true] } else { &[false] };
        let mut p50 = Vec::new();
        for &trace in modes {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds().to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&opts.out)
                .stdout(Stdio::piped());
            let output = child
                .output()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines() {
                if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            if !output.status.success() {
                println!("{workload} FAILED ({})", output.status);
                all_ok = false;
            }
            p50.push(stdout.lines().find_map(|line| {
                let mut fields = line.split_whitespace();
                (fields.next() == Some(workload.as_str()) && fields.next() == Some("p50_ms"))
                    .then(|| fields.next()?.parse::<f64>().ok())
                    .flatten()
            }));
        }
        if let [Some(untraced), Some(traced)] = p50[..] {
            println!(
                "{workload} trace.overhead_pct {} %",
                (traced / untraced - 1.0) * 100.0
            );
        }
    }
    println!("results under {}", opts.out.display());
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Workload tests share the observability mode, the trace rings and
    /// the environment, so they run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn test_params(trace: bool, tag: &str) -> Params {
        // Profiles are recorded fresh by every warm: no cache directory.
        std::env::set_var(imt_core::profile_cache::MODE_ENV, "off");
        std::env::set_var("IMT_TRACE_CAPACITY", TRACE_CAPACITY.to_string());
        let work_dir =
            std::env::temp_dir().join(format!("imt-benchmark-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&work_dir).expect("creating the test work dir");
        Params {
            seed: 7,
            seconds: 0.2,
            trace,
            test_scale: true,
            work_dir,
        }
    }

    /// Layers each workload must show as nonzero in its traced run.
    const EXERCISED: [(&str, &[&str]); 4] = [
        (
            "fig6-cold",
            &[
                "kernels.spec_us",
                "isa.assemble_us",
                "sim.record_mfetch_s",
                "core.encode_us",
                "core.replay_us",
            ],
        ),
        (
            "fullsim-eval",
            &[
                "sim.core_mfetch_s",
                "core.full_eval_mfetch_s",
                "core.scheme_full_mfetch_s",
            ],
        ),
        (
            "serve-hot",
            &[
                "kernels.spec_us",
                "net.request_codec_us",
                "net.response_codec_us",
                "net.overhead_us_p50",
                "serve.service_us_p50",
                "serve.memo_hit_ratio",
                "serve.mean_batch",
            ],
        ),
        (
            "serve-sweep",
            &[
                "core.encode_us",
                "core.replay_us",
                "core.scheme_us",
                "bitcode.encode_us",
                "net.overhead_us_p50",
                "sim.record_mfetch_s",
            ],
        ),
    ];

    #[test]
    fn every_workload_runs_at_test_scale_and_emits_every_declared_metric() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let bench = Benchmark::embedded();
        let started = Instant::now();
        for ((name, run), (exercised_by, exercised)) in WORKLOADS.iter().zip(EXERCISED) {
            assert_eq!(*name, exercised_by);
            for trace in [false, true] {
                let params = test_params(trace, name);
                let (outcome, spans) = measure(name, *run, &params, &mut Layers::default())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let _ = std::fs::remove_dir_all(&params.work_dir);
                assert!(outcome.attempted > 0, "{name}: nothing attempted");
                assert_eq!(
                    outcome.failed, 0,
                    "{name} trace={trace}: {:?}",
                    outcome.notes
                );
                let declared = if trace {
                    &bench.per_layer
                } else {
                    &bench.end_to_end
                };
                for metric in declared {
                    let value = outcome.value(&metric.name);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name} trace={trace}: {} = {value:?}",
                        metric.name
                    );
                }
                let positive: &[&str] = if trace {
                    exercised
                } else {
                    &["setup_s", "peak_rss_mb", "p50_ms", "p90_ms"]
                };
                for metric in positive {
                    assert!(
                        outcome.value(metric) > Some(0.0),
                        "{name} trace={trace}: {metric} is not positive"
                    );
                }
                if let Some(spans) = spans {
                    let ledger = spans.ledger(outcome.ledger_root);
                    assert!(
                        ledger.units > 0 && !ledger.rows.is_empty(),
                        "{name}: {ledger:?}"
                    );
                }
            }
        }
        // The smoke must stay cheap enough to run with every `cargo test`.
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_delay_injected_into_one_layer_is_named_by_the_ledger() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let ledger_of = |layers: &mut Layers| {
            let params = test_params(true, "attribution");
            let (outcome, spans) =
                measure("fig6-cold", offline::fig6_cold, &params, layers).expect("fig6-cold runs");
            let _ = std::fs::remove_dir_all(&params.work_dir);
            assert_eq!(outcome.failed, 0);
            spans.expect("traced").ledger("bench.grid")
        };
        let base = ledger_of(&mut Layers::default());
        // 2 ms per call: 12 ms per grid for the six assembles, 48 ms for the
        // 24 encodes — well above the run-to-run noise of any other layer.
        for (slowed, calls) in [("core.encode", 24.0), ("isa.assemble", 6.0)] {
            let delayed = ledger_of(&mut Layers::with_delay(slowed, Duration::from_millis(2)));
            let (named, growth_ms) = delayed.largest_growth(&base).expect("ledger has rows");
            assert_eq!(named, slowed, "base {base:?}\ndelayed {delayed:?}");
            assert!(
                growth_ms > 2.0 * calls * 0.9,
                "{slowed}: grew only {growth_ms} ms per grid"
            );
        }
    }
}
