//! The offline workloads: one caller in a closed loop over the paper's
//! six kernels.
//!
//! * `fig6-cold` answers the Figure 6 grid for programs seen for the
//!   first time: every repetition builds, assembles, records and
//!   golden-checks each kernel, then encodes and replays it at block sizes
//!   4–7. Recording dominates; encode and replay are about 1 %.
//! * `fullsim-eval` scores encodings by full simulation — TT k=4, TT k=6
//!   with instruction-cache needs, and bus-invert — the path the eval sink
//!   dominates, on the paper kernels with a sixth of their work. Replay and
//!   the codec are absent from the timed part.
//!
//! Every unit of work (a kernel's cold answer, a full-simulation cell) is
//! the same computation each time it repeats, so the time it costs is the
//! fastest of its repeats: other tenants of the host only ever add time.

use std::collections::HashMap;
use std::time::Instant;

use imt_core::eval::FullSimReason;
use imt_core::eval::{evaluate, evaluate_auto, evaluate_replay, EvalNeeds, EvalPath, Evaluation};
use imt_core::scheme::{evaluate_scheme_auto, BusInvertScheme};
use imt_core::{encode_program, EncodedProgram, EncoderConfig};
use imt_isa::Program;
use imt_kernels::{sources, Kernel, KernelSpec};
use imt_net::chaos::XorShift64;
use imt_sim::cpu::NullSink;
use imt_sim::edge::FetchEdgeProfile;
use imt_sim::Cpu;

use crate::ledger::Layers;
use crate::stats::{median, quantile};
use crate::{Outcome, Params};

/// The committed Figure 6 table; its csv section is the expected output.
const FIG6_RESULTS: &str = include_str!("../../../../../results/exp_fig6.txt");
/// Figure 6's block sizes.
const BLOCK_SIZES: std::ops::RangeInclusive<usize> = 4..=7;
/// Fewest Figure 6 grids, and full-simulation passes, per run, however
/// short the run.
const MIN_GRIDS: usize = 3;
const MIN_PASSES: u32 = 2;

/// Fisher–Yates shuffle driven by the run's seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Units per second for one caller running each unit once, at the given
/// times (ms).
fn per_second(unit_ms: &[f64]) -> f64 {
    unit_ms.len() as f64 * 1e3 / unit_ms.iter().sum::<f64>()
}

/// Keeps the fastest time (ms) seen for `unit`.
fn keep_fastest<K: std::hash::Hash + Eq>(fastest: &mut HashMap<K, f64>, unit: K, ms: f64) {
    let best = fastest.entry(unit).or_insert(ms);
    *best = best.min(ms);
}

/// Seconds `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

fn block_config(k: usize) -> EncoderConfig {
    EncoderConfig::default()
        .with_block_size(k)
        .expect("block sizes 2..=7 are valid")
}

/// `(kernel, k)` → `(baseline, encoded)` transitions.
type Fig6Table = HashMap<(&'static str, usize), (u64, u64)>;

/// The committed paper-scale grid, from the csv section of
/// `results/exp_fig6.txt`.
fn committed_fig6() -> Result<Fig6Table, String> {
    let csv = FIG6_RESULTS
        .split_once("csv:\n")
        .ok_or("results/exp_fig6.txt has no csv section")?
        .1;
    let mut table = Fig6Table::new();
    for line in csv.lines().skip(1).filter(|l| !l.is_empty()) {
        let fields: Vec<&str> = line.split(',').collect();
        let [kernel, k, baseline, encoded, _] = fields[..] else {
            return Err(format!("bad csv line {line:?}"));
        };
        let kernel = Kernel::ALL
            .iter()
            .map(|k| k.name())
            .find(|name| *name == kernel)
            .ok_or_else(|| format!("unknown kernel in csv line {line:?}"))?;
        let parse = |s: &str| s.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
        table.insert(
            (kernel, parse(k)? as usize),
            (parse(baseline)?, parse(encoded)?),
        );
    }
    if table.len() != Kernel::ALL.len() * BLOCK_SIZES.count() {
        return Err(format!("csv holds {} cells, expected 24", table.len()));
    }
    Ok(table)
}

/// The test-scale grid by full simulation: the oracle for smoke runs,
/// where no committed table exists.
fn full_sim_fig6(params: &Params) -> Result<Fig6Table, String> {
    let mut table = Fig6Table::new();
    for kernel in Kernel::ALL {
        let spec = params.spec(kernel);
        let program = spec.assemble();
        let mut cpu = Cpu::new(&program).map_err(|e| e.to_string())?;
        cpu.run(spec.max_steps).map_err(|e| e.to_string())?;
        for k in BLOCK_SIZES {
            let encoded = encode_program(&program, cpu.profile(), &block_config(k))
                .map_err(|e| e.to_string())?;
            let eval = evaluate(&program, &encoded, spec.max_steps).map_err(|e| e.to_string())?;
            table.insert(
                (kernel.name(), k),
                (eval.baseline_transitions, eval.encoded_transitions),
            );
        }
    }
    Ok(table)
}

/// Builds every paper program: the set-up a first answer needs.
fn build_programs(params: &Params, layers: &Layers) -> Vec<(KernelSpec, Program)> {
    let _root = imt_obs::trace::span("bench.setup");
    Kernel::ALL
        .iter()
        .map(|&kernel| {
            let spec = layers.call("kernels.spec", || params.spec(kernel));
            let program = layers.call("isa.assemble", || spec.assemble());
            (spec, program)
        })
        .collect()
}

/// One cold Figure 6 grid.
#[derive(Default)]
struct Grid {
    /// Each cell that evaluated, as `(kernel, k, eval)`.
    cells: Vec<(&'static str, usize, Evaluation)>,
    /// Each kernel's cold answer, its four cells included, in ms.
    kernel_ms: Vec<(Kernel, f64)>,
    /// Kernels whose output missed the golden model.
    golden_misses: u64,
}

fn cold_grid(params: &Params, layers: &mut Layers, order: &[Kernel]) -> Grid {
    let _root = imt_obs::trace::span("bench.grid");
    let mut grid = Grid::default();
    for &kernel in order {
        let started = Instant::now();
        let spec = layers.call("kernels.spec", || params.spec(kernel));
        let program = layers.call("isa.assemble", || spec.assemble());
        let recorded = layers.call("sim.record", || {
            FetchEdgeProfile::record(&program, spec.max_steps).map(|edges| {
                let per_index = edges.per_index_counts();
                (edges, per_index)
            })
        });
        let Ok((edges, per_index)) = recorded else {
            continue;
        };
        layers.add_work("sim.record", edges.fetches());
        if !layers.call("kernels.golden", || edges.stdout() == spec.expected_output) {
            grid.golden_misses += 1;
        }
        for k in BLOCK_SIZES {
            let config = block_config(k);
            let eval = layers
                .call("core.encode", || {
                    encode_program(&program, &per_index, &config)
                })
                .and_then(|encoded| {
                    layers.call("core.replay", || {
                        evaluate_replay(&program, &encoded, &edges)
                    })
                });
            if let Ok(eval) = eval {
                grid.cells.push((kernel.name(), k, eval));
            }
        }
        grid.kernel_ms
            .push((kernel, started.elapsed().as_secs_f64() * 1e3));
    }
    grid
}

pub fn fig6_cold(params: &Params, layers: &mut Layers) -> Result<Outcome, String> {
    let mut rng = XorShift64::new(params.seed);
    let expected = if params.test_scale {
        full_sim_fig6(params)?
    } else {
        committed_fig6()?
    };

    let mut outcome = Outcome {
        ledger_root: "bench.grid",
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut fastest: HashMap<Kernel, f64> = HashMap::new();
    let mut grids = 0;
    let mut reductions: Vec<f64> = Vec::new();
    let started = Instant::now();
    while grids < MIN_GRIDS || started.elapsed().as_secs_f64() < params.seconds {
        // One set-up before each grid: spread over the run, their median
        // describes the run rather than one moment of it.
        let (programs, seconds) = timed(|| build_programs(params, layers));
        std::hint::black_box(programs);
        setups.push(seconds);
        // The seed orders the kernels in each grid; the answer must not
        // depend on it.
        let mut order = Kernel::ALL;
        shuffle(&mut order, &mut rng);
        let grid = cold_grid(params, layers, &order);
        grids += 1;
        for (kernel, ms) in grid.kernel_ms {
            keep_fastest(&mut fastest, kernel, ms);
        }
        let grid_cells = Kernel::ALL.len() * BLOCK_SIZES.count();
        outcome.attempted += grid_cells as u64;
        outcome.failed += grid.golden_misses + (grid_cells - grid.cells.len()) as u64;
        for (kernel, k, eval) in &grid.cells {
            let want = expected.get(&(*kernel, *k));
            if want != Some(&(eval.baseline_transitions, eval.encoded_transitions)) {
                outcome.failed += 1;
                if outcome.failed > 3 {
                    continue;
                }
                outcome.notes.push(format!(
                    "fig6-cold WRONG {kernel} k={k}: got ({}, {}), expected {want:?}",
                    eval.baseline_transitions, eval.encoded_transitions
                ));
            }
        }
        if reductions.is_empty() {
            reductions = grid
                .cells
                .iter()
                .map(|(_, _, e)| e.reduction_percent())
                .collect();
        }
    }
    let kernel_ms: Vec<f64> = fastest.into_values().collect();
    outcome.push("setup_s", median(&setups), "s");
    outcome.push("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    outcome.push("p50_ms", median(&kernel_ms), "ms");
    outcome.push("p90_ms", quantile(&kernel_ms, 0.9), "ms");
    outcome.push("ops_per_s", per_second(&kernel_ms), "1/s");
    outcome.push(
        "reduction_pct",
        reductions.iter().sum::<f64>() / reductions.len().max(1) as f64,
        "%",
    );
    outcome.push("grids", grids as f64, "count");
    outcome.push(
        "error_rate",
        outcome.failed as f64 / outcome.attempted as f64,
        "ratio",
    );
    Ok(outcome)
}

/// One kernel ready for full simulation.
struct Prepared {
    spec: KernelSpec,
    program: Program,
    edges: FetchEdgeProfile,
    tt4: EncodedProgram,
    tt6: EncodedProgram,
}

/// The three full-simulation evaluations of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Eval {
    /// TT/BBIT at k=4 through `evaluate`.
    Tt4,
    /// TT/BBIT at k=6 through `evaluate_auto` with instruction-cache needs.
    Tt6Icache,
    /// Bus-invert through `evaluate_scheme_auto` (cycle-state: full sim).
    BusInvert,
}

/// The kernel full simulation scores: the paper's kernel with about a
/// sixth of its paper-scale work (same loops, smaller problem), so that a
/// run repeats every cell a dozen times. At paper scale one pass takes
/// about 9 s, and the fastest of a run's two or three repeats still moved
/// with the host's slow phases.
fn fullsim_spec(params: &Params, kernel: Kernel) -> KernelSpec {
    if params.test_scale {
        return kernel.test_spec();
    }
    match kernel {
        Kernel::Mmul => sources::mmul(55),
        Kernel::Sor => sources::sor(104, 2),
        Kernel::Ej => sources::ej(128, 4),
        Kernel::Fft => sources::fft(8),
        Kernel::Tri => sources::tri(128, 33),
        Kernel::Lu => sources::lu(70),
    }
}

fn prepare(params: &Params, layers: &mut Layers) -> Result<Vec<Prepared>, String> {
    let _root = imt_obs::trace::span("bench.setup");
    let mut prepared = Vec::new();
    for kernel in Kernel::ALL {
        let spec = layers.call("kernels.spec", || fullsim_spec(params, kernel));
        let program = layers.call("isa.assemble", || spec.assemble());
        let edges = layers
            .call("sim.record", || {
                FetchEdgeProfile::record(&program, spec.max_steps)
            })
            .map_err(|e| format!("{}: {e}", spec.name))?;
        layers.add_work("sim.record", edges.fetches());
        let per_index = edges.per_index_counts();
        let encode = |k| {
            layers
                .call("core.encode", || {
                    encode_program(&program, &per_index, &block_config(k))
                })
                .map_err(|e| format!("{}: {e}", spec.name))
        };
        let (tt4, tt6) = (encode(4)?, encode(6)?);
        prepared.push(Prepared {
            spec,
            program,
            edges,
            tt4,
            tt6,
        });
    }
    Ok(prepared)
}

/// Evaluates one cell by full simulation. Returns the evaluation (bus
/// invert mapped to the common shape) and whether it took the expected
/// full-simulation route.
fn full_sim_cell(
    p: &Prepared,
    eval: Eval,
    layers: &mut Layers,
) -> Result<(Evaluation, bool), String> {
    let steps = p.spec.max_steps;
    let result = match eval {
        Eval::Tt4 => layers
            .call("core.full_eval", || evaluate(&p.program, &p.tt4, steps))
            .map(|e| (e, true)),
        Eval::Tt6Icache => {
            let needs = EvalNeeds {
                icache: true,
                ..EvalNeeds::default()
            };
            layers
                .call("core.full_eval", || {
                    evaluate_auto(&p.program, &p.tt6, steps, Some(&p.edges), needs)
                })
                .map(|(e, path)| (e, path == EvalPath::FullSim(FullSimReason::Icache)))
        }
        Eval::BusInvert => layers
            .call("core.scheme_full", || {
                let mut scheme = BusInvertScheme::new(&p.program);
                evaluate_scheme_auto(
                    &mut scheme,
                    &p.program,
                    steps,
                    Some(&p.edges),
                    EvalNeeds::transitions_only(),
                )
            })
            .map(|(e, path)| {
                let routed = path == EvalPath::FullSim(FullSimReason::ReplayInfeasible);
                (e.to_evaluation(), routed)
            }),
    };
    let (evaluation, routed) = result.map_err(|e| format!("{}: {e}", p.spec.name))?;
    let layer = if eval == Eval::BusInvert {
        "core.scheme_full"
    } else {
        "core.full_eval"
    };
    layers.add_work(layer, evaluation.fetches);
    Ok((evaluation, routed))
}

pub fn fullsim_eval(params: &Params, layers: &mut Layers) -> Result<Outcome, String> {
    let mut rng = XorShift64::new(params.seed);
    // One set-up before the first pass and one after each pass: spread
    // over the run, their median describes the run rather than one moment
    // of it.
    let mut setups = Vec::new();
    let (ready, seconds) = timed(|| prepare(params, layers));
    let mut prepared = ready?;
    setups.push(seconds);

    let mut cells: Vec<(usize, Eval)> = (0..prepared.len())
        .flat_map(|i| [Eval::Tt4, Eval::Tt6Icache, Eval::BusInvert].map(|e| (i, e)))
        .collect();
    let mut outcome = Outcome {
        ledger_root: "bench.pass",
        ..Outcome::default()
    };
    let mut results: HashMap<(usize, Eval), Vec<Evaluation>> = HashMap::new();
    let mut fastest: HashMap<(usize, Eval), f64> = HashMap::new();
    let mut passes: u32 = 0;
    let started = Instant::now();
    // Whole passes only, so every run measures the same cell mix: as many
    // as fit in the run.
    let fits = |passes: u32| {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed * f64::from(passes + 1) / f64::from(passes) <= params.seconds
    };
    while passes < MIN_PASSES || fits(passes) {
        shuffle(&mut cells, &mut rng);
        {
            let _root = imt_obs::trace::span("bench.pass");
            for &(i, eval) in &cells {
                let (result, seconds) = timed(|| full_sim_cell(&prepared[i], eval, layers));
                outcome.attempted += 1;
                match result {
                    Ok((evaluation, true)) => {
                        keep_fastest(&mut fastest, (i, eval), seconds * 1e3);
                        results.entry((i, eval)).or_default().push(evaluation);
                    }
                    Ok((_, false)) | Err(_) => outcome.failed += 1,
                }
            }
        }
        passes += 1;
        if params.trace {
            core_probe(&prepared, layers);
        }
        let (ready, seconds) = timed(|| prepare(params, layers));
        prepared = ready?;
        setups.push(seconds);
    }
    let peak_rss = crate::stats::peak_rss_mb();

    // Outputs: each TT full simulation must equal the closed-form replay
    // of the same cell; bus-invert must restore every word and leave the
    // program's behaviour unchanged.
    for ((i, eval), evaluations) in &results {
        let p = &prepared[*i];
        let reference = match eval {
            Eval::Tt4 => evaluate_replay(&p.program, &p.tt4, &p.edges).ok(),
            Eval::Tt6Icache => evaluate_replay(&p.program, &p.tt6, &p.edges).ok(),
            Eval::BusInvert => None,
        };
        for evaluation in evaluations {
            let ok = match &reference {
                Some(reference) => evaluation == reference,
                None => {
                    evaluation.decode_mismatches == 0
                        && evaluation.exit_code == 0
                        && evaluation.stdout == p.spec.expected_output
                }
            };
            if !ok {
                outcome.failed += 1;
                if outcome.failed <= 3 {
                    outcome
                        .notes
                        .push(format!("fullsim-eval WRONG {} {eval:?}", p.spec.name));
                }
            }
        }
    }

    // One operation is a million simulated fetches, so the cells' sizes do
    // not decide which cell the percentiles land on: per cell, its fastest
    // repeat's time per million fetches.
    let (mut ms_per_mfetch, mut total_ms, mut total_mfetch) = (Vec::new(), 0.0, 0.0);
    for (cell, ms) in &fastest {
        let mfetch = results[cell][0].fetches as f64 / 1e6;
        ms_per_mfetch.push(ms / mfetch);
        total_ms += ms;
        total_mfetch += mfetch;
    }
    outcome.push("setup_s", median(&setups), "s");
    outcome.push("peak_rss_mb", peak_rss, "MB");
    outcome.push("p50_ms", median(&ms_per_mfetch), "ms");
    outcome.push("p90_ms", quantile(&ms_per_mfetch, 0.9), "ms");
    outcome.push("ops_per_s", total_mfetch / total_ms * 1e3, "1/s");
    outcome.push("passes", f64::from(passes), "count");
    outcome.push(
        "error_rate",
        outcome.failed as f64 / outcome.attempted as f64,
        "ratio",
    );
    Ok(outcome)
}

/// Traced runs only: the bare simulator core with a discarding sink, to
/// split full-simulation time into core and evaluation sink.
fn core_probe(prepared: &[Prepared], layers: &mut Layers) {
    let _root = imt_obs::trace::span("bench.probe");
    for p in prepared {
        let run = layers.call("sim.core", || {
            let mut cpu = Cpu::new(&p.program)?;
            cpu.run_with_sink(p.spec.max_steps, &mut NullSink)
        });
        if let Ok(summary) = run {
            layers.add_work("sim.core", summary.instructions);
        }
    }
}
