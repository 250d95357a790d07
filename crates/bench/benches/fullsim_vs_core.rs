//! Asserting bench: full-simulation evaluation runs close to the bare
//! simulator core.
//!
//! Full simulation scores what replay cannot: cycle-state codes such as
//! bus-invert, and requests that need icache or timing data. It runs the
//! same core as a bare run, plus a sink that counts both buses and
//! restores and checks every fetch. The core hands that sink one
//! straight-line run at a time, and the sink counts, restores and checks
//! the run in one call. Over the six paper kernels at paper scale, this
//! bench interleaves best-of-7 timings of the bare core
//! (`Cpu::run_with_sink` into `NullSink`), of `evaluate` (TT/BBIT, k=4)
//! and of bus-invert `evaluate_scheme_full` — all three include loading
//! the program — and **fails** (exit 1) unless Σcore / Σevaluate ≥ 0.2,
//! summed over the twelve (kernel, evaluation) cells with the kernel's
//! core time counted once per cell. Interleaving exposes all three to the
//! same host phases, so the ratio holds where absolute times drift.
//!
//! Plain `harness = false` main so `cargo bench --bench fullsim_vs_core`
//! runs it as a CI gate without criterion's sampling machinery.

use std::hint::black_box;
use std::time::{Duration, Instant};

use imt_core::eval::{evaluate, evaluate_replay};
use imt_core::scheme::{evaluate_scheme_full, BusInvertScheme};
use imt_core::{encode_program, EncodedProgram, EncoderConfig};
use imt_isa::program::Program;
use imt_kernels::Kernel;
use imt_sim::cpu::{Cpu, NullSink};
use imt_sim::edge::FetchEdgeProfile;

const ROUNDS: usize = 7;
const FLOOR: f64 = 0.2;

fn time_core(program: &Program, max_steps: u64) -> Duration {
    let start = Instant::now();
    let mut cpu = Cpu::new(black_box(program)).expect("kernel loads");
    black_box(
        cpu.run_with_sink(max_steps, &mut NullSink)
            .expect("kernel runs"),
    );
    start.elapsed()
}

fn time_tt(program: &Program, encoded: &EncodedProgram, max_steps: u64) -> Duration {
    let start = Instant::now();
    black_box(evaluate(black_box(program), encoded, max_steps).expect("kernel evaluates"));
    start.elapsed()
}

fn time_bus_invert(program: &Program, max_steps: u64) -> Duration {
    let start = Instant::now();
    let mut scheme = BusInvertScheme::new(black_box(program));
    black_box(evaluate_scheme_full(&mut scheme, program, max_steps).expect("kernel evaluates"));
    start.elapsed()
}

fn main() {
    // Tolerates and ignores cargo-bench plumbing args (`--bench`, filters).
    let _ = std::env::args();
    imt_obs::set_mode(imt_obs::Mode::Off);

    let config = EncoderConfig::default()
        .with_block_size(4)
        .expect("k = 4 is a paper block size");
    let kernels: Vec<_> = Kernel::ALL
        .iter()
        .map(|kernel| {
            let spec = kernel.paper_spec();
            let program = spec.assemble();
            // Every evaluation must be right before its cost is worth
            // comparing: TT equals the closed-form replay field for field,
            // and bus-invert restores every word and keeps the output.
            let profile = FetchEdgeProfile::record(&program, spec.max_steps)
                .unwrap_or_else(|e| panic!("{}: recording failed: {e}", spec.name));
            assert_eq!(profile.stdout(), spec.expected_output, "{}", spec.name);
            let encoded = encode_program(&program, &profile.per_index_counts(), &config)
                .unwrap_or_else(|e| panic!("{}: encoding failed: {e}", spec.name));
            let tt = evaluate(&program, &encoded, spec.max_steps)
                .unwrap_or_else(|e| panic!("{}: evaluation failed: {e}", spec.name));
            let replay = evaluate_replay(&program, &encoded, &profile)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", spec.name));
            assert_eq!(tt, replay, "{}", spec.name);
            let bus_invert = evaluate_scheme_full(
                &mut BusInvertScheme::new(&program),
                &program,
                spec.max_steps,
            )
            .unwrap_or_else(|e| panic!("{}: bus-invert failed: {e}", spec.name));
            assert_eq!(bus_invert.decode_mismatches, 0, "{}", spec.name);
            assert_eq!(bus_invert.stdout, spec.expected_output, "{}", spec.name);
            (spec, program, encoded, tt.fetches)
        })
        .collect();

    let mut best = vec![[Duration::MAX; 3]; kernels.len()];
    for _ in 0..ROUNDS {
        for ((spec, program, encoded, _), [core, tt, bus_invert]) in kernels.iter().zip(&mut best) {
            *core = (*core).min(time_core(program, spec.max_steps));
            *tt = (*tt).min(time_tt(program, encoded, spec.max_steps));
            *bus_invert = (*bus_invert).min(time_bus_invert(program, spec.max_steps));
        }
    }

    let rate = |fetches: u64, time: &Duration| fetches as f64 / 1e6 / time.as_secs_f64();
    for ((spec, _, _, fetches), [core, tt, bus_invert]) in kernels.iter().zip(&best) {
        println!(
            "fullsim_vs_core: {:<12} {:>9} fetches — core {:>6.1}, TT {:>5.1}, bus-invert {:>5.1} Mfetch/s",
            spec.name,
            fetches,
            rate(*fetches, core),
            rate(*fetches, tt),
            rate(*fetches, bus_invert)
        );
    }
    let sum = |column: usize| -> f64 { best.iter().map(|b| b[column].as_secs_f64()).sum() };
    let (core, tt, bus_invert) = (sum(0), sum(1), sum(2));
    let ratio = 2.0 * core / (tt + bus_invert);
    println!(
        "fullsim_vs_core: Σcore {:.1} ms, ΣTT {:.1} ms (Σcore/ΣTT {:.2}), Σbus-invert {:.1} ms (Σcore/Σbus-invert {:.2})",
        core * 1e3,
        tt * 1e3,
        core / tt,
        bus_invert * 1e3,
        core / bus_invert
    );
    println!("fullsim_vs_core: Σcore/Σevaluate {ratio:.2} over both evaluations (floor {FLOOR})");
    assert!(
        ratio >= FLOOR,
        "full simulation runs at {ratio:.2}x of the bare core's rate, below the {FLOOR} floor"
    );
    println!("fullsim_vs_core: PASS");
}
