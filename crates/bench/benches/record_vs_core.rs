//! Asserting bench: recording a fetch-edge profile runs close to the bare
//! simulator core.
//!
//! `FetchEdgeProfile::record` is the whole cost of a first answer for a
//! new program, and it runs the same core as a bare run with a discarding
//! sink. The core hands the recorder one straight-line run at a time and
//! the recorder folds each run in O(1), so recording should cost little
//! more than the core itself. Over the six paper kernels at paper scale,
//! this bench interleaves best-of-7 timings of the bare core
//! (`Cpu::run_with_sink` into `NullSink`) and of `record` — both include
//! loading the program — and **fails** (exit 1) unless
//! Σcore / Σrecord ≥ 0.8. Interleaving the two per kernel and round
//! exposes both to the same host phases, so the ratio holds where
//! absolute times drift.
//!
//! Plain `harness = false` main so `cargo bench --bench record_vs_core`
//! runs it as a CI gate without criterion's sampling machinery.

use std::hint::black_box;
use std::time::{Duration, Instant};

use imt_isa::program::Program;
use imt_kernels::Kernel;
use imt_sim::cpu::{Cpu, NullSink};
use imt_sim::edge::FetchEdgeProfile;

const ROUNDS: usize = 7;
const FLOOR: f64 = 0.8;

fn time_core(program: &Program, max_steps: u64) -> Duration {
    let start = Instant::now();
    let mut cpu = Cpu::new(black_box(program)).expect("kernel loads");
    black_box(
        cpu.run_with_sink(max_steps, &mut NullSink)
            .expect("kernel runs"),
    );
    start.elapsed()
}

fn time_record(program: &Program, max_steps: u64) -> Duration {
    let start = Instant::now();
    black_box(FetchEdgeProfile::record(black_box(program), max_steps).expect("kernel records"));
    start.elapsed()
}

fn main() {
    // Tolerates and ignores cargo-bench plumbing args (`--bench`, filters).
    let _ = std::env::args();
    imt_obs::set_mode(imt_obs::Mode::Off);

    let kernels: Vec<_> = Kernel::ALL
        .iter()
        .map(|kernel| {
            let spec = kernel.paper_spec();
            let program = spec.assemble();
            // Both runs must agree before their costs are worth comparing.
            let profile = FetchEdgeProfile::record(&program, spec.max_steps)
                .unwrap_or_else(|e| panic!("{}: recording failed: {e}", spec.name));
            assert_eq!(profile.stdout(), spec.expected_output, "{}", spec.name);
            let mut cpu = Cpu::new(&program).expect("kernel loads");
            cpu.run(spec.max_steps).expect("kernel runs");
            assert_eq!(profile.per_index_counts(), cpu.profile(), "{}", spec.name);
            (spec, program, profile.fetches())
        })
        .collect();

    let mut best = vec![(Duration::MAX, Duration::MAX); kernels.len()];
    for _ in 0..ROUNDS {
        for ((spec, program, _), (core, record)) in kernels.iter().zip(&mut best) {
            *core = (*core).min(time_core(program, spec.max_steps));
            *record = (*record).min(time_record(program, spec.max_steps));
        }
    }

    for ((spec, _, fetches), (core, record)) in kernels.iter().zip(&best) {
        let mfetch = *fetches as f64 / 1e6;
        println!(
            "record_vs_core: {:<12} {:>9} fetches — core {:>7.1} Mfetch/s, record {:>7.1} Mfetch/s",
            spec.name,
            fetches,
            mfetch / core.as_secs_f64(),
            mfetch / record.as_secs_f64()
        );
    }
    let core: Duration = best.iter().map(|b| b.0).sum();
    let record: Duration = best.iter().map(|b| b.1).sum();
    let ratio = core.as_secs_f64() / record.as_secs_f64();
    println!(
        "record_vs_core: Σcore {:.1} ms, Σrecord {:.1} ms, Σcore/Σrecord {ratio:.2} (floor {FLOOR})",
        core.as_secs_f64() * 1e3,
        record.as_secs_f64() * 1e3
    );
    assert!(
        ratio >= FLOOR,
        "recording runs at {ratio:.2}x of the bare core's rate, below the {FLOOR} floor"
    );
    println!("record_vs_core: PASS");
}
