//! Asserting bench: staged encode and replay cost a fraction of the
//! one-shot pipeline once a program's stages are built.
//!
//! A server answers many design points for one program. The one-shot
//! calls (`encode_program` + `evaluate_replay`) redo, per point, the CFG,
//! block weights and hot loops, every candidate block's encoding, and the
//! baseline transition counts. The staged path keeps a `ProgramAnalysis`
//! and a `ReplayBasis` per program and a `PreparedCodec` per codec
//! setting, and runs only `select` and `ReplayBasis::replay` per point.
//!
//! Over the six paper kernels at paper scale, each with 24 seeded
//! configurations shaped like serve-sweep's TT requests (k = 2..=7, TT
//! and BBIT capacities 1..=64), this bench first checks that both paths
//! give equal `EncodedProgram`s and `Evaluation`s — that check pass also
//! prepares every codec — then interleaves best-of-7 timings of both and
//! **fails** (exit 1) unless Σstaged / Σone-shot ≤ 0.55. Interleaving
//! exposes both paths to the same host phases, so the ratio holds where
//! absolute times drift.
//!
//! Plain `harness = false` main so `cargo bench --bench staged_vs_oneshot`
//! runs it as a CI gate without criterion's sampling machinery.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use imt_core::eval::{evaluate_replay, ReplayBasis};
use imt_core::pipeline::select;
use imt_core::{encode_program, CodecSettings, EncoderConfig, PreparedCodec, ProgramAnalysis};
use imt_isa::program::Program;
use imt_kernels::Kernel;
use imt_sim::edge::FetchEdgeProfile;

const ROUNDS: usize = 7;
const CONFIGS: usize = 24;
const CEILING: f64 = 0.55;

/// One paper kernel with its stages built once.
struct Staged {
    name: String,
    program: Program,
    edges: FetchEdgeProfile,
    per_index: Vec<u64>,
    analysis: ProgramAnalysis,
    basis: ReplayBasis,
    codecs: HashMap<CodecSettings, PreparedCodec>,
}

/// `CONFIGS` TT configurations from a xorshift stream: block sizes in
/// turn, capacities drawn.
fn configs(seed: u64) -> Vec<EncoderConfig> {
    let mut state = seed;
    let mut draw = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    (0..CONFIGS)
        .map(|i| {
            EncoderConfig::default()
                .with_block_size(2 + i % 6)
                .expect("k = 2..=7 is valid")
                .with_tt_capacity(1 + draw(64) as usize)
                .with_bbit_capacity(1 + draw(64) as usize)
        })
        .collect()
}

fn time_oneshot(kernel: &Staged, config: &EncoderConfig) -> Duration {
    let start = Instant::now();
    let encoded = encode_program(black_box(&kernel.program), &kernel.per_index, config)
        .expect("kernel encodes");
    black_box(evaluate_replay(&kernel.program, &encoded, &kernel.edges).expect("kernel replays"));
    start.elapsed()
}

fn time_staged(kernel: &Staged, config: &EncoderConfig) -> Duration {
    let start = Instant::now();
    let codec = &kernel.codecs[&CodecSettings::of(config)];
    let encoded = select(black_box(&kernel.analysis), codec, config).expect("kernel selects");
    black_box(
        kernel
            .basis
            .replay(&kernel.program, &encoded)
            .expect("kernel replays"),
    );
    start.elapsed()
}

fn main() {
    // Tolerates and ignores cargo-bench plumbing args (`--bench`, filters).
    let _ = std::env::args();
    imt_obs::set_mode(imt_obs::Mode::Off);

    let mut kernels: Vec<(Staged, Vec<EncoderConfig>)> = Kernel::ALL
        .iter()
        .enumerate()
        .map(|(i, kernel)| {
            let spec = kernel.paper_spec();
            let program = spec.assemble();
            let edges = FetchEdgeProfile::record(&program, spec.max_steps)
                .unwrap_or_else(|e| panic!("{}: recording failed: {e}", spec.name));
            assert_eq!(edges.stdout(), spec.expected_output, "{}", spec.name);
            let per_index = edges.per_index_counts();
            let analysis = ProgramAnalysis::new(&program, &per_index)
                .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", spec.name));
            let basis = ReplayBasis::new(&program, &edges)
                .unwrap_or_else(|e| panic!("{}: basis failed: {e}", spec.name));
            let staged = Staged {
                name: spec.name,
                program,
                edges,
                per_index,
                analysis,
                basis,
                codecs: HashMap::new(),
            };
            (staged, configs(0x9e37_79b9_7f4a_7c15 ^ i as u64))
        })
        .collect();

    // Staged must equal one-shot before its cost is worth comparing; this
    // pass also prepares every codec the timings use.
    for (kernel, configs) in &mut kernels {
        for config in configs.iter() {
            let settings = CodecSettings::of(config);
            if !kernel.codecs.contains_key(&settings) {
                let codec = PreparedCodec::new(&kernel.analysis, settings)
                    .unwrap_or_else(|e| panic!("{}: codec failed: {e}", kernel.name));
                kernel.codecs.insert(settings, codec);
            }
            let staged = select(&kernel.analysis, &kernel.codecs[&settings], config)
                .unwrap_or_else(|e| panic!("{}: select failed: {e}", kernel.name));
            let oneshot = encode_program(&kernel.program, &kernel.per_index, config)
                .unwrap_or_else(|e| panic!("{}: encoding failed: {e}", kernel.name));
            assert_eq!(staged, oneshot, "{} {config:?}", kernel.name);
            let replayed = kernel
                .basis
                .replay(&kernel.program, &staged)
                .unwrap_or_else(|e| panic!("{}: staged replay failed: {e}", kernel.name));
            let direct = evaluate_replay(&kernel.program, &oneshot, &kernel.edges)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", kernel.name));
            assert_eq!(replayed, direct, "{} {config:?}", kernel.name);
        }
    }

    let mut best: Vec<Vec<[Duration; 2]>> = kernels
        .iter()
        .map(|(_, configs)| vec![[Duration::MAX; 2]; configs.len()])
        .collect();
    for _ in 0..ROUNDS {
        for ((kernel, configs), best) in kernels.iter().zip(&mut best) {
            for (config, [oneshot, staged]) in configs.iter().zip(best.iter_mut()) {
                *oneshot = (*oneshot).min(time_oneshot(kernel, config));
                *staged = (*staged).min(time_staged(kernel, config));
            }
        }
    }

    let sum = |best: &[[Duration; 2]], column: usize| -> f64 {
        best.iter().map(|b| b[column].as_secs_f64()).sum()
    };
    for ((kernel, configs), best) in kernels.iter().zip(&best) {
        let (oneshot, staged) = (sum(best, 0), sum(best, 1));
        println!(
            "staged_vs_oneshot: {:<12} {} configs — one-shot {:>6.1} µs, staged {:>6.1} µs per config ({:.2})",
            kernel.name,
            configs.len(),
            oneshot * 1e6 / configs.len() as f64,
            staged * 1e6 / configs.len() as f64,
            staged / oneshot
        );
    }
    let oneshot: f64 = best.iter().map(|b| sum(b, 0)).sum();
    let staged: f64 = best.iter().map(|b| sum(b, 1)).sum();
    let ratio = staged / oneshot;
    println!(
        "staged_vs_oneshot: Σone-shot {:.2} ms, Σstaged {:.2} ms, Σstaged/Σone-shot {ratio:.2} (ceiling {CEILING})",
        oneshot * 1e3,
        staged * 1e3
    );
    assert!(
        ratio <= CEILING,
        "staged encode and replay take {ratio:.2} of the one-shot time, above the {CEILING} ceiling"
    );
    println!("staged_vs_oneshot: PASS");
}
