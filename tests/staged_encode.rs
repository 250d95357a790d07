//! Staged encode and replay against the one-shot pipeline.
//!
//! A server keeps, per program, one `ProgramAnalysis`, one `ReplayBasis`
//! and a memo of `PreparedCodec`s keyed by `CodecSettings`, and runs only
//! `select` and `ReplayBasis::replay` per request. Here each program — the
//! six kernels at test scale and generated programs — gets one analysis,
//! one basis and one codec memo, reused across random configurations in
//! random order: block sizes 2..=7, TT/BBIT capacities 0..=64, both overlap
//! semantics, the canonical eight and all sixteen transforms, both chain
//! strategies, 1..=6 loops, with and without called functions. Every
//! staged `EncodedProgram` must equal a fresh `encode_program`; every
//! staged replay must equal `evaluate_replay` and full simulation as whole
//! structs; Gray and low-weight through the basis must equal full
//! simulation; and a corrupted image word or complemented TT entry must
//! fail the staged replay with the one-shot replay's `DecodeMismatch`.

// Only the program generator is used here, not the per-fetch step loop.
#[allow(dead_code)]
#[path = "../crates/sim/tests/programs/mod.rs"]
mod programs;

use std::collections::HashMap;

use imt::bitcode::block::OverlapHistory;
use imt::bitcode::stream::ChainStrategy;
use imt::bitcode::{Transform, TransformSet};
use imt::core::eval::{
    evaluate, evaluate_auto, evaluate_auto_with, evaluate_replay, EvalNeeds, ReplayBasis,
};
use imt::core::hardware::TransformationTable;
use imt::core::pipeline::select;
use imt::core::scheme::{
    build_scheme, evaluate_scheme_full, evaluate_scheme_replay, evaluate_scheme_replay_with,
    SchemeSpec,
};
use imt::core::{
    encode_program, CodecSettings, CoreError, EncodedProgram, EncoderConfig, PreparedCodec,
    ProgramAnalysis,
};
use imt::isa::program::Program;
use imt::kernels::Kernel;
use imt::sim::edge::FetchEdgeProfile;
use programs::{program, shape_strategy};
use proptest::prelude::*;

/// One program with its stages built once.
struct Stages {
    program: Program,
    max_steps: u64,
    edges: FetchEdgeProfile,
    per_index: Vec<u64>,
    analysis: ProgramAnalysis,
    basis: ReplayBasis,
    codecs: HashMap<CodecSettings, PreparedCodec>,
}

impl Stages {
    fn new(program: Program, max_steps: u64) -> Stages {
        let edges = FetchEdgeProfile::record(&program, max_steps).expect("program records");
        let per_index = edges.per_index_counts();
        let analysis = ProgramAnalysis::new(&program, &per_index).expect("program analyses");
        let basis = ReplayBasis::new(&program, &edges).expect("profile fits the program");
        Stages {
            program,
            max_steps,
            edges,
            per_index,
            analysis,
            basis,
            codecs: HashMap::new(),
        }
    }

    /// `config` encoded through the stages, preparing its codec setting
    /// the first time it comes up.
    fn encode(&mut self, config: &EncoderConfig) -> EncodedProgram {
        let settings = CodecSettings::of(config);
        let codec = self.codecs.entry(settings).or_insert_with(|| {
            PreparedCodec::new(&self.analysis, settings).expect("codec settings are valid")
        });
        select(&self.analysis, codec, config).expect("program selects")
    }

    /// Requires the staged encoding and replay of `config` to equal the
    /// one-shot pipeline, and — with `full_sim` — full simulation.
    /// Returns the staged encoding.
    fn check(&mut self, config: &EncoderConfig, full_sim: bool) -> EncodedProgram {
        let staged = self.encode(config);
        let oneshot = encode_program(&self.program, &self.per_index, config);
        assert_eq!(Ok(&staged), oneshot.as_ref(), "{config:?}");

        let replayed = self.basis.replay(&self.program, &staged);
        assert_eq!(
            replayed,
            evaluate_replay(&self.program, &staged, &self.edges),
            "{config:?}"
        );
        let needs = EvalNeeds::transitions_only();
        assert_eq!(
            evaluate_auto_with(
                &self.program,
                &staged,
                self.max_steps,
                Some(&self.basis),
                needs
            ),
            evaluate_auto(
                &self.program,
                &staged,
                self.max_steps,
                Some(&self.edges),
                needs
            ),
            "{config:?}"
        );
        let replayed = replayed.expect("a schedule of real basic blocks replays");
        if full_sim {
            assert_eq!(
                Ok(&replayed),
                evaluate(&self.program, &staged, self.max_steps).as_ref(),
                "{config:?}"
            );
        }
        staged
    }

    /// Gray and low-weight priced through the basis must equal full
    /// simulation and the one-shot replay.
    fn check_schemes(&self) {
        let specs = [
            SchemeSpec::Gray,
            SchemeSpec::LowWeight {
                entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
            },
        ];
        for spec in specs {
            let mut scheme = build_scheme(
                spec,
                &self.program,
                self.basis.per_index(),
                &EncoderConfig::default(),
            )
            .expect("scheme builds");
            let staged = evaluate_scheme_replay_with(scheme.as_ref(), &self.program, &self.basis);
            assert_eq!(
                staged,
                evaluate_scheme_replay(scheme.as_ref(), &self.program, &self.edges),
                "{}",
                spec.name()
            );
            assert_eq!(
                staged,
                evaluate_scheme_full(scheme.as_mut(), &self.program, self.max_steps),
                "{}",
                spec.name()
            );
        }
    }

    /// A flipped image word and a complemented TT entry must fail the
    /// staged replay with the one-shot replay's `DecodeMismatch`.
    fn check_corruptions(&self, encoded: &EncodedProgram) {
        let Some(hot) = encoded.report.encoded.first() else {
            return;
        };
        let mut image = encoded.clone();
        image.text[(hot.start_pc - encoded.text_base) as usize / 4] ^= 1 << 7;
        let mut table = encoded.clone();
        let mut tt = TransformationTable::new();
        for (index, entry) in encoded.tt.entries().iter().enumerate() {
            let mut entry = entry.clone();
            if index == hot.tt_first {
                for transform in &mut entry.lane_transforms {
                    *transform = Transform::from_table(!transform.table());
                }
            }
            tt.push(entry);
        }
        table.tt = tt;
        for corrupted in [&image, &table] {
            let staged = self.basis.replay(&self.program, corrupted);
            assert!(
                matches!(staged, Err(CoreError::DecodeMismatch { .. })),
                "{staged:?}"
            );
            assert_eq!(
                staged,
                evaluate_replay(&self.program, corrupted, &self.edges)
            );
        }
    }
}

/// A configuration over every setting the stages split on; `flags` holds
/// the overlap, transform-set, strategy and called-function choices.
fn config_strategy() -> impl Strategy<Value = EncoderConfig> {
    (2usize..=7, 0usize..=64, 0usize..=64, 1usize..=6, 0u8..16).prop_map(
        |(k, tt, bbit, loops, flags)| {
            let flag = |bit: u8| flags & (1 << bit) != 0;
            EncoderConfig::default()
                .with_block_size(k)
                .expect("k is in range")
                .with_transforms(if flag(0) {
                    TransformSet::ALL_SIXTEEN
                } else {
                    TransformSet::CANONICAL_EIGHT
                })
                .expect("both sets hold the identity")
                .with_overlap(if flag(1) {
                    OverlapHistory::Decoded
                } else {
                    OverlapHistory::Stored
                })
                .with_strategy(if flag(2) {
                    ChainStrategy::Optimal
                } else {
                    ChainStrategy::Greedy
                })
                .with_tt_capacity(tt)
                .with_bbit_capacity(bbit)
                .with_max_loops(loops)
                .with_called_functions(flag(3))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Each kernel's stages serve 48 random configurations in random
    /// order; every fourth is also checked against full simulation.
    #[test]
    fn staged_equals_oneshot_on_every_kernel(
        configs in proptest::collection::vec(config_strategy(), 48),
    ) {
        for kernel in Kernel::ALL {
            let spec = kernel.test_spec();
            let mut stages = Stages::new(spec.assemble(), spec.max_steps);
            stages.check_schemes();
            for (i, config) in configs.iter().enumerate() {
                let encoded = stages.check(config, i % 4 == 0);
                if i % 8 == 0 {
                    stages.check_corruptions(&encoded);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated programs that exit — a loop, a callee it may call, and a
    /// second call after it — each under eight random configurations.
    #[test]
    fn staged_equals_oneshot_on_generated_programs(
        mut shape in shape_strategy(),
        configs in proptest::collection::vec(config_strategy(), 8),
    ) {
        shape.fault_below = 0;
        shape.ending %= 2;
        let mut stages = Stages::new(program(&shape), 1_000_000);
        stages.check_schemes();
        for config in &configs {
            let encoded = stages.check(config, true);
            stages.check_corruptions(&encoded);
        }
    }
}

#[test]
fn stages_built_for_another_program_are_refused_typed() {
    let tri = Kernel::Tri.test_spec();
    let fft = Kernel::Fft.test_spec();
    let mut tri = Stages::new(tri.assemble(), tri.max_steps);
    let fft = Stages::new(fft.assemble(), fft.max_steps);
    assert_ne!(tri.program.text.len(), fft.program.text.len());
    let config = EncoderConfig::default();
    let encoded = tri.encode(&config);

    // A basis for another text length: typed, never a wrong number.
    assert_eq!(
        fft.basis.replay(&tri.program, &encoded),
        Err(CoreError::ProfileLength {
            text_len: tri.program.text.len(),
            profile_len: fft.program.text.len(),
        })
    );
    let gray = build_scheme(
        SchemeSpec::Gray,
        &tri.program,
        tri.basis.per_index(),
        &config,
    )
    .expect("gray builds");
    assert!(matches!(
        evaluate_scheme_replay_with(gray.as_ref(), &tri.program, &fft.basis),
        Err(CoreError::ProfileLength { .. })
    ));

    // A codec prepared for another program, or for other settings.
    let foreign = PreparedCodec::new(&fft.analysis, CodecSettings::of(&config))
        .expect("codec settings are valid");
    assert!(matches!(
        select(&tri.analysis, &foreign, &config),
        Err(CoreError::StageMismatch { .. })
    ));
    let other = config.with_overlap(OverlapHistory::Decoded);
    let codec = PreparedCodec::new(&tri.analysis, CodecSettings::of(&config))
        .expect("codec settings are valid");
    assert!(matches!(
        select(&tri.analysis, &codec, &other),
        Err(CoreError::StageMismatch { .. })
    ));
}
