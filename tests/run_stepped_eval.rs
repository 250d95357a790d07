//! Run-stepped full-simulation evaluation against a per-fetch reference.
//!
//! `evaluate` and `evaluate_scheme_full` hand their sinks whole
//! straight-line runs: the bus monitors count a run in one pass, the TT
//! decoder restores it segment by segment, and a scheme drives it in one
//! call. The reference here rebuilds both evaluations from the public
//! per-fetch pieces only — `DataBusMonitor::observe`,
//! `FetchDecoder::on_fetch` and `Encoder::sim_fetch` — driven by a
//! `Cpu::step` loop. On generated programs (faults mid-run, budget cuts,
//! a callee returning to two call sites) and on the six kernels at test
//! scale, under TT at k = 2..7 with both overlap modes, Gray, low-weight
//! and bus-invert, both must give equal results and equal simulator
//! errors, and a corrupted image or TT entry must fail at the same fetch
//! with the same words.

#[path = "../crates/sim/tests/programs/mod.rs"]
mod programs;

use imt::bitcode::block::OverlapHistory;
use imt::bitcode::Transform;
use imt::core::eval::{evaluate, Evaluation};
use imt::core::hardware::{FetchDecoder, TransformationTable};
use imt::core::pipeline::BUS_WIDTH;
use imt::core::scheme::{
    build_scheme, evaluate_scheme_full, Encoder, SchemeEvaluation, SchemeSpec, TtBbitScheme,
};
use imt::core::{encode_program, CoreError, EncodedProgram, EncoderConfig};
use imt::isa::program::Program;
use imt::kernels::Kernel;
use imt::sim::bus::DataBusMonitor;
use imt::sim::cpu::{Cpu, FetchSink};
use programs::{program, shape_strategy, step_loop};
use proptest::prelude::*;

/// The per-fetch decode check: the first restored word that differs.
#[derive(Default)]
struct Check {
    mismatches: u64,
    first: Option<CoreError>,
}

impl Check {
    fn fetch(&mut self, pc: u32, decoded: u32, expected: u32) {
        if decoded != expected {
            self.mismatches += 1;
            self.first.get_or_insert(CoreError::DecodeMismatch {
                pc,
                decoded,
                expected,
            });
        }
    }
}

/// `evaluate`'s sink, one fetch at a time.
struct TtReference<'a> {
    encoded: &'a EncodedProgram,
    baseline: DataBusMonitor,
    stored: DataBusMonitor,
    decoder: FetchDecoder,
    check: Check,
}

impl FetchSink for TtReference<'_> {
    fn on_fetch(&mut self, pc: u32, word: u32) {
        let stored = self.encoded.text[((pc - self.encoded.text_base) / 4) as usize];
        self.baseline.observe(u64::from(word));
        self.stored.observe(u64::from(stored));
        let decoded = self.decoder.on_fetch(pc, stored);
        self.check.fetch(pc, decoded, word);
    }
}

/// `evaluate` rebuilt from per-fetch pieces.
fn evaluate_per_fetch(
    program: &Program,
    encoded: &EncodedProgram,
    max_steps: u64,
) -> Result<Evaluation, CoreError> {
    let mut cpu = Cpu::new(program)?;
    let mut sink = TtReference {
        encoded,
        baseline: DataBusMonitor::new(BUS_WIDTH),
        stored: DataBusMonitor::new(BUS_WIDTH),
        decoder: FetchDecoder::new(
            &encoded.tt,
            &encoded.bbit,
            BUS_WIDTH,
            encoded.config.block_size(),
            encoded.config.overlap(),
        ),
        check: Check::default(),
    };
    let summary = step_loop(&mut cpu, max_steps, &mut sink)?;
    if let Some(error) = sink.check.first {
        return Err(error);
    }
    Ok(Evaluation {
        fetches: summary.instructions,
        baseline_transitions: sink.baseline.total_transitions(),
        encoded_transitions: sink.stored.total_transitions(),
        per_lane_baseline: sink.baseline.per_lane(),
        per_lane_encoded: sink.stored.per_lane(),
        decode_mismatches: sink.check.mismatches,
        decoded_fetches: sink.decoder.decoded_fetches(),
        passthrough_fetches: sink.decoder.passthrough_fetches(),
        exit_code: summary.exit_code,
        stdout: cpu.stdout().to_string(),
    })
}

/// `evaluate_scheme_full`'s sink, one fetch at a time.
struct SchemeReference<'a> {
    scheme: &'a mut dyn Encoder,
    stored: Vec<u32>,
    text_base: u32,
    baseline: DataBusMonitor,
    driven: DataBusMonitor,
    extra: u64,
    decoded_fetches: u64,
    check: Check,
}

impl FetchSink for SchemeReference<'_> {
    fn on_fetch(&mut self, pc: u32, word: u32) {
        let stored = self.stored[((pc - self.text_base) / 4) as usize];
        self.baseline.observe(u64::from(word));
        let step = self.scheme.sim_fetch(pc, stored);
        self.driven.observe(u64::from(step.driven));
        self.extra += step.extra_transitions;
        self.decoded_fetches += u64::from(stored != word);
        self.check.fetch(pc, step.restored, word);
    }
}

/// `evaluate_scheme_full` rebuilt from per-fetch pieces, for a scheme
/// other than TT/BBIT.
fn evaluate_scheme_per_fetch(
    scheme: &mut dyn Encoder,
    program: &Program,
    max_steps: u64,
) -> Result<SchemeEvaluation, CoreError> {
    scheme.reset();
    let mut cpu = Cpu::new(program)?;
    let mut sink = SchemeReference {
        stored: scheme.stored_image().to_vec(),
        scheme,
        text_base: program.text_base,
        baseline: DataBusMonitor::new(BUS_WIDTH),
        driven: DataBusMonitor::new(BUS_WIDTH),
        extra: 0,
        decoded_fetches: 0,
        check: Check::default(),
    };
    let summary = step_loop(&mut cpu, max_steps, &mut sink)?;
    if let Some(error) = sink.check.first {
        return Err(error);
    }
    Ok(SchemeEvaluation {
        fetches: summary.instructions,
        baseline_transitions: sink.baseline.total_transitions(),
        encoded_transitions: sink.driven.total_transitions() + sink.extra,
        per_lane_baseline: sink.baseline.per_lane(),
        per_lane_encoded: sink.driven.per_lane(),
        extra_line_transitions: sink.extra,
        decoded_fetches: sink.decoded_fetches,
        decode_mismatches: sink.check.mismatches,
        exit_code: summary.exit_code,
        stdout: cpu.stdout().to_string(),
    })
}

/// The TT/BBIT configurations: k = 2..7 under both overlap modes.
fn tt_configs() -> Vec<EncoderConfig> {
    (2..=7)
        .flat_map(|k| {
            [OverlapHistory::Stored, OverlapHistory::Decoded].map(|overlap| {
                EncoderConfig::default()
                    .with_block_size(k)
                    .expect("k is in range")
                    .with_overlap(overlap)
            })
        })
        .collect()
}

const SCHEMES: [SchemeSpec; 3] = [
    SchemeSpec::Gray,
    SchemeSpec::LowWeight {
        entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
    },
    SchemeSpec::BusInvert,
];

/// Per-index fetch counts of a run of up to `max_steps` (a faulting or
/// cut run still counts what it fetched).
fn profile(program: &Program, max_steps: u64) -> Vec<u64> {
    let mut cpu = Cpu::new(program).expect("program loads");
    let _ = cpu.run(max_steps);
    cpu.profile().to_vec()
}

/// Scores `program` under the TT configurations `configs` and the other
/// schemes, run-stepped and per fetch, and requires equal outcomes.
/// Returns the TT fetches restored through a schedule, so callers can
/// check that the schedules were exercised.
fn assert_run_stepped_matches_per_fetch(
    program: &Program,
    max_steps: u64,
    configs: &[EncoderConfig],
) -> u64 {
    let per_index = profile(program, max_steps);
    let mut decoded = 0;
    for config in configs {
        let encoded = encode_program(program, &per_index, config).expect("program encodes");
        let reference = evaluate_per_fetch(program, &encoded, max_steps);
        assert_eq!(
            evaluate(program, &encoded, max_steps),
            reference,
            "TT k={} {:?}",
            config.block_size(),
            config.overlap()
        );
        decoded += reference.as_ref().map_or(0, |e| e.decoded_fetches);
        // The scheme router's TT route is `evaluate` in the common shape.
        let mut scheme = TtBbitScheme::new(encoded);
        let reference = reference.map(|e| SchemeEvaluation {
            fetches: e.fetches,
            baseline_transitions: e.baseline_transitions,
            encoded_transitions: e.encoded_transitions,
            per_lane_baseline: e.per_lane_baseline,
            per_lane_encoded: e.per_lane_encoded,
            extra_line_transitions: 0,
            decoded_fetches: e.decoded_fetches,
            decode_mismatches: e.decode_mismatches,
            exit_code: e.exit_code,
            stdout: e.stdout,
        });
        assert_eq!(
            evaluate_scheme_full(&mut scheme, program, max_steps),
            reference
        );
    }
    for spec in SCHEMES {
        let mut scheme = build_scheme(spec, program, &per_index, &EncoderConfig::default())
            .expect("scheme builds");
        let reference = evaluate_scheme_per_fetch(scheme.as_mut(), program, max_steps);
        assert_eq!(
            evaluate_scheme_full(scheme.as_mut(), program, max_steps),
            reference,
            "{}",
            spec.name()
        );
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated programs that exit, fault mid-run or run out of budget,
    /// each under one of the TT configurations. A failed run discards its
    /// evaluation, so half the shapes are made to exit: no faulting op
    /// fires and the program ends in `exit` or `exit2`.
    #[test]
    fn run_stepped_evaluation_matches_per_fetch_on_generated_programs(
        mut shape in shape_strategy(),
        exits in any::<bool>(),
        max_steps in prop_oneof![Just(1_000_000u64), 0u64..1500],
        config in 0usize..12,
    ) {
        if exits {
            shape.fault_below = 0;
            shape.ending %= 2;
        }
        let config = tt_configs()[config];
        assert_run_stepped_matches_per_fetch(&program(&shape), max_steps, &[config]);
    }
}

#[test]
fn run_stepped_evaluation_matches_per_fetch_on_every_kernel() {
    for kernel in Kernel::ALL {
        let spec = kernel.test_spec();
        let decoded =
            assert_run_stepped_matches_per_fetch(&spec.assemble(), spec.max_steps, &tt_configs());
        assert!(
            decoded > 0,
            "{}: no fetch went through a schedule",
            spec.name
        );
    }
}

/// Complements every lane's transform of `entry`: every chained fetch
/// through it restores every line wrong.
fn corrupt_tt_entry(encoded: &mut EncodedProgram, entry: usize) {
    let mut tt = TransformationTable::new();
    for (index, clean) in encoded.tt.entries().iter().enumerate() {
        let mut clean = clean.clone();
        if index == entry {
            for transform in &mut clean.lane_transforms {
                *transform = Transform::from_table(!transform.table());
            }
        }
        tt.push(clean);
    }
    encoded.tt = tt;
}

#[test]
fn corrupted_images_and_tables_fail_at_the_same_fetch() {
    for kernel in Kernel::ALL {
        let spec = kernel.test_spec();
        let program = spec.assemble();
        let per_index = profile(&program, spec.max_steps);
        for config in tt_configs() {
            let encoded = encode_program(&program, &per_index, &config).expect("kernel encodes");
            let hot = &encoded.report.encoded[0];
            let mut image = encoded.clone();
            image.text[(hot.start_pc - encoded.text_base) as usize / 4 + 1] ^= 1 << 7;
            let mut table = encoded.clone();
            let entry = encoded
                .bbit
                .entries()
                .iter()
                .find(|entry| entry.pc == hot.start_pc)
                .expect("the hottest block has a BBIT entry")
                .tt_index;
            // The entry's first fetch is a seed; a one-fetch entry is
            // followed by its block's next entry.
            let entry = entry + usize::from(encoded.tt.entries()[entry].covers == 1);
            corrupt_tt_entry(&mut table, entry);
            for corrupted in [&image, &table] {
                let reference = evaluate_per_fetch(&program, corrupted, spec.max_steps);
                assert!(
                    matches!(reference, Err(CoreError::DecodeMismatch { .. })),
                    "{} k={}: {reference:?}",
                    spec.name,
                    config.block_size()
                );
                assert_eq!(evaluate(&program, corrupted, spec.max_steps), reference);
            }
        }
    }
}
