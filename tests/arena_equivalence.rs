//! Differential oracle suite for the encoder arena.
//!
//! Three layers of evidence that every competing scheme is scored
//! honestly:
//!
//! 1. **Codec round-trips** (proptest): on arbitrary words, each fast
//!    codec path restores exactly what it stored and agrees bit-for-bit
//!    with its in-crate naive oracle.
//! 2. **Replay ≡ full simulation**: for every memoryless scheme, on
//!    every paper kernel (TT at block sizes 4–7), the closed-form
//!    profile replay produces the *same* [`SchemeEvaluation`] as
//!    actually running the program — the replay shortcut buys time, not
//!    different numbers.
//! 3. **Cycle-state refusal**: bus-invert depends on per-cycle bus
//!    history a weighted edge multiset cannot carry; the replay path
//!    must refuse it with a typed error and the auto router must send
//!    it to full simulation.

use imt::bitcode::businvert::{BusInvertNaive, BusInvertState};
use imt::bitcode::gray::{gray_image, gray_word, gray_word_naive, ungray_word, ungray_word_naive};
use imt::bitcode::lowweight::{low_weight_codewords, low_weight_codewords_naive, LowWeightBook};
use imt::core::eval::{EvalNeeds, EvalPath, FullSimReason};
use imt::core::scheme::{
    build_scheme, evaluate_scheme_auto, evaluate_scheme_full, evaluate_scheme_replay, SchemeSpec,
};
use imt::core::{CoreError, EncoderConfig};
use imt::kernels::Kernel;
use imt::sim::edge::FetchEdgeProfile;
use proptest::prelude::*;

proptest! {
    /// Gray coding round-trips any word, and the fast paths agree with
    /// the naive shift-fold oracles.
    #[test]
    fn gray_roundtrips_and_matches_naive(words in proptest::collection::vec(any::<u32>(), 1..64)) {
        for &word in &words {
            let g = gray_word(word);
            prop_assert_eq!(g, gray_word_naive(word));
            prop_assert_eq!(ungray_word(g), word);
            prop_assert_eq!(ungray_word_naive(g), word);
        }
        let image = gray_image(&words);
        for (stored, &orig) in image.iter().zip(&words) {
            prop_assert_eq!(ungray_word(*stored), orig);
        }
    }

    /// A codebook built from arbitrary text round-trips every word of
    /// that text — CAM hits and passthrough misses alike — and the fast
    /// encode/decode agree with the linear-scan oracles.
    #[test]
    fn lowweight_roundtrips_and_matches_naive(
        text in proptest::collection::vec(any::<u32>(), 1..64),
        counts in proptest::collection::vec(1u64..1000, 1..64),
        entries in 1usize..24,
    ) {
        let per_index: Vec<u64> =
            text.iter().enumerate().map(|(i, _)| counts[i % counts.len()]).collect();
        let book = LowWeightBook::build(&text, &per_index, entries);
        for &word in &text {
            let stored = book.encode_word(word);
            prop_assert_eq!(stored, book.encode_word_naive(word));
            prop_assert_eq!(book.decode_word(stored), word);
            prop_assert_eq!(book.decode_word_naive(stored), word);
        }
    }

    /// The Gosper-walk codeword generator agrees with the recursive
    /// oracle for any forbidden set.
    #[test]
    fn lowweight_codewords_match_naive(
        forbidden in proptest::collection::vec(any::<u32>(), 0..40),
        count in 0usize..40,
    ) {
        prop_assert_eq!(
            low_weight_codewords(&forbidden, count),
            low_weight_codewords_naive(&forbidden, count)
        );
    }

    /// Bus-invert restores every word it drives, and the incremental
    /// state machine agrees with the naive recount at each step.
    #[test]
    fn businvert_roundtrips_and_matches_naive(
        words in proptest::collection::vec(any::<u32>(), 1..128),
    ) {
        let mut fast = BusInvertState::new();
        let mut naive = BusInvertNaive::new();
        for &word in &words {
            let a = fast.drive(word);
            let b = naive.drive(word);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(BusInvertState::restore(&a), word);
        }
    }
}

/// Profile one kernel at test scale.
fn kernel_fixture(kernel: Kernel) -> (imt::isa::Program, FetchEdgeProfile, u64) {
    let spec = kernel.test_spec();
    let program = spec.assemble();
    let profile =
        FetchEdgeProfile::record(&program, spec.max_steps).expect("kernel profiles cleanly");
    (program, profile, spec.max_steps)
}

/// Replay ≡ full simulation for every memoryless scheme on every paper
/// kernel; TT/BBIT swept over the paper's block sizes (the only scheme
/// `k` parameterises).
#[test]
fn replay_equals_full_sim_for_every_memoryless_scheme_on_every_kernel() {
    for &kernel in &Kernel::ALL {
        let (program, profile, max_steps) = kernel_fixture(kernel);
        let per_index = profile.per_index_counts();
        let mut cases: Vec<(String, SchemeSpec, EncoderConfig)> = vec![
            ("gray".into(), SchemeSpec::Gray, EncoderConfig::default()),
            (
                "lowweight".into(),
                SchemeSpec::LowWeight {
                    entries: SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES,
                },
                EncoderConfig::default(),
            ),
        ];
        for k in 4..=7 {
            cases.push((
                format!("tt-k{k}"),
                SchemeSpec::TtBbit,
                EncoderConfig::default()
                    .with_block_size(k)
                    .expect("paper block sizes are valid"),
            ));
        }
        for (label, spec, config) in cases {
            let mut scheme = build_scheme(spec, &program, &per_index, &config)
                .unwrap_or_else(|e| panic!("{kernel:?}/{label}: build failed: {e}"));
            let replayed = evaluate_scheme_replay(scheme.as_ref(), &program, &profile)
                .unwrap_or_else(|e| panic!("{kernel:?}/{label}: replay failed: {e}"));
            let full = evaluate_scheme_full(scheme.as_mut(), &program, max_steps)
                .unwrap_or_else(|e| panic!("{kernel:?}/{label}: full sim failed: {e}"));
            assert_eq!(
                replayed, full,
                "{kernel:?}/{label}: replay diverged from full simulation"
            );
            assert_eq!(replayed.decode_mismatches, 0, "{kernel:?}/{label}");
        }
    }
}

/// The stateless replay path refuses the cycle-state scheme with a typed
/// error on every kernel, and the auto router sends it to full
/// simulation for the same reason.
#[test]
fn cycle_state_scheme_is_refused_by_replay_on_every_kernel() {
    for &kernel in &Kernel::ALL {
        let (program, profile, max_steps) = kernel_fixture(kernel);
        let per_index = profile.per_index_counts();
        let mut scheme = build_scheme(
            SchemeSpec::BusInvert,
            &program,
            &per_index,
            &EncoderConfig::default(),
        )
        .expect("bus-invert build is total");
        let refused = evaluate_scheme_replay(scheme.as_ref(), &program, &profile);
        assert!(
            matches!(refused, Err(CoreError::ReplayInfeasible { .. })),
            "{kernel:?}: cycle-state replay must be ReplayInfeasible, got {refused:?}"
        );
        let (evaluation, path) = evaluate_scheme_auto(
            scheme.as_mut(),
            &program,
            max_steps,
            Some(&profile),
            EvalNeeds::transitions_only(),
        )
        .unwrap_or_else(|e| panic!("{kernel:?}: auto eval failed: {e}"));
        assert_eq!(
            path,
            EvalPath::FullSim(FullSimReason::ReplayInfeasible),
            "{kernel:?}: the auto router must route bus-invert to full simulation"
        );
        assert_eq!(evaluation.decode_mismatches, 0, "{kernel:?}");
    }
}

/// Every scheme's reduction reads the same in both result shapes — the
/// arena's `SchemeEvaluation` and the `Evaluation` that serving returns —
/// including when an encoding adds transitions (Gray on mmul), where the
/// pipeline shape used to subtract in `u64`.
#[test]
fn reduction_percent_agrees_across_result_shapes_on_every_kernel() {
    let mut negative = 0;
    for &kernel in &Kernel::ALL {
        let (program, profile, max_steps) = kernel_fixture(kernel);
        let per_index = profile.per_index_counts();
        for spec in SchemeSpec::ALL {
            let mut scheme = build_scheme(spec, &program, &per_index, &EncoderConfig::default())
                .unwrap_or_else(|e| panic!("{kernel:?}/{}: build failed: {e}", spec.name()));
            let (evaluation, _) = evaluate_scheme_auto(
                scheme.as_mut(),
                &program,
                max_steps,
                Some(&profile),
                EvalNeeds::transitions_only(),
            )
            .unwrap_or_else(|e| panic!("{kernel:?}/{}: eval failed: {e}", spec.name()));
            let percent = evaluation.reduction_percent();
            assert_eq!(
                evaluation.to_evaluation().reduction_percent(),
                percent,
                "{kernel:?}/{}",
                spec.name()
            );
            negative += usize::from(percent < 0.0);
        }
    }
    assert!(negative > 0, "no scheme added transitions on any kernel");
}
