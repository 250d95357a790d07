//! The encoder arena grid (E-A): every scheme × every kernel, one
//! shared currency.
//!
//! For each kernel this module scores the full roster of
//! [`imt_core::scheme`] encoders — TT/BBIT at block sizes 4–7, Gray
//! sequencing, the low-weight codebook, and bus-invert — against one
//! recorded fetch-edge profile, prices each in storage bits and
//! transition counts, marks the reduction-vs-hardware Pareto front, and
//! runs the per-lane auto-selector under the TT schedule's own hardware
//! budget. Every scheme, TT/BBIT included, goes through the one auto
//! router, [`imt_core::eval::evaluate_auto`]: static schemes replay
//! closed-form, and bus-invert (per-cycle state) is routed to full
//! simulation — the arena never lets a stateful scheme be silently
//! scored by the stateless replay path.
//!
//! Everything here is deterministic: kernels fan out over
//! [`par_map_coarse`] and merge in index order, so `exp_arena`'s output
//! and the grid in `results/BENCH_arena.json` are byte-stable across
//! thread counts (the JSON also records the host's `threads`).

use imt_bitcode::businvert::{BusInvertNaive, BusInvertState};
use imt_bitcode::gray::{gray_word, gray_word_naive, ungray_word, ungray_word_naive};
use imt_bitcode::par::par_map_coarse;
use imt_core::eval::{evaluate_auto, EvalNeeds, EvalPath, Evaluation};
use imt_core::hardware::HardwareBudget;
use imt_core::scheme::{
    auto_select, build_scheme, composite_image, tt_lane_split, verify_composite_decode,
    AutoSelection, Encoder, GrayScheme, LaneChoice, LaneCosts, LowWeightScheme, SchemeSpec,
    WholeBusCandidate,
};
use imt_core::{encode_program, EncoderConfig};
use imt_kernels::Kernel;
use imt_obs::json::Json;

use crate::runner::{kernel_profile, KernelProfile, Scale};

/// TT block sizes the arena sweeps (the paper's Figure 6 range).
pub const TT_BLOCK_SIZES: std::ops::RangeInclusive<usize> = 4..=7;

/// One scheme's row in a kernel's arena table.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaRow {
    /// Display label (`tt-k5`, `gray`, `lowweight-16`, `businvert`).
    pub label: String,
    /// Scheme family name (matches [`SchemeSpec::name`]).
    pub scheme: &'static str,
    /// TT block size, for the TT rows.
    pub block_size: Option<usize>,
    /// Table/CAM storage bits.
    pub storage_bits: u64,
    /// Extra bus lines beyond the 32 data lanes.
    pub extra_lines: u32,
    /// Restore-logic gate estimate.
    pub restore_gates: u64,
    /// The evaluation (replayed or fully simulated).
    pub evaluation: Evaluation,
    /// Which path scored it (`"replay"` or `"full-sim"`).
    pub path: &'static str,
    /// Whether the row sits on the reduction-vs-storage Pareto front.
    pub pareto: bool,
}

impl ArenaRow {
    /// Reduction percentage of this row.
    pub fn reduction_percent(&self) -> f64 {
        self.evaluation.reduction_percent()
    }
}

/// The auto-selector's outcome for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoOutcome {
    /// The raw selection.
    pub selection: AutoSelection,
    /// `"composite"` or the winning whole-bus scheme's name.
    pub winner: String,
    /// Per-lane choice string, lane 31 first (`B`/`T`/`G`), for
    /// composite winners.
    pub lane_map: String,
    /// Label of the TT row donating lane columns to the composite.
    pub tt_donor: String,
    /// Whether the composite image passed the static decode proof
    /// (trivially true for whole-bus winners, which carry their own).
    pub composite_verified: bool,
}

impl AutoOutcome {
    /// Reduction percentage of the selection.
    pub fn reduction_percent(&self) -> f64 {
        self.selection.reduction_percent()
    }
}

/// One kernel's complete arena result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelArena {
    /// Kernel short name.
    pub kernel: &'static str,
    /// Parameterised instance name.
    pub instance: String,
    /// Instructions fetched.
    pub fetches: u64,
    /// Baseline bus transitions.
    pub baseline_transitions: u64,
    /// The shared storage budget the auto-selector ran under (the best
    /// TT schedule's own table bill).
    pub budget_bits: u64,
    /// Every scheme's row, Pareto flags filled in.
    pub rows: Vec<ArenaRow>,
    /// Index into `rows` of the best single scheme (most transitions
    /// eliminated; ties toward fewer storage bits).
    pub best_single: usize,
    /// The auto-selector's outcome.
    pub auto: AutoOutcome,
    /// Fast-vs-naive oracle comparisons performed (every stored word of
    /// every scheme, plus the bus-invert dynamic cross-check).
    pub oracle_checks: u64,
}

impl KernelArena {
    /// The best single scheme's row.
    pub fn best_row(&self) -> &ArenaRow {
        &self.rows[self.best_single]
    }
}

/// Checks every in-crate fast/naive oracle pair over this kernel's words
/// and returns the number of comparisons made.
///
/// # Panics
///
/// Panics on the first disagreement — an arena built on a codec whose
/// fast path has drifted from its reference must not produce numbers.
fn verify_static_oracles(profile: &KernelProfile, lowweight: &LowWeightScheme) -> u64 {
    let mut checks = 0u64;
    for &word in &profile.program.text {
        let g = gray_word(word);
        assert_eq!(g, gray_word_naive(word), "gray encode oracle: {word:#010x}");
        assert_eq!(ungray_word(g), word, "gray round trip: {word:#010x}");
        assert_eq!(
            ungray_word_naive(g),
            word,
            "gray decode oracle: {word:#010x}"
        );
        let book = lowweight.book();
        let stored = book.encode_word(word);
        assert_eq!(
            stored,
            book.encode_word_naive(word),
            "lowweight encode oracle: {word:#010x}"
        );
        assert_eq!(
            book.decode_word(stored),
            word,
            "lowweight round trip: {word:#010x}"
        );
        assert_eq!(
            book.decode_word_naive(stored),
            word,
            "lowweight decode oracle: {word:#010x}"
        );
        checks += 6;
    }
    // Bus-invert: drive the static image through both step functions.
    let mut fast = BusInvertState::new();
    let mut naive = BusInvertNaive::new();
    for &word in &profile.program.text {
        let a = fast.drive(word);
        let b = naive.drive(word);
        assert_eq!(a, b, "bus-invert step oracle: {word:#010x}");
        assert_eq!(BusInvertState::restore(&a), word, "bus-invert restore");
        checks += 2;
    }
    checks
}

/// Cross-checks the bus-invert evaluation against the independent
/// [`imt_baselines::BusInvert`] monitor riding the same simulation.
///
/// # Panics
///
/// Panics if the two implementations disagree on either total.
fn cross_check_businvert(profile: &KernelProfile, eval: &Evaluation) -> u64 {
    let mut monitor = imt_baselines::BusInvert::new(32);
    let mut cpu = imt_sim::Cpu::new(&profile.program).expect("load failed");
    cpu.run_with_sink(profile.spec.max_steps, &mut monitor)
        .expect("bus-invert cross-check run failed");
    assert_eq!(
        eval.encoded_transitions,
        monitor.total_transitions(),
        "bus-invert totals diverge from imt-baselines"
    );
    assert_eq!(
        eval.baseline_transitions,
        monitor.raw_transitions(),
        "bus-invert baselines diverge from imt-baselines"
    );
    2
}

fn scheme_row(
    label: String,
    block_size: Option<usize>,
    scheme: &dyn Encoder,
    profile: &KernelProfile,
) -> ArenaRow {
    let (evaluation, path) = evaluate_auto(
        &profile.program,
        scheme,
        profile.spec.max_steps,
        Some(&profile.edges),
        EvalNeeds::transitions_only(),
    )
    .unwrap_or_else(|e| panic!("{}: {label}: evaluation failed: {e}", profile.spec.name));
    assert_eq!(
        evaluation.decode_mismatches, 0,
        "{}: {label}: decode mismatch",
        profile.spec.name
    );
    assert_eq!(
        evaluation.stdout, profile.spec.expected_output,
        "{}: {label}: behaviour changed",
        profile.spec.name
    );
    let cost = scheme.cost();
    ArenaRow {
        label,
        scheme: scheme.name(),
        block_size,
        storage_bits: cost.storage_bits,
        extra_lines: cost.extra_lines,
        restore_gates: cost.restore_gates,
        evaluation,
        path: match path {
            EvalPath::Replay => "replay",
            EvalPath::FullSim(_) => "full-sim",
        },
        pareto: false,
    }
}

/// Marks the rows on the (storage bits, encoded transitions) Pareto
/// front: a row is dominated if another row has no more storage and
/// strictly fewer transitions, or strictly less storage and no more
/// transitions.
fn mark_pareto(rows: &mut [ArenaRow]) {
    let points: Vec<(u64, u64)> = rows
        .iter()
        .map(|r| (r.storage_bits, r.evaluation.encoded_transitions))
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        let (bits, transitions) = points[i];
        row.pareto = !points.iter().enumerate().any(|(j, &(b, t))| {
            j != i && ((b <= bits && t < transitions) || (b < bits && t <= transitions))
        });
    }
}

/// Runs the full arena for one kernel.
///
/// # Panics
///
/// Panics if any scheme misbehaves (decode mismatch, changed program
/// output, oracle drift, infeasible composite) — the arena refuses to
/// rank schemes it cannot verify.
pub fn arena_kernel(kernel: Kernel, scale: Scale) -> KernelArena {
    let spec = scale.spec(kernel);
    let profile = kernel_profile(&spec);
    let _cell = imt_obs::push_label_lazy(|| format!("{}/arena", profile.spec.name));

    // TT rows: one per block size, keeping the schedules for the
    // auto-selector's donor choice.
    let mut rows: Vec<ArenaRow> = Vec::new();
    let mut tt_schedules = Vec::new();
    for k in TT_BLOCK_SIZES {
        let config = EncoderConfig::default()
            .with_block_size(k)
            .expect("block sizes 4..=7 are valid");
        let encoded = encode_program(&profile.program, &profile.profile, &config)
            .unwrap_or_else(|e| panic!("{}: k={k}: encoding failed: {e}", profile.spec.name));
        rows.push(scheme_row(format!("tt-k{k}"), Some(k), &encoded, &profile));
        tt_schedules.push(encoded);
    }

    // The k-independent competitors.
    let gray = GrayScheme::new(&profile.program);
    rows.push(scheme_row("gray".to_string(), None, &gray, &profile));
    let entries = SchemeSpec::DEFAULT_LOW_WEIGHT_ENTRIES;
    let lowweight = LowWeightScheme::new(&profile.program, &profile.profile, entries);
    rows.push(scheme_row(
        format!("lowweight-{entries}"),
        None,
        &lowweight,
        &profile,
    ));
    let businvert = build_scheme(
        SchemeSpec::BusInvert,
        &profile.program,
        &profile.profile,
        &EncoderConfig::default(),
    )
    .expect("bus-invert build is total");
    let businvert_row = scheme_row("businvert".to_string(), None, businvert.as_ref(), &profile);
    assert_eq!(
        businvert_row.path, "full-sim",
        "{}: a cycle-state scheme must never be replay-scored",
        profile.spec.name
    );
    let mut oracle_checks = cross_check_businvert(&profile, &businvert_row.evaluation);
    rows.push(businvert_row);
    oracle_checks += verify_static_oracles(&profile, &lowweight);

    // Best single scheme: most transitions eliminated, ties toward the
    // cheaper table.
    let best_single = (0..rows.len())
        .min_by_key(|&i| (rows[i].evaluation.encoded_transitions, rows[i].storage_bits))
        .expect("the arena always has rows");

    // Auto-selection under the best TT schedule's own storage bill: the
    // TT donor is the block size that eliminated the most transitions.
    let donor_index = (0..tt_schedules.len())
        .min_by_key(|&i| rows[i].evaluation.encoded_transitions)
        .expect("TT rows exist");
    let donor = &tt_schedules[donor_index];
    let donor_row = &rows[donor_index];
    let budget_bits = HardwareBudget::of_schedule(donor).total_bits();
    let (tt_lane_bits, tt_fixed_bits) = tt_lane_split(donor);
    let costs = LaneCosts {
        baseline: donor_row.evaluation.per_lane_baseline.clone(),
        tt: donor_row.evaluation.per_lane_encoded.clone(),
        gray: rows
            .iter()
            .find(|r| r.scheme == "gray")
            .expect("gray row exists")
            .evaluation
            .per_lane_encoded
            .clone(),
        tt_lane_bits,
        tt_fixed_bits,
    };
    let candidates: Vec<WholeBusCandidate> = rows
        .iter()
        .map(|row| WholeBusCandidate {
            name: row.scheme,
            storage_bits: row.storage_bits,
            transitions: row.evaluation.encoded_transitions,
        })
        .collect();
    let selection = auto_select(&costs, &candidates, budget_bits);
    assert!(
        selection.bits_used <= budget_bits,
        "{}: auto-selection exceeded its budget",
        profile.spec.name
    );

    let composite_verified = match selection.whole_bus {
        Some(_) => true, // the winner's own row already carried its proof
        None => {
            let composite = composite_image(
                &profile.program.text,
                &donor.text,
                gray.stored_image(),
                &selection.lanes,
            );
            verify_composite_decode(&profile.program, donor, &composite, &selection.lanes)
                .unwrap_or_else(|e| panic!("{}: composite decode failed: {e}", profile.spec.name));
            // The knapsack's prediction must match a direct measurement
            // of the assembled image.
            let (measured, _) = imt_core::eval::weighted_transitions(&composite, &profile.edges);
            assert_eq!(
                measured, selection.transitions,
                "{}: composite prediction drifted",
                profile.spec.name
            );
            true
        }
    };
    let lane_map: String = selection
        .lanes
        .iter()
        .rev()
        .map(|choice| match choice {
            LaneChoice::Baseline => 'B',
            LaneChoice::Tt => 'T',
            LaneChoice::Gray => 'G',
        })
        .collect();
    let auto = AutoOutcome {
        winner: selection
            .whole_bus
            .map(str::to_string)
            .unwrap_or_else(|| "composite".to_string()),
        lane_map,
        tt_donor: donor_row.label.clone(),
        composite_verified,
        selection,
    };

    mark_pareto(&mut rows);
    KernelArena {
        kernel: kernel.name(),
        instance: profile.spec.name.clone(),
        fetches: profile.edges.fetches(),
        baseline_transitions: rows[0].evaluation.baseline_transitions,
        budget_bits,
        rows,
        best_single,
        auto,
        oracle_checks,
    }
}

/// Runs the arena for every kernel, fanned out deterministically.
pub fn arena_grid(scale: Scale) -> Vec<KernelArena> {
    par_map_coarse(&Kernel::ALL, 1, |_, &kernel| arena_kernel(kernel, scale))
}

/// Renders the grid as the `results/BENCH_arena.json` document.
pub fn arena_doc(grid: &[KernelArena], scale: Scale) -> Json {
    let kernels = grid
        .iter()
        .map(|arena| {
            let rows = arena
                .rows
                .iter()
                .map(|row| {
                    let mut fields = vec![
                        ("label", Json::str(row.label.clone())),
                        ("scheme", Json::str(row.scheme)),
                        ("storage_bits", Json::U64(row.storage_bits)),
                        ("extra_lines", Json::U64(u64::from(row.extra_lines))),
                        ("restore_gates", Json::U64(row.restore_gates)),
                        (
                            "encoded_transitions",
                            Json::U64(row.evaluation.encoded_transitions),
                        ),
                        (
                            "extra_line_transitions",
                            Json::U64(row.evaluation.extra_line_transitions()),
                        ),
                        ("reduction_percent", Json::F64(row.reduction_percent())),
                        ("path", Json::str(row.path)),
                        ("pareto", Json::Bool(row.pareto)),
                    ];
                    if let Some(k) = row.block_size {
                        fields.insert(2, ("block_size", Json::U64(k as u64)));
                    }
                    Json::obj(fields)
                })
                .collect();
            Json::obj(vec![
                ("kernel", Json::str(arena.kernel)),
                ("instance", Json::str(arena.instance.clone())),
                ("fetches", Json::U64(arena.fetches)),
                (
                    "baseline_transitions",
                    Json::U64(arena.baseline_transitions),
                ),
                ("budget_bits", Json::U64(arena.budget_bits)),
                ("rows", Json::Arr(rows)),
                (
                    "best_single",
                    Json::obj(vec![
                        ("label", Json::str(arena.best_row().label.clone())),
                        (
                            "reduction_percent",
                            Json::F64(arena.best_row().reduction_percent()),
                        ),
                    ]),
                ),
                (
                    "auto",
                    Json::obj(vec![
                        ("winner", Json::str(arena.auto.winner.clone())),
                        ("tt_donor", Json::str(arena.auto.tt_donor.clone())),
                        ("lane_map", Json::str(arena.auto.lane_map.clone())),
                        ("bits_used", Json::U64(arena.auto.selection.bits_used)),
                        (
                            "encoded_transitions",
                            Json::U64(arena.auto.selection.transitions),
                        ),
                        (
                            "reduction_percent",
                            Json::F64(arena.auto.reduction_percent()),
                        ),
                        (
                            "composite_verified",
                            Json::Bool(arena.auto.composite_verified),
                        ),
                    ]),
                ),
                ("oracle_checks", Json::U64(arena.oracle_checks)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::str("arena")),
        ("scale", Json::str(scale.name())),
        (
            "threads",
            Json::U64(imt_bitcode::par::thread_count() as u64),
        ),
        (
            "simd_path",
            Json::str(imt_bitcode::simd::active_path().name()),
        ),
        ("budget_policy", Json::str("best-tt-schedule-bits")),
        ("kernels", Json::Arr(kernels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_kernel_ranks_and_verifies_at_test_scale() {
        let arena = arena_kernel(Kernel::Tri, Scale::Test);
        assert_eq!(arena.rows.len(), 7); // 4 TT + gray + lowweight + businvert
        assert!(arena.auto.composite_verified);
        assert!(arena.oracle_checks > 0);
        // Auto must be at least as good as every single scheme.
        let best = arena.best_row().evaluation.encoded_transitions;
        assert!(arena.auto.selection.transitions <= best);
        assert!(arena.auto.selection.bits_used <= arena.budget_bits);
        // The bus-invert row must have come through full simulation.
        let bi = arena
            .rows
            .iter()
            .find(|r| r.scheme == "businvert")
            .expect("businvert row");
        assert_eq!(bi.path, "full-sim");
        // At least one row is on the Pareto front by construction.
        assert!(arena.rows.iter().any(|r| r.pareto));
        // Gray costs zero bits, so nothing can dominate it on storage:
        // it is dominated only by a zero-bit row with fewer transitions.
        let gray = arena
            .rows
            .iter()
            .find(|r| r.scheme == "gray")
            .expect("gray row");
        if !gray.pareto {
            assert!(arena.rows.iter().any(|r| {
                r.storage_bits == 0
                    && r.evaluation.encoded_transitions < gray.evaluation.encoded_transitions
            }));
        }
    }

    #[test]
    fn arena_doc_stamps_scale_and_kernels() {
        let arena = vec![arena_kernel(Kernel::Ej, Scale::Test)];
        let doc = arena_doc(&arena, Scale::Test);
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("test"));
        let kernels = doc
            .get("kernels")
            .and_then(Json::as_array)
            .expect("kernels array");
        assert_eq!(kernels.len(), 1);
        let auto = kernels[0].get("auto").expect("auto object");
        assert!(auto
            .get("reduction_percent")
            .and_then(Json::as_f64)
            .is_some());
    }
}
