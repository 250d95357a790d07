//! Run-stepped simulation against its per-fetch oracle.
//!
//! `Cpu::run_with_sink` executes whole straight-line runs and hands each
//! to its sink in one `on_run` call; a loop of `Cpu::step` executes and
//! reports one fetch at a time. On generated programs — arithmetic,
//! loads and stores that fault mid-run, forward and backward branches,
//! a callee returning to two call sites, print and exit syscalls, and a
//! step budget that cuts runs — both must give the same fetches, result
//! and CPU state. The edge recorder must fold runs exactly as it folds
//! single fetches, and both must equal a naive per-fetch edge count.

mod programs;

use std::collections::BTreeMap;

use imt_isa::asm::assemble;
use imt_isa::decode::decode;
use imt_isa::inst::Inst;
use imt_isa::program::Program;
use imt_sim::cpu::{Cpu, FetchSink};
use imt_sim::edge::{FetchEdgeProfile, FetchEdgeRecorder};
use imt_sim::SimError;
use programs::{program, shape_strategy, step_loop, Shape};
use proptest::prelude::*;

fn ends_run(word: u32) -> bool {
    let inst = decode(word).expect("text words decode");
    inst.is_control_flow() || matches!(inst, Inst::Syscall | Inst::Break)
}

/// Records every fetch; checks that only a run's last word ends a run.
#[derive(Debug, Default)]
struct Fetches {
    seen: Vec<(u32, u32)>,
    runs: usize,
}

impl FetchSink for Fetches {
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.seen.push((pc, word));
    }

    fn on_run(&mut self, pc: u32, words: &[u32]) {
        assert!(!words.is_empty(), "the core delivered an empty run");
        for (i, &word) in words.iter().enumerate() {
            assert!(
                i + 1 == words.len() || !ends_run(word),
                "run at {pc:#x} continues past a control transfer"
            );
            self.on_fetch(pc + 4 * i as u32, word);
        }
        self.runs += 1;
    }
}

/// Runs `run_with_sink` and the step loop side by side for each budget in
/// turn (later budgets resume where the earlier one stopped) and requires
/// identical fetches, results and CPU state after every call. Returns the
/// fetches and the runs that delivered them.
fn assert_core_matches_oracle(program: &Program, budgets: &[u64]) -> (usize, usize) {
    let mut runs = Cpu::new(program).expect("generated program loads");
    let mut steps = Cpu::new(program).expect("generated program loads");
    let mut run_sink = Fetches::default();
    let mut step_sink = Fetches::default();
    for &budget in budgets {
        let by_run = runs.run_with_sink(budget, &mut run_sink);
        let by_step = step_loop(&mut steps, budget, &mut step_sink);
        assert_eq!(by_run, by_step, "budget {budget}");
        assert_eq!(run_sink.seen, step_sink.seen);
        assert_eq!(runs.profile(), steps.profile());
        assert_eq!(runs.instructions(), steps.instructions());
        assert_eq!(runs.pc(), steps.pc());
        assert_eq!(runs.stdout(), steps.stdout());
        if by_run.is_ok() {
            break;
        }
    }
    (run_sink.seen.len(), run_sink.runs)
}

/// Naive per-fetch edge multiset of a fetch sequence.
fn naive_edges(text_base: u32, fetches: &[(u32, u32)]) -> BTreeMap<(usize, usize), u64> {
    let index = |pc: u32| ((pc - text_base) / 4) as usize;
    let mut edges = BTreeMap::new();
    for pair in fetches.windows(2) {
        *edges
            .entry((index(pair[0].0), index(pair[1].0)))
            .or_insert(0) += 1;
    }
    edges
}

/// Feeds a recorder one fetch at a time, with an empty run before each.
struct PerFetch<'a>(&'a mut FetchEdgeRecorder);

impl FetchSink for PerFetch<'_> {
    fn on_fetch(&mut self, pc: u32, word: u32) {
        self.0.on_run(pc, &[]);
        self.0.on_fetch(pc, word);
    }
}

/// `FetchEdgeProfile::record` (run-fed) against a recorder fed per fetch
/// by a step loop, and both against the naive edge count.
fn assert_recorder_matches_oracle(program: &Program, max_steps: u64) {
    let text_len = program.text.len();
    let mut cpu = Cpu::new(program).expect("generated program loads");
    let mut per_fetch = FetchEdgeRecorder::new(program.text_base, text_len);
    let mut fetches = Fetches::default();
    let outcome = step_loop(
        &mut cpu,
        max_steps,
        &mut imt_sim::cpu::Tee(PerFetch(&mut per_fetch), &mut fetches),
    );
    let (exit_code, stdout) = match &outcome {
        Ok(summary) => (summary.exit_code, cpu.stdout().to_string()),
        Err(_) => (0, String::new()),
    };
    let expected = per_fetch.finish(exit_code, stdout);
    let naive = naive_edges(program.text_base, &fetches.seen);
    let edges: BTreeMap<(usize, usize), u64> =
        expected.edges().map(|(s, d, w)| ((s, d), w)).collect();
    assert_eq!(edges, naive);
    assert_eq!(expected.fetches(), fetches.seen.len() as u64);
    assert_eq!(expected.per_index_counts(), cpu.profile());
    assert_eq!(
        expected.per_index_counts().iter().sum::<u64>(),
        expected.fetches()
    );
    let recorded = match &outcome {
        Ok(_) => FetchEdgeProfile::record(program, max_steps).expect("run exits"),
        Err(error) => {
            let record = FetchEdgeProfile::record(program, max_steps);
            assert_eq!(record.as_ref().err(), Some(error));
            // A failed run yields no profile; compare the folds directly.
            let mut by_run = FetchEdgeRecorder::new(program.text_base, text_len);
            let mut runs = Cpu::new(program).expect("generated program loads");
            let run = runs.run_with_sink(max_steps, &mut by_run);
            assert_eq!(run.as_ref().err(), Some(error));
            by_run.finish(0, String::new())
        }
    };
    assert_eq!(recorded.to_bytes(), expected.to_bytes());
    assert_eq!(recorded, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The run-stepped core equals the step loop, including across a
    /// budget cut and a resumed second call.
    #[test]
    fn run_stepped_core_matches_step_loop(
        shape in shape_strategy(),
        first_budget in 0u64..1500,
        second_budget in 0u64..1500,
    ) {
        let program = program(&shape);
        assert_core_matches_oracle(&program, &[first_budget, second_budget, 1_000_000]);
    }

    /// The run-folding recorder equals the per-fetch one and the naive
    /// edge count, on exiting, faulting and budget-cut runs.
    #[test]
    fn run_folding_recorder_matches_per_fetch_recording(
        shape in shape_strategy(),
        max_steps in prop_oneof![Just(1_000_000u64), 0u64..1500],
    ) {
        assert_recorder_matches_oracle(&program(&shape), max_steps);
    }
}

/// The generator reaches what the properties need: mid-run faults of
/// both kinds, budget cuts, and every ending.
#[test]
fn generated_programs_cover_faults_cuts_and_endings() {
    let shape = |body: Vec<u8>, fault_below, ending| Shape {
        body,
        callee: vec![0, 3, 4],
        iterations: 6,
        fault_below,
        ending,
    };
    let outcome = |shape: &Shape, budget| {
        let program = program(shape);
        let (fetches, runs) = assert_core_matches_oracle(&program, &[budget]);
        assert!(runs < fetches, "{runs} runs for {fetches} fetches");
        Cpu::new(&program).expect("loads").run(budget)
    };
    let unaligned = outcome(&shape(vec![0, 6, 1], 3, 0), 1_000_000);
    assert!(matches!(unaligned, Err(SimError::UnalignedAccess { .. })));
    let out_of_range = outcome(&shape(vec![0, 7, 1], 2, 0), 1_000_000);
    assert!(matches!(
        out_of_range,
        Err(SimError::AccessOutOfRange { .. })
    ));
    let cut = outcome(&shape(vec![0, 1, 2, 10, 8], 0, 0), 17);
    assert_eq!(cut, Err(SimError::MaxStepsExceeded { limit: 17 }));
    assert_eq!(
        outcome(&shape(vec![9, 11], 0, 0), 1_000_000).map(|s| s.exit_code),
        Ok(0)
    );
    assert_eq!(
        outcome(&shape(vec![9, 11], 0, 1), 1_000_000).map(|s| s.exit_code),
        Ok(3)
    );
    assert!(matches!(
        outcome(&shape(vec![5], 0, 2), 1_000_000),
        Err(SimError::PcOutOfText { .. })
    ));
    let fell_off = program(&shape(vec![5], 0, 3));
    let end = fell_off.text_end();
    assert_eq!(
        Cpu::new(&fell_off).expect("loads").run(1_000_000),
        Err(SimError::PcOutOfText { pc: end })
    );
}

/// A `jr` returning to three call sites spills past its dense slot; the
/// recorder still equals the per-fetch and naive folds.
#[test]
fn multi_target_return_matches_per_fetch_recording() {
    let program = assemble(
        r#"
        .text
f:      addiu $t0, $t0, 1
        jr    $ra
main:   li    $s0, 5
loop:   jal   f
        jal   f
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        jal   f
        move  $a0, $t0
        li    $v0, 1
        syscall
        li    $v0, 10
        syscall
"#,
    )
    .expect("assembles");
    assert_recorder_matches_oracle(&program, 1_000_000);
    let profile = FetchEdgeProfile::record(&program, 1_000_000).expect("runs");
    assert_eq!(profile.stdout(), "11");
    let returns: Vec<_> = profile.edges().filter(|&(src, _, _)| src == 1).collect();
    assert_eq!(returns.len(), 3, "{returns:?}");
    assert_eq!(returns.iter().map(|&(_, _, w)| w).sum::<u64>(), 11);
}
