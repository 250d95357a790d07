//! Extension experiment **E-A**: the encoder arena.
//!
//! The paper's TT/BBIT transformation is one point in the low-power
//! instruction-bus design space. This experiment lines the roster of
//! `imt_core::scheme` encoders up against each other on the paper's six
//! kernels — TT/BBIT at block sizes 4–7, Gray sequencing, the
//! low-weight codebook, and bus-invert — prices each in storage bits,
//! marks the reduction-vs-hardware Pareto front, and runs the per-lane
//! auto-selector under the best TT schedule's own storage bill.
//!
//! Everything is scored defensively, and the checks are asserted
//! in-binary:
//!
//! * every fast codec path is bit-identical to its in-crate naive
//!   oracle on every stored word (plus an independent cross-check of
//!   bus-invert against `imt_baselines::BusInvert`);
//! * bus-invert (per-cycle bus state) is always routed to full
//!   simulation — the stateless replay path refuses it;
//! * the auto-selection never exceeds its budget, its composite image
//!   passes the static decode proof, and it is at least as good as the
//!   best single scheme on every kernel.
//!
//! The same grid as JSON, `results/BENCH_arena.json`, is written by
//! `imt arena run`.

use imt_bench::arena::{arena_grid, KernelArena};
use imt_bench::runner::Scale;

fn main() {
    let _guard = imt_bench::begin_run("exp_arena");
    experiment();
    imt_bench::finish_run("exp_arena");
}

fn experiment() {
    let scale = Scale::from_args();
    println!("E-A — encoder arena: schemes x kernels ({scale:?} scale)\n");
    let grid = arena_grid(scale);

    for arena in &grid {
        print_kernel(arena);
    }

    // The acceptance gates, asserted before anything is written.
    let kernels = grid.len();
    let oracle_checks: u64 = grid.iter().map(|a| a.oracle_checks).sum();
    assert!(grid.iter().all(|a| a.oracle_checks > 0));
    println!(
        "oracle bit-identity: ok ({oracle_checks} fast-vs-naive checks across {kernels} kernels)"
    );

    let businvert_full_sim = grid
        .iter()
        .filter(|a| {
            a.rows
                .iter()
                .any(|r| r.scheme == "businvert" && r.path == "full-sim")
        })
        .count();
    assert_eq!(
        businvert_full_sim, kernels,
        "a cycle-state scheme was scored by the stateless replay path"
    );
    println!("cycle-state replay refusal: ok (businvert full-sim routed on {businvert_full_sim}/{kernels} kernels)");

    assert!(
        grid.iter().all(|a| a.auto.composite_verified),
        "an auto-selected composite failed its static decode proof"
    );
    assert!(
        grid.iter()
            .all(|a| a.auto.selection.bits_used <= a.budget_bits),
        "an auto-selection exceeded its hardware budget"
    );
    assert!(
        grid.iter()
            .all(|a| a.auto.selection.transitions <= a.best_row().evaluation.encoded_transitions),
        "auto-select lost to a single scheme"
    );
    println!("auto-select >= best single scheme on all {kernels} kernels: ok");
}

fn print_kernel(arena: &KernelArena) {
    println!(
        "{} — {} fetches, {} baseline transitions, budget {} bits",
        arena.instance, arena.fetches, arena.baseline_transitions, arena.budget_bits
    );
    println!("  scheme          bits  +lines   gates      encoded  reduction  path      front");
    for row in &arena.rows {
        println!(
            "  {:<13} {:>6}  {:>6}  {:>6}  {:>11}  {:>8.2}%  {:<8}  {}",
            row.label,
            row.storage_bits,
            row.extra_lines,
            row.restore_gates,
            row.evaluation.encoded_transitions,
            row.reduction_percent(),
            row.path,
            if row.pareto { "*" } else { "" }
        );
    }
    let auto = &arena.auto;
    println!(
        "  best single: {} ({:.2}%)",
        arena.best_row().label,
        arena.best_row().reduction_percent()
    );
    println!(
        "  auto-select: {} ({:.2}%, {} bits, donor {}, lanes {})\n",
        auto.winner,
        auto.reduction_percent(),
        auto.selection.bits_used,
        auto.tt_donor,
        auto.lane_map
    );
}
