//! The generated programs of the run-stepping oracles, and the per-fetch
//! `Cpu::step` loop they are checked against. Shared by the simulator's
//! `run_stepping` test and the workspace's `run_stepped_eval` test.

use imt_isa::asm::assemble;
use imt_isa::program::Program;
use imt_sim::cpu::{Cpu, FetchSink, RunSummary, StepEvent};
use imt_sim::SimError;
use proptest::prelude::*;

/// A generated program's shape: loop-body ops, callee ops, loop trip
/// count, the counter value below which the faulting ops fault, and how
/// the program ends.
#[derive(Debug, Clone)]
pub struct Shape {
    pub body: Vec<u8>,
    pub callee: Vec<u8>,
    pub iterations: u32,
    pub fault_below: u32,
    pub ending: u8,
}

pub fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        proptest::collection::vec(0u8..12, 1..24),
        proptest::collection::vec(0u8..6, 0..8),
        1u32..12,
        0u32..14,
        0u8..4,
    )
        .prop_map(|(body, callee, iterations, fault_below, ending)| Shape {
            body,
            callee,
            iterations,
            fault_below,
            ending,
        })
}

/// One straight-line op on `$t0..$t5`, with `$s1` pointing at `buf`.
/// Ops 0–5 never fault; the callee draws only from those.
fn push_op(src: &mut String, op: u8, i: usize, fault_below: u32) {
    let (a, b) = (i % 6, (i + 1) % 6);
    let off = 4 * (i % 16);
    let line = match op {
        0 => format!("addu $t{a}, $t{b}, $s0\n"),
        1 => format!("xor $t{a}, $t{b}, $s1\n"),
        2 => format!("sll $t{a}, $t{b}, {}\n", i % 31 + 1),
        3 => format!("sw $t{a}, {off}($s1)\n"),
        4 => format!("lw $t{a}, {off}($s1)\n"),
        5 => format!("sh $t{a}, {}($s1)\nlbu $t{b}, {}($s1)\n", off + 2, off + 1),
        // Unaligned word load once the counter drops below the threshold.
        6 => format!(
            "sltiu $t6, $s0, {fault_below}\nsll $t6, $t6, 1\naddu $t6, $t6, $s1\nlw $t7, 0($t6)\n"
        ),
        // Store above user space once the counter drops below the threshold.
        7 => format!("sltiu $t6, $s0, {fault_below}\nsll $t6, $t6, 31\nsw $t{a}, 0($t6)\n"),
        8 => format!("move $a0, $t{a}\nli $v0, 1\nsyscall\n"),
        9 => format!("bne $t{a}, $zero, fwd{i}\naddiu $t{b}, $t{b}, 1\nfwd{i}:\n"),
        10 => "jal f\n".to_string(),
        _ => "li $a0, 46\nli $v0, 11\nsyscall\n".to_string(),
    };
    src.push_str(&line);
}

/// Assembles `shape`: the callee `f` first, then `main` with its counted
/// loop, a second call to `f` after the loop, a print, and one of four
/// endings — `exit`, `exit2`, `break`, or falling off the end of text.
pub fn program(shape: &Shape) -> Program {
    let mut src = String::from(".data\nbuf: .space 64\n.text\nf:\n");
    for (i, &op) in shape.callee.iter().enumerate() {
        push_op(&mut src, op, i, 0);
    }
    src.push_str("jr $ra\nmain: la $s1, buf\n");
    src.push_str(&format!("li $s0, {}\nloop:\n", shape.iterations));
    for (i, &op) in shape.body.iter().enumerate() {
        push_op(&mut src, op, i, shape.fault_below);
    }
    src.push_str("addiu $s0, $s0, -1\nbgtz $s0, loop\njal f\n");
    src.push_str("move $a0, $t0\nli $v0, 1\nsyscall\n");
    src.push_str(match shape.ending {
        0 => "li $v0, 10\nsyscall\n",
        1 => "li $a0, 3\nli $v0, 17\nsyscall\n",
        2 => "break\n",
        _ => "addu $t1, $t1, $t2\nxor $t2, $t2, $t1\n",
    });
    assemble(&src).unwrap_or_else(|e| panic!("generated program must assemble: {e}\n{src}"))
}

/// The per-fetch reference for `Cpu::run_with_sink`.
pub fn step_loop<S: FetchSink>(
    cpu: &mut Cpu,
    max_steps: u64,
    sink: &mut S,
) -> Result<RunSummary, SimError> {
    for _ in 0..max_steps {
        if let StepEvent::Exited(exit_code) = cpu.step(sink)? {
            return Ok(RunSummary {
                exit_code,
                instructions: cpu.instructions(),
            });
        }
    }
    Err(SimError::MaxStepsExceeded { limit: max_steps })
}
