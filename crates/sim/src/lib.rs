//! # imt-sim — in-order functional simulator with bus monitoring
//!
//! The paper measures bit transitions on the data bus between instruction
//! memory and a "typical embedded processor front-end, which fetches and
//! executes instructions in order and one at a time" (its §8), using a
//! modified SimpleScalar. This crate is that substrate, built from scratch
//! for the [`imt-isa`](imt_isa) instruction set:
//!
//! * [`mem`] — a sparse paged byte-addressable memory;
//! * [`cpu`] — the single-issue functional core: decoded-text execution
//!   one straight-line run at a time, SPIM-style syscalls,
//!   per-instruction profiling, and a fetch hook ([`cpu::FetchSink`])
//!   through which every fetched `(pc, word)` pair streams in program
//!   order;
//! * [`bus`] — transition monitors for the instruction data bus and the
//!   address bus, plus the analytic energy model (`E = ½·C·V²` per
//!   transition per line);
//! * [`edge`] — the fetch stream folded into a weighted multiset of
//!   consecutive `(pc_prev → pc)` edges, the input to `imt-core`'s
//!   O(static) replay evaluator and its on-disk profile cache;
//! * [`icache`] — a set-associative LRU instruction cache and a two-bus
//!   hierarchy model for the paper's storage-type claim (§8);
//! * [`stats`] — dynamic instruction-mix accounting;
//! * [`timing`] — a first-order front-end cycle model (redirect bubbles +
//!   cache stalls) for the paper's no-added-stage claim;
//! * [`trace`] — a bounded head/tail execution trace recorder.
//!
//! ## Quick example
//!
//! ```
//! use imt_isa::asm::assemble;
//! use imt_sim::bus::DataBusMonitor;
//! use imt_sim::cpu::Cpu;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(r#"
//!         .text
//! main:   li   $t0, 10
//!         li   $t1, 0
//! loop:   addu $t1, $t1, $t0
//!         addiu $t0, $t0, -1
//!         bgtz $t0, loop
//!         li   $v0, 1          # print_int
//!         move $a0, $t1
//!         syscall
//!         li   $v0, 10         # exit
//!         syscall
//! "#)?;
//! let mut cpu = Cpu::new(&program)?;
//! let mut bus = DataBusMonitor::new(32);
//! let summary = cpu.run_with_sink(1_000_000, &mut bus)?;
//! assert_eq!(cpu.stdout(), "55");
//! assert!(summary.instructions > 30);
//! assert!(bus.total_transitions() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Run stepping
//!
//! [`Cpu::run_with_sink`] executes a straight-line run — up to and
//! including the next control transfer, `syscall` or `break`, or the last
//! text word — without per-instruction PC checks, then hands it to the
//! sink in one [`FetchSink::on_run`] call: `words[i]` was fetched from
//! `pc + 4*i`. A run that faults ends with the faulting fetch; a run cut
//! by the step limit holds exactly the fetches the limit allowed. The
//! default `on_run` feeds each fetch to [`FetchSink::on_fetch`] in order,
//! so per-fetch sinks see the sequence [`Cpu::step`] would give them.
//! [`edge::FetchEdgeRecorder`] overrides it to fold a run in O(1), and
//! [`bus::DataBusMonitor`] to count a run in one slice pass
//! ([`bus::DataBusMonitor::observe_run`], two transition words per SWAR
//! step); `imt-core`'s full-simulation sinks build on it to count,
//! restore and check a run at a time. `Cpu::step` stays the per-fetch
//! reference; `tests/run_stepping.rs` proves the two equal on generated
//! programs.

// Library code must not panic on caller input: unwraps are reserved for
// tests (see clippy.toml), and fallible paths return typed errors.
#![warn(clippy::unwrap_used)]

pub mod bus;
pub mod cpu;
pub mod edge;
pub mod icache;
pub mod mem;
pub mod stats;
pub mod timing;
pub mod trace;

mod error;

pub use cpu::{Cpu, FetchSink, RunSummary};
pub use error::SimError;
