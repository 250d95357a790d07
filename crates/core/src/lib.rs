//! # imt-core — application-specific instruction memory transformations
//!
//! The primary contribution of the DATE 2003 paper, end to end:
//!
//! 1. **Profile** an application on the [`imt-sim`](imt_sim) core and
//!    recover its loops with [`imt-cfg`](imt_cfg).
//! 2. **Select** the hot region — the basic blocks of the major loops —
//!    subject to the capacities of the two hardware tables (§7.2): the
//!    *Transformation Table* (TT, one entry per encoded block of
//!    instructions holding a `τ` index per bus line plus the `E`/`CT` tail
//!    delimiter) and the *Basic Block Identification Table* (BBIT, mapping
//!    a basic block's start PC to its first TT entry).
//! 3. **Encode** each selected basic block: every bus line's vertical bit
//!    sequence is split into blocks of `k` bits overlapping by one
//!    (`imt-bitcode`), each assigned the optimal two-input transformation.
//!    The encoded words are what instruction memory stores.
//! 4. **Decode on fetch**: [`hardware::FetchDecoder`] is a cycle-accurate
//!    software model of the fetch-stage hardware — per-line history
//!    flip-flops, a gate selected by the TT entry, BBIT lookup at block
//!    entry — that restores the original instruction stream.
//! 5. **Evaluate**: [`eval::evaluate`] replays a real execution, feeding
//!    the baseline and encoded images through bus monitors, verifying the
//!    decoder bit-for-bit, and reporting the transition reduction (the
//!    paper's Figure 6 metric).
//!
//! ## Quick example
//!
//! ```
//! use imt_core::{encode_program, eval::evaluate, EncoderConfig};
//! use imt_isa::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(r#"
//!         .text
//! main:   li   $t0, 500
//! loop:   xor  $t1, $t1, $t0
//!         sll  $t2, $t1, 3
//!         addiu $t0, $t0, -1
//!         bgtz $t0, loop
//!         li   $v0, 10
//!         syscall
//! "#)?;
//! // Profile, select the hot loop, encode it.
//! let mut cpu = imt_sim::Cpu::new(&program)?;
//! cpu.run(100_000)?;
//! let encoded = encode_program(&program, cpu.profile(), &EncoderConfig::default())?;
//!
//! // Replay through the hardware model: decoded stream must match, and
//! // the encoded bus must switch less.
//! let eval = evaluate(&program, &encoded, 100_000)?;
//! assert_eq!(eval.decode_mismatches, 0);
//! assert!(eval.encoded_transitions < eval.baseline_transitions);
//! # Ok(())
//! # }
//! ```

// Library code must not panic on caller input: unwraps are reserved for
// tests (see clippy.toml), and fallible paths return typed errors.
#![warn(clippy::unwrap_used)]

pub mod eval;
pub mod hardware;
pub mod pipeline;
pub mod profile_cache;
pub mod protect;
pub mod schedule;
pub mod scheme;
pub mod tableimage;

mod config;
mod error;

pub use config::EncoderConfig;
pub use error::CoreError;
pub use pipeline::{
    encode_program, CodecSettings, EncodedProgram, PreparedCodec, ProgramAnalysis, RegionReport,
};
pub use protect::{FaultEvent, FaultOutcome, Protection, TableKind};
