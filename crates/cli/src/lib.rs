//! # imt-cli — the `imt` command-line tool
//!
//! A thin, dependency-free driver over the workspace:
//!
//! ```text
//! imt asm <file.s> [-o image.imt]        assemble; write a program image
//! imt dis <image.imt | file.s>           disassemble text with addresses
//! imt run <image.imt | file.s> [opts]    execute; print output and stats
//! imt profile <file>                     execute; per-loop fetch report
//! imt encode <file> [opts]               full pipeline; reduction report
//! imt tables [-k N]                      print the optimal code table
//! imt kernels [name]                     list / run the paper benchmarks
//! imt bench [opts]                       figure 6 grid via replay eval
//! imt arena <run|report> [opts]          encoder arena; Pareto + auto-select
//! imt serve [opts]                       load session vs the job service
//! imt serve --listen <addr> [opts]       expose the service over the wire
//! imt client <addr> [kernels..] [opts]   drive a remote server over the wire
//! imt batch [kernels..] [opts]           request set through the service
//! imt cache [stats|clear]                inspect / wipe the profile cache
//! imt fault <inject|campaign|report>     upset injection and campaigns
//! ```
//!
//! All command logic lives in this library and returns its output as a
//! string, so the test suite drives the real code paths; `main.rs` only
//! forwards `std::env::args` and prints.

pub mod container;

mod commands;

use std::error::Error;
use std::fmt;

/// An error surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError {
    message: String,
}

impl CliError {
    /// Creates an error with the given user-facing message.
    pub fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::new(format!("i/o error: {e}"))
    }
}

impl From<imt_isa::AsmError> for CliError {
    fn from(e: imt_isa::AsmError) -> Self {
        CliError::new(format!("assembly error: {e}"))
    }
}

impl From<imt_sim::SimError> for CliError {
    fn from(e: imt_sim::SimError) -> Self {
        CliError::new(format!("simulation error: {e}"))
    }
}

impl From<imt_core::CoreError> for CliError {
    fn from(e: imt_core::CoreError) -> Self {
        CliError::new(format!("encoding error: {e}"))
    }
}

/// Usage text printed for `imt help` and argument errors.
pub const USAGE: &str = "\
imt — application-specific instruction memory transformations (DATE 2003)

usage: imt <command> [args]

commands:
  asm <file.s> [-o image.imt | --listing]
                                   assemble; write an image or a listing
  dis <file>                       disassemble (accepts .s or .imt)
  run <file> [--max-steps N] [--trace N] [--trace-head N] [--trace-tail N]
                                   execute; print output (+head/tail trace)
  profile <file> [--max-steps N]   execute and report loops by fetch share
  encode <file> [--block-size K] [--tt N] [--bbit N] [--all-sixteen]
         [--emit-tables out.ttb]   encode the hot region and measure
  analyze <file> [encode opts]     per-lane anatomy + hardware budget
  schedule <file> [-o out.imt]     transition-aware reorder (verified)
  tables [--block-size K] [--all-sixteen]
                                   print the optimal code table (Fig. 2/4)
  kernels [name]                   list the paper kernels, or run one
  bench [--test-scale] [--no-profile-cache] [--record] [--results DIR]
                                   figure 6 grid via replay evaluation;
                                   --record appends a BENCH_*.json summary
                                   to results/BENCH_history.jsonl
  arena run [--test-scale] [--results DIR]
                                   score every encoding scheme on every
                                   kernel (Pareto + auto-select); writes
                                   results/BENCH_arena.json
  arena report [BENCH_arena.json]  summarise an arena result file
  serve [--workers N] [--queue N] [--max-batch N] [--requests N] [--reject]
        [--deadline-ms N] [--delivery-ms N] [--tenant-quota N] [--test-scale]
                                   closed-loop load session against the
                                   batched job service; latency report
  serve --listen <host:port | unix:PATH> [--for-requests N] [--reactors N]
        [pool opts]                expose the service over the imt-net
                                   wire protocol (TCP or Unix socket),
                                   served by N epoll event loops (2);
                                   --for-requests N answers N then exits
  client <host:port | unix:PATH> [kernels..] [--block-sizes 4,5,..]
         [--tenant T] [--retries N] [--deadline-ms N] [--test-scale]
                                   drive a remote server; one request
                                   per kernel x block size, with
                                   deadline + idempotent retry
  batch [kernels..] [--block-sizes 4,5,..] [--workers N] [--test-scale]
                                   encode/eval a request set through the
                                   service; one result row per request
  cache [stats | clear]            profile-cache location, size, wipe
  fault inject <file> --plan AT:TARGET[,..] [--protection none|parity|sec]
                                   apply named upsets and replay the fetch
                                   stream (targets: tt:E:B bbit:E:B
                                   text:W:B bus:B)
  fault campaign <file> [--trials N] [--seed S] [--protection P|all]
        [--targets tables|text|bus] [--bits N] [--window N]
                                   seeded upset campaign; SDC/coverage
  fault report [BENCH_fault.json]  summarise an exp_fault result file
  obs check [dir]                  validate run manifests (imt-obs/v1)
  obs report <manifest.json>       summarise one run manifest
  obs trace export [dir | manifest.json] [-o out.json]
                                   convert traced manifests to Chrome
                                   trace-event JSON (chrome://tracing)
  obs regress [--results DIR] [--window N]
                                   compare current BENCH_*.json against
                                   BENCH_history.jsonl; nonzero on
                                   regression
  help                             this text

observability: set IMT_OBS=report for a stderr metrics report,
IMT_OBS=json to write a run manifest under IMT_OBS_PATH (default
results/obs) after each command, or IMT_OBS=trace to additionally
capture a causal span timeline in the manifest.
";

/// Runs the CLI on pre-split arguments (without the program name) and
/// returns what should be printed.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message for unknown commands,
/// bad arguments, and any underlying assembly/simulation/encoding failure.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(USAGE.to_string());
    };
    let rest = &args[1..];
    // Crash bracket: if a command panics mid-run under IMT_OBS=json, the
    // guard flushes a partial manifest with status "aborted" so `imt obs
    // check` can report the crashed run. Commands that end normally —
    // success or a reported error — defuse it below.
    let guard = imt_obs::manifest::RunGuard::begin(format!("cli-{command}"));
    let result = match command.as_str() {
        "asm" => commands::asm(rest),
        "dis" => commands::dis(rest),
        "run" => commands::run(rest),
        "profile" => commands::profile(rest),
        "encode" => commands::encode(rest),
        "analyze" => commands::analyze(rest),
        "schedule" => commands::schedule(rest),
        "tables" => commands::tables(rest),
        "kernels" => commands::kernels(rest),
        "bench" => commands::bench(rest),
        "arena" => commands::arena(rest),
        "serve" => commands::serve(rest),
        "client" => commands::client(rest),
        "batch" => commands::batch(rest),
        "cache" => commands::cache(rest),
        "fault" => commands::fault(rest),
        "obs" => {
            guard.complete();
            return commands::obs(rest);
        }
        "help" | "--help" | "-h" => {
            guard.complete();
            return Ok(USAGE.to_string());
        }
        other => {
            guard.complete();
            return Err(CliError::new(format!(
                "unknown command `{other}`\n\n{USAGE}"
            )));
        }
    };
    // Under `IMT_OBS`, a successful command ends with its run manifest
    // (stderr/file only — the command's stdout is untouched). `obs` and
    // `help` return above: inspecting manifests should not write new ones.
    if result.is_ok() && imt_obs::enabled() {
        let extra = vec![("command", imt_obs::json::Json::str(command))];
        if let Err(error) = imt_obs::manifest::finish_run(&format!("cli-{command}"), extra) {
            eprintln!("imt-obs: failed to write manifest for {command}: {error}");
        }
    }
    // Reaching here means the command ran to completion (ok, or an error
    // already reported to the caller) — not a crash.
    guard.complete();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_args_prints_usage() {
        let out = run_cli(&[]).unwrap();
        assert!(out.contains("usage: imt"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run_cli(&["frobnicate".into()]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert!(err.to_string().contains("usage: imt"));
    }

    #[test]
    fn help_is_available() {
        for flag in ["help", "--help", "-h"] {
            assert!(run_cli(&[flag.into()]).unwrap().contains("commands:"));
        }
    }
}
