//! # imt-obs — structured observability for the encode/sim/bench stack
//!
//! The paper's entire claim is a measured quantity (bus transitions saved
//! per benchmark per block size), so the workspace needs a layer that
//! makes every transition count, cache event and pipeline stage timing
//! observable and machine-readable — without perturbing the numbers it
//! measures. This crate provides that layer with zero external
//! dependencies (consistent with the offline `crates/compat` approach):
//!
//! * a global **metrics registry** ([`registry`]) of counters, gauges and
//!   u64 histograms with fixed log2 buckets, addressable by static name
//!   plus a dynamic label, lock-cheap (atomics behind a sharded map, with
//!   [`counter!`]-style macros that cache the handle at the call site);
//! * a **span/timer API** ([`span`]) — RAII guards that aggregate
//!   wall-time per span name, safe to use from the `imt-bitcode::par`
//!   worker threads (all aggregation is atomic, so nested fan-outs simply
//!   sum into the same stats);
//! * pluggable **sinks** ([`sink`]) — a human-readable end-of-run report
//!   and a JSONL snapshot writer;
//! * **run manifests** ([`manifest`]) — one JSON document per run
//!   capturing configuration, the full metric/span snapshot and any
//!   structured events, written to `results/obs/<run>.json` and
//!   validatable against the `imt-obs/v1` schema (`imt obs check`).
//!
//! ## Gating
//!
//! Everything is **off by default**. The `IMT_OBS` environment variable
//! (read once, overridable at runtime with [`set_mode`]) selects a
//! [`Mode`]:
//!
//! | `IMT_OBS`             | mode            | effect                          |
//! |-----------------------|-----------------|---------------------------------|
//! | unset / `0` / `off`   | [`Mode::Off`]   | instrumented sites are a single relaxed atomic load + branch |
//! | `report` / `text` / `1` | [`Mode::Report`] | end-of-run human-readable report on stderr |
//! | `json`                | [`Mode::Json`]  | run manifest + JSONL snapshot under `IMT_OBS_PATH` (default `results/obs`) |
//! | `trace`               | [`Mode::Trace`] | everything `json` does, plus causal trace events ([`trace`]) embedded in the manifest |
//!
//! Hot paths guard with [`enabled`], so the disabled cost is one load and
//! one predictable branch per instrumented *region* (not per item); the
//! `obs_overhead` bench in `crates/bench` asserts this stays under 2 % of
//! a packed stream encode.
//!
//! ## Example
//!
//! ```
//! use imt_obs::json::Json;
//!
//! // Metrics work regardless of mode; gating is the caller's choice.
//! imt_obs::counter("doc.events").add(3);
//! imt_obs::histogram("doc.sizes").observe(1500);
//! {
//!     let _t = imt_obs::span::timed("doc.work"); // always records
//! }
//! let snap = imt_obs::registry::snapshot();
//! assert!(snap.iter().any(|m| m.name == "doc.events"));
//!
//! // Manifests serialise the whole registry as JSON.
//! let mut manifest = imt_obs::manifest::Manifest::new("doc-run");
//! manifest.set("config", Json::obj(vec![("k", Json::U64(5))]));
//! manifest.capture();
//! imt_obs::manifest::validate(&Json::parse(&manifest.render()).unwrap()).unwrap();
//! ```

pub mod event;
pub mod json;
pub mod manifest;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

pub use event::{event, Event};
pub use registry::{
    counter, counter_labeled, gauge, gauge_labeled, histogram, histogram_labeled, Counter, Gauge,
    Histogram,
};

/// What the observability layer does at the end of (and during) a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing is recorded by gated call sites; the disabled check is one
    /// relaxed atomic load.
    Off,
    /// Gated call sites record; a human-readable report is printed to
    /// stderr at the end of the run.
    Report,
    /// Gated call sites record; a run manifest (`<run>.json`) and a JSONL
    /// snapshot (`<run>.jsonl`) are written under
    /// [`manifest::obs_dir`].
    Json,
    /// Everything [`Mode::Json`] does, plus causal trace events ([`trace`])
    /// are captured in per-thread ring buffers and embedded in the
    /// manifest's `trace` section for `imt obs trace export`.
    Trace,
}

const MODE_UNINIT: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_REPORT: u8 = 2;
const MODE_JSON: u8 = 3;
const MODE_TRACE: u8 = 4;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

fn mode_from_env() -> Mode {
    match std::env::var("IMT_OBS").ok().as_deref() {
        Some("trace") | Some("TRACE") => Mode::Trace,
        Some("json") | Some("JSON") => Mode::Json,
        Some("report") | Some("text") | Some("1") => Mode::Report,
        _ => Mode::Off,
    }
}

/// The active [`Mode`]: the `IMT_OBS` environment variable on first call,
/// or whatever [`set_mode`] last installed.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => Mode::Off,
        MODE_REPORT => Mode::Report,
        MODE_JSON => Mode::Json,
        MODE_TRACE => Mode::Trace,
        _ => {
            let mode = mode_from_env();
            set_mode(mode);
            mode
        }
    }
}

/// Overrides the mode at runtime (tests and experiment binaries; normal
/// programs let the environment decide).
pub fn set_mode(mode: Mode) {
    let tag = match mode {
        Mode::Off => MODE_OFF,
        Mode::Report => MODE_REPORT,
        Mode::Json => MODE_JSON,
        Mode::Trace => MODE_TRACE,
    };
    MODE.store(tag, Ordering::Relaxed);
}

/// Whether gated instrumentation should record. This is the hot-path
/// guard: one relaxed atomic load and one branch.
#[inline]
pub fn enabled() -> bool {
    // The common steady states are OFF/REPORT/JSON; UNINIT happens once.
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => false,
        MODE_UNINIT => mode() != Mode::Off,
        _ => true,
    }
}

/// Whether causal trace events should be recorded: true only in
/// [`Mode::Trace`]. Same cost shape as [`enabled`] — one relaxed atomic
/// load and one branch — and instrumented sites only consult it *after*
/// [`enabled`] passed, so the fully-disabled path pays nothing extra.
#[inline]
pub fn trace_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_TRACE => true,
        MODE_UNINIT => mode() == Mode::Trace,
        _ => false,
    }
}

thread_local! {
    static LABEL_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Scoped run-context label: popped when dropped.
///
/// Labels let concurrent pipeline runs (e.g. the Figure 6 grid cells)
/// publish into distinct registry slots — metric output stays
/// deterministic because snapshots sort by `(name, label)`, not by
/// completion order.
#[must_use = "the label pops when this guard drops"]
pub struct LabelGuard {
    pushed: bool,
}

impl Drop for LabelGuard {
    fn drop(&mut self) {
        if self.pushed {
            LABEL_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Pushes a context label for the current thread; the returned guard pops
/// it. Nested labels join with `/` in [`current_label`].
pub fn push_label(label: impl Into<String>) -> LabelGuard {
    LABEL_STACK.with(|stack| stack.borrow_mut().push(label.into()));
    LabelGuard { pushed: true }
}

/// Like [`push_label`], but the label is only built — and pushed — when
/// observability is [`enabled`]. Use on hot paths where even formatting
/// the label (one `String` allocation) is unwanted overhead while obs is
/// off; the disabled cost is the mode load plus a branch.
pub fn push_label_lazy(label: impl FnOnce() -> String) -> LabelGuard {
    if enabled() {
        push_label(label())
    } else {
        LabelGuard { pushed: false }
    }
}

/// The current thread's context label (`""` outside any
/// [`push_label`] scope).
pub fn current_label() -> String {
    LABEL_STACK.with(|stack| stack.borrow().join("/"))
}

/// Looks up (and caches at the call site) the counter named `$name`.
///
/// The first execution pays the registry lookup; later executions are a
/// `OnceLock` load plus the atomic op — safe on hot paths.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// Looks up (and caches at the call site) the gauge named `$name`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::registry::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::gauge($name))
    }};
}

/// Opens a gated RAII span: records wall-time under `$name` when
/// observability is enabled, does nothing otherwise. Bind the result —
/// `let _span = obs::span!("encode_block");` — so it drops at scope end.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::span($name)
    };
    ($name:literal, $label:expr) => {
        $crate::span::span_labeled($name, $label)
    };
}

/// Serialises this crate's unit tests that touch process-global state —
/// the mode, the metric registry, the event buffer and the trace rings —
/// so a sibling test cannot flip the mode or reset a metric under them.
/// The lock guards no data, so a guard poisoned by a panicking test (the
/// `should_panic` ones) is taken over as is.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_env_parsing() {
        let _lock = crate::test_lock();
        // Exercise the parser directly; the global mode is shared across
        // the test binary, so only set_mode round-trips are checked there.
        std::env::remove_var("IMT_OBS");
        assert_eq!(mode_from_env(), Mode::Off);
        std::env::set_var("IMT_OBS", "off");
        assert_eq!(mode_from_env(), Mode::Off);
        std::env::set_var("IMT_OBS", "report");
        assert_eq!(mode_from_env(), Mode::Report);
        std::env::set_var("IMT_OBS", "json");
        assert_eq!(mode_from_env(), Mode::Json);
        std::env::set_var("IMT_OBS", "trace");
        assert_eq!(mode_from_env(), Mode::Trace);
        std::env::remove_var("IMT_OBS");
    }

    #[test]
    fn set_mode_round_trips() {
        let _lock = crate::test_lock();
        let before = mode();
        set_mode(Mode::Report);
        assert_eq!(mode(), Mode::Report);
        assert!(enabled());
        {
            let _g = push_label_lazy(|| "lazy".to_string());
            assert_eq!(current_label(), "lazy");
        }
        assert_eq!(current_label(), "");
        set_mode(Mode::Off);
        assert_eq!(mode(), Mode::Off);
        assert!(!enabled());
        {
            // Disabled: the closure must never run (no allocation), and
            // the guard must not pop anything it never pushed.
            let outer = push_label("outer");
            let _g = push_label_lazy(|| unreachable!("label built while obs is off"));
            assert_eq!(current_label(), "outer");
            drop(_g);
            assert_eq!(current_label(), "outer");
            drop(outer);
        }
        set_mode(before);
    }

    #[test]
    fn labels_nest_and_pop() {
        assert_eq!(current_label(), "");
        let outer = push_label("grid");
        assert_eq!(current_label(), "grid");
        {
            let _inner = push_label("mmul/k5");
            assert_eq!(current_label(), "grid/mmul/k5");
        }
        assert_eq!(current_label(), "grid");
        drop(outer);
        assert_eq!(current_label(), "");
    }

    #[test]
    fn macros_cache_handles() {
        let _lock = crate::test_lock();
        let a = counter!("lib.macro_counter");
        let b = counter!("lib.macro_counter");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert!(b.get() >= 1);
        let g = gauge!("lib.macro_gauge");
        g.set(7);
        assert_eq!(g.get(), 7);
    }
}
