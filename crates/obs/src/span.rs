//! RAII span timers aggregating wall-time into [`registry::SpanStat`]s.
//!
//! Two flavours:
//!
//! * [`span`] / [`span_labeled`] — **gated**: when observability is
//!   disabled ([`crate::enabled`] is false) they take no timestamp and
//!   record nothing; the cost is one relaxed load and a branch. Use these
//!   on instrumented library paths.
//! * [`timed`] / [`timed_labeled`] — **always-on**: they record
//!   regardless of mode. Use these where the timing *is* the product,
//!   e.g. `exp_perf` builds its pipeline-latency table from them.
//!
//! Aggregation is atomic ([`registry::SpanStat::record`]), so guards may
//! drop on any `imt-bitcode::par` worker thread; concurrent spans with
//! the same name simply sum into the same stats.

use std::time::Instant;

use crate::registry::{self, SpanStat};

/// An in-flight span; records elapsed wall-time on drop. Inert (no
/// timestamp taken) when constructed via a gated entry point with
/// observability disabled.
///
/// In [`crate::Mode::Trace`] the gated constructors additionally open a
/// [`crate::trace::TraceSpan`], so every existing `span!` site in the
/// workspace contributes a causally-parented trace event without any
/// call-site change. The trace gate is only consulted *after* the obs
/// gate passed, so the disabled-path cost is unchanged.
#[must_use = "a span records when the guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    live: Option<(Instant, &'static SpanStat)>,
    trace: crate::trace::TraceSpan,
}

impl SpanGuard {
    /// A guard that records nothing — what the gated constructors return
    /// when observability is off.
    pub fn inert() -> SpanGuard {
        SpanGuard {
            live: None,
            trace: crate::trace::TraceSpan::inert(),
        }
    }

    /// Whether this guard will record on drop.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The trace context of this span, if one is being recorded
    /// ([`crate::Mode::Trace`] only) — for explicit cross-thread
    /// hand-offs.
    pub fn trace_ctx(&self) -> Option<crate::trace::TraceCtx> {
        self.trace.ctx()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, stat)) = self.live.take() {
            stat.record(start.elapsed().as_nanos() as u64);
        }
        // `self.trace` drops after this body, recording the trace event.
    }
}

fn live(name: &'static str, stat: &'static SpanStat) -> SpanGuard {
    let trace = if crate::trace_enabled() {
        crate::trace::span(name)
    } else {
        crate::trace::TraceSpan::inert()
    };
    SpanGuard {
        live: Some((Instant::now(), stat)),
        trace,
    }
}

/// Opens a gated span under `name`; inert when observability is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if crate::enabled() {
        live(name, registry::span_stat(name))
    } else {
        SpanGuard::inert()
    }
}

/// Opens a gated span under `name` with `label`; inert when
/// observability is off.
#[inline]
pub fn span_labeled(name: &'static str, label: &str) -> SpanGuard {
    if crate::enabled() {
        live(name, registry::span_stat_labeled(name, label))
    } else {
        SpanGuard::inert()
    }
}

/// Opens an always-on span under `name`: records regardless of mode.
pub fn timed(name: &'static str) -> SpanGuard {
    live(name, registry::span_stat(name))
}

/// Opens an always-on span under `name` with `label`.
pub fn timed_labeled(name: &'static str, label: &str) -> SpanGuard {
    live(name, registry::span_stat_labeled(name, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, Mode};

    #[test]
    fn timed_records_regardless_of_mode() {
        let _lock = crate::test_lock();
        let before = crate::mode();
        set_mode(Mode::Off);
        let stat = registry::span_stat("span.test.timed");
        let n0 = stat.count();
        {
            let guard = timed("span.test.timed");
            assert!(guard.is_live());
        }
        assert_eq!(stat.count(), n0 + 1);
        set_mode(before);
    }

    #[test]
    fn gated_span_is_inert_when_off() {
        let _lock = crate::test_lock();
        let before = crate::mode();
        set_mode(Mode::Off);
        let stat = registry::span_stat("span.test.gated");
        let n0 = stat.count();
        {
            let guard = span("span.test.gated");
            assert!(!guard.is_live());
        }
        assert_eq!(stat.count(), n0);

        set_mode(Mode::Report);
        {
            let guard = span("span.test.gated");
            assert!(guard.is_live());
        }
        assert_eq!(stat.count(), n0 + 1);
        set_mode(before);
    }

    #[test]
    fn nested_spans_sum_into_stats() {
        let _lock = crate::test_lock();
        let stat = registry::span_stat_labeled("span.test.nested", "outer");
        let inner = registry::span_stat_labeled("span.test.nested", "inner");
        let (o0, i0) = (stat.count(), inner.count());
        {
            let _outer = timed_labeled("span.test.nested", "outer");
            for _ in 0..3 {
                let _inner = timed_labeled("span.test.nested", "inner");
            }
        }
        assert_eq!(stat.count(), o0 + 1);
        assert_eq!(inner.count(), i0 + 3);
        assert!(stat.total_ns() >= stat.min_ns());
    }

    #[test]
    fn spans_record_from_worker_threads() {
        let _lock = crate::test_lock();
        let stat = registry::span_stat("span.test.threads");
        let n0 = stat.count();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _guard = timed("span.test.threads");
                });
            }
        });
        assert_eq!(stat.count(), n0 + 4);
    }
}
