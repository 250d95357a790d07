//! Under `IMT_OBS=trace` every request is one trace root, whether a worker
//! executes it or admission answers it from the result memo, and a hit's
//! root carries a `serve.memo_hit` instant instead of queue and execute
//! stages. Trace mode and the registry are process-global, so this check
//! lives in a test binary of its own.

use std::collections::HashSet;

use imt_core::EncoderConfig;
use imt_kernels::Kernel;
use imt_obs::trace::{TraceEvent, TraceKind};
use imt_serve::request::Request;
use imt_serve::service::{Service, ServiceConfig};

/// The names of the events parented directly under `root`.
fn children(events: &[TraceEvent], root: &TraceEvent) -> HashSet<String> {
    events
        .iter()
        .filter(|e| e.trace_id == root.trace_id && e.parent_id == root.span_id)
        .map(|e| e.name.clone())
        .collect()
}

#[test]
fn a_memo_hit_is_one_root_marked_by_its_admission_answer() {
    imt_obs::set_mode(imt_obs::Mode::Trace);
    imt_obs::trace::reset();
    let memo_hits = imt_obs::registry::counter("serve.result_memo_hits");
    let hits_before = memo_hits.get();

    let service = Service::start(ServiceConfig::default().with_workers(1));
    let request = || Request::new(Kernel::Tri.test_spec(), EncoderConfig::default());
    let first = service.submit(request()).expect("queue open").wait();
    let repeat = service.submit(request()).expect("queue open").wait();
    service.shutdown();
    let (events, dropped) = imt_obs::trace::snapshot();
    imt_obs::set_mode(imt_obs::Mode::Off);

    assert_eq!(
        repeat.outcome.expect("memoized outcome"),
        first.outcome.expect("tri serves")
    );
    assert_eq!(dropped, 0);
    assert_eq!(memo_hits.get() - hits_before, 1, "serve.result_memo_hits");
    let mut roots: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "serve.request" && e.parent_id == 0)
        .collect();
    assert_eq!(roots.len(), 2, "one root per request");
    roots.sort_by_key(|root| root.start_ns);
    let (miss, hit) = (children(&events, roots[0]), children(&events, roots[1]));
    for stage in ["serve.enqueue", "serve.queue_wait", "serve.execute"] {
        assert!(miss.contains(stage), "the miss lacks {stage}: {miss:?}");
    }
    assert!(!miss.contains("serve.memo_hit"), "{miss:?}");
    assert_eq!(
        hit,
        HashSet::from(["serve.memo_hit".to_string()]),
        "the hit's root holds only its admission answer"
    );
    assert!(events
        .iter()
        .any(|e| e.name == "serve.memo_hit" && e.kind == TraceKind::Instant));
}
