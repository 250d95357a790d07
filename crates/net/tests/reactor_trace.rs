//! A result-memo hit served over the reactor is one trace: the wire stages
//! and the service's admission answer hang under one root, with no queue
//! or worker stages. Trace mode is process-global, so this check lives in
//! a test binary of its own.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use imt_net::msg::NetRequest;
use imt_net::pool::PersistentClient;
use imt_net::reactor::{ReactorConfig, ReactorServer};
use imt_net::ListenAddr;
use imt_serve::service::{Admission, Service, ServiceConfig};

#[test]
fn a_traced_memo_hit_covers_wire_and_admission_under_one_root() {
    let path = std::env::temp_dir().join(format!("imt-reactor-trace-{}.sock", std::process::id()));
    let service = Arc::new(Service::start(
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject),
    ));
    let server = ReactorServer::start(
        Arc::clone(&service),
        &ListenAddr::Unix(path.clone()),
        ReactorConfig::default(),
    )
    .expect("unix bind");
    let mut conn = PersistentClient::connect(&ListenAddr::Unix(path), Duration::from_secs(30))
        .expect("connect");
    let request = NetRequest::new("tri", true).with_block_size(5);
    let first = conn
        .call(&request)
        .expect("transport")
        .outcome
        .expect("tri");

    imt_obs::set_mode(imt_obs::Mode::Trace);
    imt_obs::trace::reset();
    let repeat = conn.call(&request).expect("transport");
    let (events, dropped) = imt_obs::trace::snapshot();
    imt_obs::set_mode(imt_obs::Mode::Off);
    server.stop();

    assert_eq!(repeat.outcome.expect("memoized outcome"), first);
    assert_eq!(repeat.queue_ns, 0, "answered at admission");
    assert_eq!(dropped, 0);
    let roots: Vec<_> = events.iter().filter(|e| e.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root for the one request: {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "serve.request");
    let stages: HashSet<&str> = events
        .iter()
        .filter(|e| e.trace_id == root.trace_id && e.parent_id == root.span_id)
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(
        stages,
        HashSet::from(["net.read", "net.decode", "serve.memo_hit", "net.write"]),
    );
    assert_eq!(service.stats().admission_hits, 1);
}
