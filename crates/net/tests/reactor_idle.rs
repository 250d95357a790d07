//! An idle reactor server sleeps in `epoll_wait`: accepting rides reactor
//! 0's epoll, so nothing polls the listener. Each reactor still wakes on
//! its 100 ms sweep tick, so over 200 ms two reactors may switch out
//! voluntarily about four times. The count comes from the kernel's
//! per-thread `voluntary_ctxt_switches`, summed over the server's own
//! threads (those named `imt-net-*`).

use std::sync::Arc;
use std::time::Duration;

use imt_net::reactor::{ReactorConfig, ReactorServer};
use imt_net::ListenAddr;
use imt_serve::service::{Admission, Service, ServiceConfig};

/// Voluntary context switches of this process's `imt-net-*` threads.
fn server_thread_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !name.starts_with("imt-net-") {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else {
            continue;
        };
        total += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

#[test]
fn an_idle_two_reactor_server_sleeps_between_sweep_ticks() {
    let path = std::env::temp_dir().join(format!("imt-reactor-idle-{}.sock", std::process::id()));
    let service = Arc::new(Service::start(
        ServiceConfig::default()
            .with_workers(1)
            .with_admission(Admission::Reject),
    ));
    let server = ReactorServer::start(
        service,
        &ListenAddr::Unix(path),
        ReactorConfig::default().with_reactors(2),
    )
    .expect("unix bind");
    // Let the threads start and settle into their waits.
    std::thread::sleep(Duration::from_millis(50));
    let before = server_thread_switches();
    std::thread::sleep(Duration::from_millis(200));
    let switches = server_thread_switches() - before;
    server.stop();
    assert!(
        switches <= 6,
        "an idle two-reactor server switched out {switches} times in 200 ms \
         (two 100 ms sweep ticks per reactor, plus slack, allow 6)"
    );
}
