//! The server front-end: an epoll reactor, with zero threads per
//! connection.
//!
//! A thread per connection, parked in `read()` or in
//! [`imt_serve::Ticket::wait`], is simple, but at 1024+ persistent
//! connections the scheduler — not the codec, not the workers — becomes
//! the bottleneck: every request costs a handful of context switches.
//! The reactor instead keeps every connection on a few event loops:
//!
//! * **One epoll instance per reactor thread** (N-way sharded) owns
//!   every connection socket plus an `eventfd` waker. Reactor 0's also
//!   holds the listening socket: it accepts when the listener is readable
//!   and deals the sockets round-robin, so an idle server sleeps in
//!   `epoll_wait` and a new connection waits for no poll interval.
//! * **Per-connection state machines** decode incrementally with
//!   [`FrameDecoder`] — partial frames simply wait for more bytes, and
//!   every declared length is bounded *before* allocation, exactly as in
//!   [`Frame::read_from`].
//! * **Protocol errors never take the process down.** A frame that
//!   fails to decode is answered with a typed
//!   [`RemoteError::BadRequest`] when the stream is still framed
//!   (payload-level errors), or the connection is dropped when it is
//!   not (bad magic, truncation) — either way it lands in
//!   [`ServerStatsSnapshot`], not in a panic.
//! * **Completions are callbacks, not parked threads.** Submission arms
//!   [`imt_serve::Ticket::on_ready`]; the worker's fulfill encodes the
//!   response frame and hands it to the owning reactor through a
//!   completion queue + eventfd wake. No thread ever blocks on a ticket.
//!   A request the service answers at admission (a result-memo hit) needs
//!   no callback: its ticket is ready when `submit` returns, and the
//!   reactor queues the response in the same wake.
//! * **Backpressure is typed, never blocking.** The service must run
//!   [`Admission::Reject`], and [`ReactorServer::start`] refuses one
//!   that does not: a full queue yields a typed `Overloaded` refusal
//!   written back on the wire. On top of that, a connection with too
//!   many in-flight requests or too many unflushed response bytes has
//!   its read interest dropped — pipelining pressure propagates to the
//!   peer's TCP window instead of into unbounded queues.
//! * **Slow-loris dies by sweep.** A connection holding a *partial*
//!   frame longer than `read_timeout` is disconnected (a
//!   `read_timeouts` stat). Idle connections at a frame boundary are
//!   left alone — that is what makes pooled persistent connections
//!   cheap to keep open.
//! * **Traces start at the socket.** When `IMT_OBS=trace` is on, each
//!   request's trace root opens as its frame is read and travels with
//!   the request into the service, so one timeline covers
//!   read → decode → queue → warm → encode → respond → write.
//!
//! The epoll/eventfd bindings are raw `extern "C"` declarations against
//! the libc `std` already links — no new dependency, consistent with
//! the offline build constraint.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use imt_serve::service::{Admission, Service};

use crate::msg::{build_request, NetRequest, NetResponse, RemoteError};
use crate::wire::{Frame, FrameDecoder, FrameKind};
use crate::ListenAddr;

// ---------------------------------------------------------------------
// Raw epoll / eventfd bindings (x86_64 Linux, zero-dep)
// ---------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    /// Mirror of the kernel's `struct epoll_event`. Packed on x86_64
    /// (the kernel ABI packs it there); natural layout elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// A thin safe wrapper over one epoll instance.
struct Poller {
    epfd: i32,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let evp = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::EpollEvent
        };
        // SAFETY: `ev` outlives the call; DEL ignores the pointer.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, evp) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout` for events, appending them to `out`.
    fn wait(&self, out: &mut Vec<sys::EpollEvent>, timeout: Duration) -> io::Result<usize> {
        out.clear();
        out.reserve(256);
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `out` has capacity for 256 events; the kernel writes
        // at most `maxevents` entries.
        let n = unsafe { sys::epoll_wait(self.epfd, out.as_mut_ptr(), 256, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        // SAFETY: the kernel initialised the first `n` events.
        unsafe { out.set_len(n as usize) };
        Ok(out.len())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: fd owned by this Poller.
        unsafe { sys::close(self.epfd) };
    }
}

/// An eventfd used to wake a reactor from `epoll_wait` when another
/// thread (reactor 0 dealing a connection, a worker completing) has work
/// for it.
struct Waker {
    fd: i32,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall.
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a valid u64.
        unsafe {
            sys::write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reading 8 bytes into a valid u64; nonblocking fd.
        unsafe {
            sys::read(self.fd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: fd owned by this Waker.
        unsafe { sys::close(self.fd) };
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Reactor transport knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop threads; accepted connections are dealt round-robin.
    pub reactors: usize,
    /// How long a connection may hold a *partial* frame before the
    /// sweep disconnects it (slow-loris bound). Idle connections at a
    /// frame boundary are not timed out — persistent connections are
    /// the point of this front-end.
    pub read_timeout: Duration,
    /// Max submitted-but-unanswered requests per connection before its
    /// read interest is dropped (pipelining backpressure).
    pub max_in_flight: usize,
    /// Max unflushed response bytes per connection before its read
    /// interest is dropped (write backpressure).
    pub max_pending_write: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            reactors: 1,
            read_timeout: Duration::from_secs(5),
            max_in_flight: 256,
            max_pending_write: 8 * 1024 * 1024,
        }
    }
}

impl ReactorConfig {
    /// Sets the number of reactor threads (min 1).
    #[must_use]
    pub fn with_reactors(mut self, n: usize) -> ReactorConfig {
        self.reactors = n.max(1);
        self
    }

    /// Sets the mid-frame stall bound.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> ReactorConfig {
        self.read_timeout = timeout;
        self
    }

    /// Sets the per-connection in-flight request cap.
    #[must_use]
    pub fn with_max_in_flight(mut self, n: usize) -> ReactorConfig {
        self.max_in_flight = n.max(1);
        self
    }
}

// ---------------------------------------------------------------------
// Transport counters
// ---------------------------------------------------------------------

/// Counters the transport layer keeps, one step removed from the
/// service's own stats: what happened on the wire before (or instead
/// of) a job existing.
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
    bad_requests: AtomicU64,
    read_timeouts: AtomicU64,
}

/// A point-in-time copy of the reactor's transport counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded and submitted.
    pub requests: u64,
    /// Responses queued for writing.
    pub responses: u64,
    /// Frames refused at the protocol layer (bad magic, version,
    /// truncation, checksum, oversize) — each one a typed
    /// [`crate::wire::WireError`], each one dropping only its own
    /// connection.
    pub protocol_errors: u64,
    /// Well-framed payloads that did not name a servable job (unknown
    /// kernel, bad plan) — answered with [`RemoteError::BadRequest`].
    pub bad_requests: u64,
    /// Connections dropped by the mid-frame sweep (slow-loris defense).
    pub read_timeouts: u64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

enum Sock {
    Tcp(std::net::TcpStream),
    Unix(std::os::unix::net::UnixStream),
}

/// The listening socket, owned by reactor 0.
enum Listener {
    Tcp(std::net::TcpListener),
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    fn fd(&self) -> i32 {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Sock> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| Sock::Tcp(stream)),
            Listener::Unix(l) => l.accept().map(|(stream, _)| Sock::Unix(stream)),
        }
    }
}

/// Reactor 0's accepting half: the listener and every reactor's mailbox,
/// its own included, to deal accepted sockets into.
struct Acceptor {
    listener: Listener,
    mailboxes: Vec<Arc<Mailbox>>,
    next: usize,
}

impl Sock {
    fn fd(&self) -> i32 {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
            Sock::Unix(s) => s.set_nonblocking(true),
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Completion plumbing (worker thread → reactor thread)
// ---------------------------------------------------------------------

/// One encoded response frame, addressed to a connection token. The
/// worker thread builds these inside the `on_ready` callback; the
/// reactor drains them on its next wake.
struct Completion {
    token: u64,
    frame: Vec<u8>,
    trace_root: Option<imt_obs::trace::TraceCtx>,
}

/// The shared mailbox between the service's worker threads and one
/// reactor thread.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    intake: Mutex<Vec<Sock>>,
    waker: Waker,
}

impl Mailbox {
    fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            completions: Mutex::new(Vec::new()),
            intake: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    // Both push paths wake the reactor only on the empty→non-empty
    // transition: the first pusher's wake covers everything batched
    // behind it (the reactor drains the whole vec per wake), so under
    // load the eventfd write amortises across the batch instead of
    // costing one syscall per completion.
    fn push_completion(&self, completion: Completion) {
        let mut guard = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        let was_empty = guard.is_empty();
        guard.push(completion);
        drop(guard);
        if was_empty {
            self.waker.wake();
        }
    }

    fn push_conn(&self, sock: Sock) {
        let mut guard = self.intake.lock().unwrap_or_else(|e| e.into_inner());
        let was_empty = guard.is_empty();
        guard.push(sock);
        drop(guard);
        if was_empty {
            self.waker.wake();
        }
    }

    fn drain_completions(&self, into: &mut Vec<Completion>) {
        let mut guard = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        into.append(&mut guard);
    }

    fn drain_conns(&self, into: &mut Vec<Sock>) {
        let mut guard = self.intake.lock().unwrap_or_else(|e| e.into_inner());
        into.append(&mut guard);
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------

struct ConnState {
    sock: Sock,
    decoder: FrameDecoder,
    /// Encoded-but-unflushed response bytes; `write_pos` marks the
    /// flushed prefix so flushing never memmoves per write.
    pending_write: Vec<u8>,
    write_pos: usize,
    /// Requests submitted on this connection and not yet answered.
    in_flight: usize,
    /// Interest currently registered with epoll (to avoid redundant
    /// `EPOLL_CTL_MOD` syscalls).
    interest: u32,
    /// Last time this connection made read progress — the slow-loris
    /// sweep compares it against `read_timeout` while `mid_frame()`.
    last_progress: Instant,
    /// The peer half-closed; finish flushing, then drop.
    peer_closed: bool,
    /// Reused scratch for refusals encoded on the reactor thread.
    encode_scratch: Vec<u8>,
}

impl ConnState {
    fn pending_bytes(&self) -> usize {
        self.pending_write.len() - self.write_pos
    }

    /// Whether the connection is at either backpressure cap: too many
    /// requests in flight or too many unflushed response bytes. Its
    /// frames stay buffered and its reads pause until it drops below.
    fn saturated(&self, config: &ReactorConfig) -> bool {
        self.in_flight >= config.max_in_flight || self.pending_bytes() >= config.max_pending_write
    }

    /// Appends an encoded frame to the pending-write queue, compacting
    /// the flushed prefix first so the buffer reuses its capacity.
    fn queue_bytes(&mut self, bytes: &[u8]) {
        if self.write_pos > 0 {
            self.pending_write.copy_within(self.write_pos.., 0);
            let len = self.pending_write.len() - self.write_pos;
            self.pending_write.truncate(len);
            self.write_pos = 0;
        }
        self.pending_write.extend_from_slice(bytes);
    }

    /// Flushes as much as the socket accepts. `Ok(true)` = fully
    /// drained, `Ok(false)` = socket is full (arm EPOLLOUT).
    fn flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.pending_write.len() {
            match self.sock.write(&self.pending_write[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.pending_write.clear();
        self.write_pos = 0;
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// Token 0 is the reactor's waker; connections get tokens from 1 up.
const WAKER_TOKEN: u64 = 0;

/// Reactor 0's listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;

/// The running reactor server: N epoll event loops, the first of which
/// also accepts and deals sockets round-robin, all feeding the shared
/// [`Service`].
///
/// The service must run [`Admission::Reject`]: the reactor never blocks,
/// so a full queue must be a typed refusal rather than a parked event
/// loop.
pub struct ReactorServer {
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    reactor_threads: Vec<JoinHandle<()>>,
    mailboxes: Vec<Arc<Mailbox>>,
    local_addr: ListenAddr,
    unix_path: Option<std::path::PathBuf>,
}

impl ReactorServer {
    /// Binds `addr` and starts [`ReactorConfig::reactors`] event loops,
    /// the first of which accepts.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the service blocks admission
    /// ([`Admission::Block`]): one full queue would park a whole event
    /// loop inside `submit`, stalling every connection it owns. Otherwise
    /// propagates socket bind and epoll/eventfd creation errors.
    pub fn start(
        service: Arc<Service>,
        addr: &ListenAddr,
        config: ReactorConfig,
    ) -> io::Result<ReactorServer> {
        if service.admission() == Admission::Block {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the reactor needs a service with Admission::Reject: \
                 a blocking submit would stall a whole event loop",
            ));
        }
        let (listener, local_addr, unix_path) = match addr {
            ListenAddr::Tcp(hostport) => {
                let listener = std::net::TcpListener::bind(hostport.as_str())?;
                let bound = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                (
                    Listener::Tcp(listener),
                    ListenAddr::Tcp(bound.to_string()),
                    None,
                )
            }
            ListenAddr::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                (
                    Listener::Unix(listener),
                    ListenAddr::Unix(path.clone()),
                    Some(path.clone()),
                )
            }
        };

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let reactors = config.reactors.max(1);
        let mut mailboxes = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            mailboxes.push(Arc::new(Mailbox::new()?));
        }

        let mut acceptor = Some(Acceptor {
            listener,
            mailboxes: mailboxes.clone(),
            next: 0,
        });
        let mut reactor_threads = Vec::with_capacity(reactors);
        for (i, mailbox) in mailboxes.iter().enumerate() {
            let mailbox = Arc::clone(mailbox);
            let service = Arc::clone(&service);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            let poller = Poller::new()?;
            poller.add(mailbox.waker.fd, sys::EPOLLIN, WAKER_TOKEN)?;
            let acceptor = acceptor.take();
            if let Some(acceptor) = &acceptor {
                poller.add(acceptor.listener.fd(), sys::EPOLLIN, LISTENER_TOKEN)?;
            }
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("imt-net-reactor-{i}"))
                    .spawn(move || {
                        reactor_loop(poller, acceptor, mailbox, service, config, stop, stats)
                    })?,
            );
        }

        Ok(ReactorServer {
            stop,
            stats,
            reactor_threads,
            mailboxes,
            local_addr,
            unix_path,
        })
    }

    /// The bound address — for TCP with port 0, the resolved port.
    pub fn local_addr(&self) -> &ListenAddr {
        &self.local_addr
    }

    /// Transport-layer counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stops accepting, wakes every reactor, and joins all threads.
    /// Connections are closed; in-flight jobs complete inside the
    /// service but their responses are dropped with the sockets.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for mailbox in &self.mailboxes {
            mailbox.waker.wake();
        }
        for handle in self.reactor_threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.halt();
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

fn reactor_loop(
    poller: Poller,
    mut acceptor: Option<Acceptor>,
    mailbox: Arc<Mailbox>,
    service: Arc<Service>,
    config: ReactorConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<sys::EpollEvent> = Vec::with_capacity(256);
    let mut completions: Vec<Completion> = Vec::new();
    let mut intake: Vec<Sock> = Vec::new();
    let sweep_every = (config.read_timeout / 4).max(Duration::from_millis(10));
    let mut last_sweep = Instant::now();

    while !stop.load(Ordering::SeqCst) {
        let tick = sweep_every.min(Duration::from_millis(100));
        if poller.wait(&mut events, tick).is_err() {
            break;
        }

        let mut woken = false;
        let mut acceptable = false;
        let mut touched: Vec<u64> = Vec::new();
        for ev in events.iter().copied() {
            let (token, bits) = (ev.data, ev.events);
            if token == WAKER_TOKEN {
                woken = true;
                continue;
            }
            if token == LISTENER_TOKEN {
                acceptable = true;
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let mut dead = false;
            if bits & sys::EPOLLOUT != 0 {
                match conn.flush() {
                    Ok(_) => {}
                    Err(_) => dead = true,
                }
            }
            // ERR/HUP route through the read path too: a peer that
            // wrote a (corrupt) frame and closed in one breath must
            // still have its bytes decoded — the typed protocol error
            // is the point — before the EOF reaps the connection.
            if !dead
                && !conn.peer_closed
                && bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP) != 0
            {
                dead = handle_readable(conn, &service, &config, &stats, &mailbox, token);
            }
            // A full hangup (as opposed to a half-close) means responses
            // for any still-in-flight requests have nowhere to go.
            if !dead && bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                dead = true;
            }
            if dead {
                close_conn(&poller, &mut conns, token);
            } else {
                touched.push(token);
            }
        }

        if acceptable {
            if let Some(acceptor) = &mut acceptor {
                accept_all(acceptor, &stats, &mut intake);
            }
        }
        if woken {
            mailbox.waker.drain();
            // New connections dealt to this reactor.
            mailbox.drain_conns(&mut intake);
            // Worker completions: queue the encoded frames now, flush
            // once per connection in the pass below — pipelined
            // responses that completed in the same wake coalesce into
            // one write syscall instead of one each.
            mailbox.drain_completions(&mut completions);
            for completion in completions.drain(..) {
                let Some(conn) = conns.get_mut(&completion.token) else {
                    // Connection died with requests in flight — the
                    // response has nowhere to go.
                    continue;
                };
                conn.in_flight = conn.in_flight.saturating_sub(1);
                let write_start = imt_obs::trace_enabled().then(imt_obs::trace::now_ns);
                conn.queue_bytes(&completion.frame);
                stats.responses.fetch_add(1, Ordering::Relaxed);
                if let (Some(root), Some(start)) = (completion.trace_root, write_start) {
                    imt_obs::trace::record_stage(
                        "net.write",
                        Some(root),
                        start,
                        imt_obs::trace::now_ns(),
                    );
                }
                touched.push(completion.token);
            }
        }
        for sock in intake.drain(..) {
            let token = next_token;
            next_token += 1;
            let fd = sock.fd();
            let conn = ConnState {
                sock,
                decoder: FrameDecoder::new(),
                pending_write: Vec::new(),
                write_pos: 0,
                in_flight: 0,
                interest: sys::EPOLLIN | sys::EPOLLRDHUP,
                last_progress: Instant::now(),
                peer_closed: false,
                encode_scratch: Vec::new(),
            };
            if poller.add(fd, conn.interest, token).is_ok() {
                conns.insert(token, conn);
            }
        }

        // One pass per connection that moved this wake (reads and
        // completions both land here, deduplicated): flush whatever is
        // queued, then re-derive epoll interest — pause reads under
        // backpressure, arm EPOLLOUT while bytes are still pending.
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // Frames a backpressure stop left buffered resume once it
            // lifts: the peer may have nothing more to send, so no read
            // event would bring them back. Drain and flush until the
            // socket pushes back or no whole frame is left.
            let dead = loop {
                if conn.decoder.buffered() > 0 && !conn.saturated(&config) {
                    let read_start = imt_obs::trace_enabled().then(imt_obs::trace::now_ns);
                    if drain_frames(conn, &service, &config, &stats, &mailbox, token, read_start) {
                        break true;
                    }
                }
                let capped = conn.saturated(&config);
                if conn.pending_bytes() > 0 && conn.flush().is_err() {
                    break true;
                }
                if !capped || conn.saturated(&config) {
                    break false;
                }
            };
            if dead {
                close_conn(&poller, &mut conns, token);
                continue;
            }
            if conn.peer_closed && conn.pending_bytes() == 0 && conn.in_flight == 0 {
                close_conn(&poller, &mut conns, token);
                continue;
            }
            // A half-closed peer gets no read interest at all (its EOF
            // was already consumed); re-arming EPOLLRDHUP would just
            // storm events while its responses drain.
            let mut want = if conn.peer_closed { 0 } else { sys::EPOLLRDHUP };
            if !conn.saturated(&config) && !conn.peer_closed {
                want |= sys::EPOLLIN;
            }
            if conn.pending_bytes() > 0 {
                want |= sys::EPOLLOUT;
            }
            if want != conn.interest {
                let fd = conn.sock.fd();
                if poller.modify(fd, want, token).is_ok() {
                    if want & !conn.interest & sys::EPOLLIN != 0 {
                        // Reads resume: the stall clock restarts, since
                        // the pause was the server's, not the peer's.
                        conn.last_progress = Instant::now();
                    }
                    conn.interest = want;
                } else {
                    close_conn(&poller, &mut conns, token);
                }
            }
        }

        // Slow-loris sweep: a connection parked mid-frame past the
        // read timeout is disconnected. Idle frame-boundary
        // connections are fine — persistence is the feature — and so
        // are connections whose reads backpressure paused.
        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            let stalled: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    c.interest & sys::EPOLLIN != 0
                        && c.decoder.mid_frame()
                        && c.last_progress.elapsed() > config.read_timeout
                })
                .map(|(&t, _)| t)
                .collect();
            for token in stalled {
                stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                close_conn(&poller, &mut conns, token);
            }
        }
    }
    for (_, conn) in conns.drain() {
        poller.delete(conn.sock.fd());
    }
}

/// Accepts until the listener would block, dealing sockets round-robin:
/// the accepting reactor's own share goes straight to `own` (no wake
/// needed), the others' through their mailboxes.
fn accept_all(acceptor: &mut Acceptor, stats: &ServerStats, own: &mut Vec<Sock>) {
    loop {
        let sock = match acceptor.listener.accept() {
            Ok(sock) => sock,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            // Out of descriptors or similar: the listener stays readable,
            // so the next wake retries.
            Err(_) => return,
        };
        if sock.set_nonblocking().is_err() {
            continue;
        }
        stats.connections.fetch_add(1, Ordering::Relaxed);
        let target = acceptor.next % acceptor.mailboxes.len();
        acceptor.next = acceptor.next.wrapping_add(1);
        if target == 0 {
            own.push(sock);
        } else {
            acceptor.mailboxes[target].push_conn(sock);
        }
    }
}

fn close_conn(poller: &Poller, conns: &mut HashMap<u64, ConnState>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        poller.delete(conn.sock.fd());
        // The socket closes on drop; in-flight completions for this
        // token are ignored when they arrive.
    }
}

/// Reads whatever the socket has, drains complete frames, submits them.
/// Returns `true` when the connection must be closed.
fn handle_readable(
    conn: &mut ConnState,
    service: &Arc<Service>,
    config: &ReactorConfig,
    stats: &ServerStats,
    mailbox: &Arc<Mailbox>,
    token: u64,
) -> bool {
    let read_start = imt_obs::trace_enabled().then(imt_obs::trace::now_ns);
    loop {
        // Parse everything already buffered before reading again, so a
        // peer that wrote and closed in one breath still has every
        // frame (and every corruption) accounted for.
        if drain_frames(conn, service, config, stats, mailbox, token, read_start) {
            return true;
        }
        if conn.saturated(config) {
            // Backpressure: stop reading; the interest pass pauses
            // EPOLLIN, and completions or flushes resume it.
            return false;
        }
        match conn.decoder.fill_from(&mut conn.sock) {
            Ok(0) => {
                // EOF. Mid-frame it is a truncation; at a boundary it
                // is an orderly close — responses may still be in
                // flight, so only mark it and let the interest pass
                // reap it once drained.
                if conn.decoder.mid_frame() {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                conn.peer_closed = true;
                return conn.pending_bytes() == 0 && conn.in_flight == 0;
            }
            Ok(_) => {
                conn.last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(_) => return true,
        }
    }
}

/// Drains every complete frame currently buffered on `conn`, submitting
/// requests and queueing refusals and the responses answered at
/// admission, until the connection saturates. Returns `true` when the
/// connection must be closed.
#[allow(clippy::too_many_arguments)]
fn drain_frames(
    conn: &mut ConnState,
    service: &Arc<Service>,
    config: &ReactorConfig,
    stats: &ServerStats,
    mailbox: &Arc<Mailbox>,
    token: u64,
    read_start: Option<u64>,
) -> bool {
    loop {
        if conn.saturated(config) {
            // Leave the rest buffered; the interest pass pauses reads,
            // and completions or flushes resume them.
            return false;
        }
        let view = match conn.decoder.next_frame() {
            Ok(Some(view)) => view,
            Ok(None) => return false,
            Err(_) => {
                // Bad magic / version / checksum / oversize: the stream
                // is unsynchronised — typed error, drop the connection.
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        };
        if view.kind != FrameKind::Request {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let request_id = view.request_id;
        let trace_root = read_start.and_then(|_| imt_obs::trace::open_trace());
        let opened_ns = read_start.unwrap_or(0);
        if let (Some(root), Some(start)) = (trace_root, read_start) {
            imt_obs::trace::record_stage("net.read", Some(root), start, imt_obs::trace::now_ns());
        }
        let decode_start = read_start.map(|_| imt_obs::trace::now_ns());
        let net_request = match NetRequest::decode(view.payload) {
            Ok(req) => req,
            Err(e) => {
                // Still framed: answer the id with a typed refusal.
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let refusal = NetResponse::refusal(
                    request_id,
                    "",
                    RemoteError::BadRequest {
                        detail: e.to_string(),
                    },
                );
                if queue_refusal(conn, request_id, &refusal) {
                    return true;
                }
                continue;
            }
        };
        if let (Some(root), Some(start)) = (trace_root, decode_start) {
            imt_obs::trace::record_stage("net.decode", Some(root), start, imt_obs::trace::now_ns());
        }
        let request = match build_request(&net_request) {
            Ok(request) => request.with_trace_root(trace_root, opened_ns),
            Err(detail) => {
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                imt_obs::trace::instant_under("net.bad_request", trace_root);
                imt_obs::trace::close_root("net.request", trace_root, opened_ns);
                let refusal = NetResponse::refusal(
                    request_id,
                    &net_request.kernel,
                    RemoteError::BadRequest { detail },
                );
                if queue_refusal(conn, request_id, &refusal) {
                    return true;
                }
                continue;
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let spec = Arc::clone(&request.spec);
        match service.submit(request) {
            Ok(ticket) => {
                // Answered at admission (a result-memo hit): the frame
                // joins this wake's write, with no worker, mailbox or
                // eventfd wake.
                if let Some(response) = ticket.try_take() {
                    let write_start = trace_root.map(|_| imt_obs::trace::now_ns());
                    if queue_response(conn, request_id, &NetResponse::from_response(&response)) {
                        return true;
                    }
                    stats.responses.fetch_add(1, Ordering::Relaxed);
                    if let Some(start) = write_start {
                        imt_obs::trace::record_stage(
                            "net.write",
                            trace_root,
                            start,
                            imt_obs::trace::now_ns(),
                        );
                    }
                    continue;
                }
                conn.in_flight += 1;
                let mailbox = Arc::clone(mailbox);
                // The worker thread runs this at fulfill time: encode
                // off the reactor thread, then wake the reactor to
                // write. No thread parks waiting for it.
                ticket.on_ready(move |response| {
                    let net_response = NetResponse::from_response(&response);
                    let mut frame = Vec::new();
                    if Frame::encode_parts_into(
                        FrameKind::Response,
                        request_id,
                        &net_response.encode(),
                        &mut frame,
                    )
                    .is_ok()
                    {
                        mailbox.push_completion(Completion {
                            token,
                            frame,
                            trace_root,
                        });
                    }
                });
            }
            Err(e) => {
                // Typed admission refusal (Overloaded, QuotaExceeded,
                // Shutdown): written straight back, no job exists.
                let refusal =
                    NetResponse::refusal(request_id, &spec.name, RemoteError::from_serve(&e));
                if queue_refusal(conn, request_id, &refusal) {
                    return true;
                }
            }
        }
    }
}

/// Encodes a response on the reactor thread into the connection's reused
/// scratch and queues it for the wake's flush. Returns `true` when the
/// frame cannot be encoded (the connection must be closed).
fn queue_response(conn: &mut ConnState, request_id: u64, response: &NetResponse) -> bool {
    let mut scratch = std::mem::take(&mut conn.encode_scratch);
    scratch.clear();
    let encoded = Frame::encode_parts_into(
        FrameKind::Response,
        request_id,
        &response.encode(),
        &mut scratch,
    );
    if encoded.is_ok() {
        conn.queue_bytes(&scratch);
    }
    conn.encode_scratch = scratch;
    encoded.is_err()
}

/// Queues a refusal and flushes it at once. Returns `true` when the
/// connection is dead.
fn queue_refusal(conn: &mut ConnState, request_id: u64, refusal: &NetResponse) -> bool {
    queue_response(conn, request_id, refusal) || conn.flush().is_err()
}
