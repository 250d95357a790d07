//! The job surface: what a caller submits ([`Request`]), what comes back
//! ([`Response`] / [`Completed`]), and the handle in between ([`Ticket`]).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::sync::{lock_clean, wait_clean};

use imt_core::eval::{EvalNeeds, EvalPath, Evaluation};
use imt_core::scheme::SchemeSpec;
use imt_core::{EncoderConfig, Protection};
use imt_fault::plan::FaultPlan;
use imt_kernels::KernelSpec;

use crate::cancel::CancellationToken;
use crate::ServeError;

/// One encode/eval job: which kernel instance, how to encode it, what the
/// evaluation must cover, and how long the caller is willing to wait.
#[derive(Debug, Clone)]
pub struct Request {
    /// The kernel instance to encode and evaluate. The spec *is* the
    /// batching key: requests naming the same spec share one profile
    /// warm per batch. Shared, so a front-end can hand every request for
    /// a registry kernel the same [`imt_kernels::Kernel::shared_spec`].
    pub spec: Arc<KernelSpec>,
    /// The encoder configuration (block size, table capacities,
    /// transform set).
    pub config: EncoderConfig,
    /// Which encoding scheme to apply. [`SchemeSpec::TtBbit`] (the
    /// default) runs the paper's pipeline unchanged; the alternatives
    /// route through the [`imt_core::scheme`] arena — cycle-state
    /// schemes fall back to full simulation, never a stateless replay.
    pub scheme: SchemeSpec,
    /// What the evaluation must cover; anything beyond data-bus
    /// transitions routes to full simulation (see
    /// [`imt_core::eval::evaluate_auto`]).
    pub needs: EvalNeeds,
    /// Deadline relative to submission. `None` falls back to the
    /// service's default. A job past its deadline at pickup is failed
    /// without executing.
    pub deadline: Option<Duration>,
    /// Optional upsets to replay against the encoded image under
    /// [`Request::protection`]. Silent corruption fails the job closed
    /// ([`ServeError::Poisoned`]); detected-and-degraded decode is
    /// reported in [`Completed::fault`].
    pub fault_plan: Option<FaultPlan>,
    /// Table protection assumed by the fault replay.
    pub protection: Protection,
    /// Fetch window the fault replay records (bounded so a fault request
    /// costs O(window), not O(run)).
    pub fault_window: usize,
    /// Test hook: panic inside the worker instead of executing. Stands in
    /// for a poisoned job so tests and the load generator can prove the
    /// batch survives ([`ServeError::Panicked`] for this job only).
    pub panic_in_worker: bool,
    /// Who this request is billed to for per-tenant admission quotas
    /// ([`crate::service::ServiceConfig::with_tenant_quota`]). `None`
    /// is exempt from quotas — the pre-tenancy in-process semantics.
    pub tenant: Option<String>,
    /// A trace root opened by an upstream front-end (e.g. the network
    /// layer, at frame-read start). When set, the service parents its
    /// queue/warm/execute stages under it instead of opening its own
    /// root, so one timeline covers read → decode → queue → warm →
    /// encode → respond.
    pub trace_root: Option<imt_obs::trace::TraceCtx>,
    /// When the adopted [`Request::trace_root`] was opened
    /// (trace-epoch nanoseconds); the root span starts here, covering
    /// the upstream work that preceded submission. 0 = unknown.
    pub trace_root_opened_ns: u64,
}

impl Request {
    /// A plain transitions-only request with no deadline and no faults.
    /// Takes an owned [`KernelSpec`] or an already shared one.
    pub fn new(spec: impl Into<Arc<KernelSpec>>, config: EncoderConfig) -> Request {
        Request {
            spec: spec.into(),
            config,
            scheme: SchemeSpec::TtBbit,
            needs: EvalNeeds::transitions_only(),
            deadline: None,
            fault_plan: None,
            protection: Protection::None,
            fault_window: 20_000,
            panic_in_worker: false,
            tenant: None,
            trace_root: None,
            trace_root_opened_ns: 0,
        }
    }

    /// Sets a relative deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a fault plan replayed under `protection`.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan, protection: Protection) -> Request {
        self.fault_plan = Some(plan);
        self.protection = protection;
        self
    }

    /// Bills the request to `tenant` for per-tenant admission quotas.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Request {
        self.tenant = Some(tenant.into());
        self
    }

    /// Selects the encoding scheme (default [`SchemeSpec::TtBbit`]).
    #[must_use]
    pub fn with_scheme(mut self, scheme: SchemeSpec) -> Request {
        self.scheme = scheme;
        self
    }

    /// Adopts a trace root opened upstream (see [`Request::trace_root`]).
    #[must_use]
    pub fn with_trace_root(
        mut self,
        root: Option<imt_obs::trace::TraceCtx>,
        opened_ns: u64,
    ) -> Request {
        self.trace_root = root;
        self.trace_root_opened_ns = opened_ns;
        self
    }

    /// The key batches coalesce on: requests with equal keys share one
    /// profile warm. Spec names encode their parameters (`mmul-100`), so
    /// name + step budget identifies the recorded run.
    pub fn batch_key(&self) -> String {
        format!("{}#{}", self.spec.name, self.spec.max_steps)
    }

    /// The key completed results are memoized on, covering everything
    /// the outcome depends on: the spec (via [`Request::batch_key`]),
    /// the encoder configuration, the scheme, and the evaluation
    /// needs. `None`
    /// means the request must re-execute every time — it carries a
    /// fault plan (replay outcomes depend on the plan and protection)
    /// or the worker-panic test hook.
    pub fn result_key(&self) -> Option<String> {
        if self.fault_plan.is_some() || self.panic_in_worker {
            return None;
        }
        Some(format!(
            "{}|{:?}|{:?}|{:?}",
            self.batch_key(),
            self.config,
            self.scheme,
            self.needs
        ))
    }
}

/// Fault-replay outcome attached to a completed request that carried a
/// fault plan: the decode degraded gracefully (zero wrong words — a
/// silent outcome would have failed the job instead).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// Upsets injected by the plan.
    pub injected: u64,
    /// Upsets the check codes detected.
    pub detected: u64,
    /// Upsets corrected in place (SEC).
    pub corrected: u64,
    /// Fetches served from the degraded (original-word) path.
    pub degraded_fetches: u64,
    /// Transition reduction retained under the fault, in percent.
    pub retained_reduction_percent: f64,
}

/// The successful payload of a [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct Completed {
    /// The evaluation — bit-identical to a direct serial call for the
    /// same spec and configuration.
    pub evaluation: Evaluation,
    /// Which evaluation path served it.
    pub path: EvalPath,
    /// Blocks the schedule encoded.
    pub encoded_blocks: usize,
    /// Present when the request carried a fault plan: the graceful
    /// degradation measurement.
    pub fault: Option<FaultSummary>,
}

/// What the service returns for one request, success or not.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id [`crate::service::Service::submit`] assigned.
    pub id: u64,
    /// The kernel spec name, for correlation.
    pub kernel: String,
    /// The configured block size, for correlation.
    pub block_size: usize,
    /// The job's result: a completed evaluation or a typed refusal.
    pub outcome: Result<Completed, ServeError>,
    /// Nanoseconds from submission to worker pickup.
    pub queue_ns: u64,
    /// Nanoseconds spent executing (0 for jobs refused before execution).
    pub service_ns: u64,
    /// Requests in the batch this job was served in (1 for refusals at
    /// admission).
    pub batch_size: usize,
    /// Index of the worker that served it.
    pub worker: usize,
    /// The job completed, but after its deadline. Refusals *before*
    /// execution surface as [`ServeError::DeadlineExceeded`] instead.
    pub missed_deadline: bool,
}

impl Response {
    /// Total latency the caller observed, in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.queue_ns + self.service_ns
    }
}

/// What a [`Slot`] currently holds. The callback arm is what lets an
/// event-driven front-end (the net reactor) receive completions without
/// parking a thread per in-flight job: the worker's `fulfill` invokes
/// the watcher inline instead of signalling a condvar nobody waits on.
// Boxing the `Ready` response to even out the variant sizes would cost
// an allocation per fulfilment on the hot path; the inline size is the
// cheaper trade for a short-lived slot.
#[allow(clippy::large_enum_variant)]
#[derive(Default)]
enum SlotState {
    /// No response yet, nobody watching.
    #[default]
    Empty,
    /// Fulfilled; the response waits for `wait`/`try_take`.
    Ready(Response),
    /// A completion callback is armed; `fulfill` hands the response
    /// straight to it (outside the slot lock).
    Watched(Box<dyn FnOnce(Response) + Send>),
    /// The response has been delivered (taken or dispatched).
    Delivered,
}

impl std::fmt::Debug for SlotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SlotState::Empty => "Empty",
            SlotState::Ready(_) => "Ready",
            SlotState::Watched(_) => "Watched",
            SlotState::Delivered => "Delivered",
        })
    }
}

/// The slot a worker fulfills and a caller waits on (or watches). One
/// response per job, exactly once.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    pub(crate) fn fulfill(&self, response: Response) {
        let watcher = {
            let mut state = lock_clean(&self.state);
            match std::mem::take(&mut *state) {
                SlotState::Empty => {
                    *state = SlotState::Ready(response);
                    self.ready.notify_all();
                    None
                }
                SlotState::Watched(callback) => {
                    *state = SlotState::Delivered;
                    Some((callback, response))
                }
                already @ (SlotState::Ready(_) | SlotState::Delivered) => {
                    debug_assert!(false, "job fulfilled twice ({already:?})");
                    *state = already;
                    None
                }
            }
        };
        // The callback runs outside the slot lock so it may do real work
        // (encode a frame, wake an event loop) without deadlock risk.
        if let Some((callback, response)) = watcher {
            callback(response);
        }
    }
}

/// The caller's handle to one submitted job: await it, poll it, or cancel
/// it.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
    cancel: CancellationToken,
}

impl Ticket {
    pub(crate) fn new(id: u64, slot: Arc<Slot>, cancel: CancellationToken) -> Ticket {
        Ticket { id, slot, cancel }
    }

    /// The id the service assigned; matches [`Response::id`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation. A job not yet picked up is
    /// failed with [`ServeError::Cancelled`]; a job already executing
    /// completes normally.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the response arrives.
    ///
    /// # Panics
    ///
    /// Panics if the service was torn down without fulfilling the job —
    /// a service bug by construction ([`crate::service::Service`] drains
    /// its queue and fails leftover jobs closed on shutdown).
    pub fn wait(self) -> Response {
        let mut state = lock_clean(&self.slot.state);
        loop {
            match std::mem::take(&mut *state) {
                SlotState::Ready(response) => {
                    *state = SlotState::Delivered;
                    return response;
                }
                SlotState::Empty => {}
                other => {
                    *state = other;
                    unreachable!("wait() on a watched or delivered ticket");
                }
            }
            state = wait_clean(&self.slot.ready, state);
        }
    }

    /// Returns the response if it has already arrived, without blocking.
    pub fn try_take(&self) -> Option<Response> {
        let mut state = lock_clean(&self.slot.state);
        match std::mem::take(&mut *state) {
            SlotState::Ready(response) => {
                *state = SlotState::Delivered;
                Some(response)
            }
            other => {
                *state = other;
                None
            }
        }
    }

    /// Arms `callback` to run with the response the moment the worker
    /// fulfills the job — inline on the worker thread, after the slot
    /// lock is released. If the response already arrived, the callback
    /// runs immediately on the caller's thread. Consumes the ticket:
    /// exactly one of `wait`/`try_take`/`on_ready` delivers the
    /// response. This is the non-blocking completion path the network
    /// reactor uses instead of parking one thread per in-flight
    /// request.
    pub fn on_ready(self, callback: impl FnOnce(Response) + Send + 'static) {
        let immediate = {
            let mut state = lock_clean(&self.slot.state);
            match std::mem::take(&mut *state) {
                SlotState::Empty => {
                    *state = SlotState::Watched(Box::new(callback));
                    None
                }
                SlotState::Ready(response) => {
                    *state = SlotState::Delivered;
                    Some((callback, response))
                }
                other => {
                    *state = other;
                    unreachable!("on_ready() on a watched or delivered ticket");
                }
            }
        };
        if let Some((callback, response)) = immediate {
            callback(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_kernels::Kernel;

    fn request() -> Request {
        Request::new(Kernel::Tri.test_spec(), EncoderConfig::default())
    }

    fn response(id: u64) -> Response {
        Response {
            id,
            kernel: "tri-test".into(),
            block_size: 5,
            outcome: Err(ServeError::Cancelled),
            queue_ns: 10,
            service_ns: 5,
            batch_size: 1,
            worker: 0,
            missed_deadline: false,
        }
    }

    #[test]
    fn batch_key_separates_specs_not_configs() {
        let a = request();
        let mut b = request();
        b.config = EncoderConfig::default()
            .with_block_size(6)
            .expect("6 is a valid block size");
        assert_eq!(a.batch_key(), b.batch_key());
        let other = Request::new(Kernel::Fft.test_spec(), EncoderConfig::default());
        assert_ne!(a.batch_key(), other.batch_key());
    }

    #[test]
    fn ticket_try_take_then_wait() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket::new(7, Arc::clone(&slot), CancellationToken::new());
        assert!(ticket.try_take().is_none());
        slot.fulfill(response(7));
        let got = ticket.wait();
        assert_eq!(got.id, 7);
        assert_eq!(got.latency_ns(), 15);
    }

    #[test]
    fn wait_blocks_until_fulfilled_from_another_thread() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket::new(3, Arc::clone(&slot), CancellationToken::new());
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(move || ticket.wait());
            // Fulfill after the waiter has (very likely) parked; the wait
            // loop is correct either way.
            std::thread::sleep(Duration::from_millis(5));
            slot.fulfill(response(3));
            waiter.join().expect("waiter panicked")
        });
        assert_eq!(got.id, 3);
    }

    #[test]
    fn on_ready_armed_before_fulfill_fires_on_worker_thread() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket::new(9, Arc::clone(&slot), CancellationToken::new());
        let (tx, rx) = std::sync::mpsc::channel();
        ticket.on_ready(move |response| {
            tx.send(response.id).expect("receiver alive");
        });
        // Nothing fired yet — the callback waits for fulfill.
        assert!(rx.try_recv().is_err());
        slot.fulfill(response(9));
        assert_eq!(rx.recv().expect("callback fired"), 9);
    }

    #[test]
    fn on_ready_after_fulfill_fires_immediately() {
        let slot = Arc::new(Slot::default());
        let ticket = Ticket::new(4, Arc::clone(&slot), CancellationToken::new());
        slot.fulfill(response(4));
        let (tx, rx) = std::sync::mpsc::channel();
        ticket.on_ready(move |response| {
            tx.send(response.latency_ns()).expect("receiver alive");
        });
        assert_eq!(rx.try_recv().expect("fired inline"), 15);
    }

    #[test]
    fn cancel_reaches_the_shared_token() {
        let token = CancellationToken::new();
        let ticket = Ticket::new(1, Arc::new(Slot::default()), token.clone());
        ticket.cancel();
        assert!(token.is_cancelled());
    }
}
