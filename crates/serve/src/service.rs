//! The worker pool: admission, batch-coalesced dispatch, per-request
//! execution, and shutdown.
//!
//! A [`Service`] owns a [`crate::queue::JobQueue`] and a fixed set of
//! worker threads. Each worker repeatedly pops a batch (oldest job plus
//! everything queued against the same kernel key), warms that kernel's
//! fetch-edge profile *once* — shared in process via a memo and across
//! processes via [`imt_core::profile_cache`] — and then serves each
//! request in the batch independently: encode, replay-evaluate, and
//! (when the request carries a fault plan) fault-replay with fail-closed
//! semantics. A panicking request is contained with `catch_unwind` and
//! answered as [`ServeError::Panicked`]; its batch-mates are unaffected.
//!
//! The warm also builds the kernel's [`ProgramAnalysis`] and
//! [`ReplayBasis`], and the warmed kernel keeps one [`PreparedCodec`] per
//! codec setting it has served, so a request runs only the per-request
//! stages: [`imt_core::pipeline::select`] and replay against the basis.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::collections::HashMap;
use std::sync::Mutex;

use imt_core::eval::{evaluate_auto_with, ReplayBasis};
use imt_core::pipeline::select;
use imt_core::scheme::{build_scheme, evaluate_scheme_auto_with, SchemeSpec};
use imt_core::{
    profile_cache, CodecSettings, CoreError, EncoderConfig, PreparedCodec, ProgramAnalysis,
};
use imt_fault::trace::{self, FetchTrace};
use imt_isa::Program;
use imt_kernels::KernelSpec;
use imt_sim::edge::FetchEdgeProfile;

use crate::cancel::CancellationToken;
use crate::queue::{Job, JobQueue, PushRefusal};
use crate::quota::TenantQuotas;
use crate::request::{Completed, FaultSummary, Request, Response, Slot, Ticket};
use crate::shard::ShardedMap;
use crate::sync::lock_clean;
use crate::ServeError;

/// Entries the result memo stops growing at. Real deployments see a
/// bounded set of (spec, config, needs) keys — the cap only matters if
/// a caller sweeps an unbounded parameter space, and then the memo
/// degrades to a warm working set rather than evicting. Each request
/// refused a slot is counted ([`StatsSnapshot::result_memo_full`]).
const RESULT_MEMO_CAP: usize = 4096;

/// Prepared codecs one warmed kernel keeps, one per codec setting (block
/// size, transform set, overlap, chain strategy). A sweep over block
/// sizes needs a handful; once full, a request prepares its codec without
/// storing it, and is counted ([`StatsSnapshot::codec_memo_full`]).
const CODEC_MEMO_CAP: usize = 32;

/// What happens when a request arrives and the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Block the submitting thread until space opens — backpressure by
    /// stalling the producer. The default.
    #[default]
    Block,
    /// Refuse immediately with [`ServeError::Overloaded`] — load
    /// shedding the caller can react to (retry, divert, drop).
    Reject,
}

/// Service tuning. Built with the `with_*` methods; every default is
/// safe for tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    admission: Admission,
    default_deadline: Option<Duration>,
    delivery_latency: Option<Duration>,
    memo_shards: usize,
    tenant_quota: Option<usize>,
    result_memo: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            admission: Admission::Block,
            default_deadline: None,
            delivery_latency: None,
            memo_shards: 16,
            tenant_quota: None,
            result_memo: true,
        }
    }
}

impl ServiceConfig {
    /// Worker threads (minimum 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers.max(1);
        self
    }

    /// Queue bound (minimum 1). This is the backpressure point: work
    /// beyond it blocks or is shed per [`ServiceConfig::with_admission`].
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Most requests one dequeue will coalesce into a batch (minimum 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> ServiceConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Admission discipline when the queue is full.
    #[must_use]
    pub fn with_admission(mut self, admission: Admission) -> ServiceConfig {
        self.admission = admission;
        self
    }

    /// Deadline applied to requests that do not carry their own.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Duration) -> ServiceConfig {
        self.default_deadline = Some(deadline);
        self
    }

    /// Models the blocking delivery leg: after a successful job, the
    /// worker stays occupied for this long, standing in for streaming
    /// the TT/BBIT images out over a device-programming link. The
    /// compute stays on one core either way; extra workers buy
    /// throughput exactly by overlapping this stall. `exp_serve` uses it
    /// to make worker-count scaling measurable and honest on a
    /// single-core host.
    #[must_use]
    pub fn with_delivery_latency(mut self, latency: Duration) -> ServiceConfig {
        self.delivery_latency = Some(latency);
        self
    }

    /// Shards the profile memo (and quota table) is split over, keyed
    /// by content hash (minimum 1, rounded up to a power of two). More
    /// shards mean less lock contention between connection handlers and
    /// workers warming different kernels.
    #[must_use]
    pub fn with_memo_shards(mut self, shards: usize) -> ServiceConfig {
        self.memo_shards = shards.max(1);
        self
    }

    /// Enables or disables the completed-result memo (on by default).
    /// Encoding and evaluation are deterministic, so two requests with
    /// the same [`Request::result_key`] produce bit-identical outcomes;
    /// the memo serves the repeat from a clone instead of re-running
    /// kernel math. Requests with a fault plan always re-execute.
    /// Disable to benchmark the raw execute path.
    #[must_use]
    pub fn with_result_memo(mut self, enabled: bool) -> ServiceConfig {
        self.result_memo = enabled;
        self
    }

    /// Caps any single tenant's in-flight requests (admitted but not
    /// yet answered) at `max_inflight`. A tenant at its cap is refused
    /// with the typed, retryable [`ServeError::QuotaExceeded`] so a hot
    /// client cannot monopolise the queue. Requests without a tenant
    /// are exempt.
    #[must_use]
    pub fn with_tenant_quota(mut self, max_inflight: usize) -> ServiceConfig {
        self.tenant_quota = Some(max_inflight.max(1));
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Configured batch cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

/// Monotonic counters the service keeps regardless of `IMT_OBS` — the
/// load generator and tests read these directly.
#[derive(Debug, Default)]
struct ServiceStats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    quota_rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    panicked: AtomicU64,
    poisoned: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    deadline_missed: AtomicU64,
    peak_depth: AtomicU64,
    result_memo_full: AtomicU64,
    codec_memo_hits: AtomicU64,
    codec_memo_misses: AtomicU64,
    codec_memo_full: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests refused at admission ([`ServeError::Overloaded`]).
    pub rejected: u64,
    /// Requests refused at the per-tenant quota gate
    /// ([`ServeError::QuotaExceeded`]); disjoint from `rejected`.
    pub quota_rejected: u64,
    /// Responses delivered with an `Ok` outcome.
    pub completed: u64,
    /// Responses delivered with an `Err` outcome (all causes).
    pub failed: u64,
    /// Jobs dropped via [`crate::request::Ticket::cancel`].
    pub cancelled: u64,
    /// Jobs whose deadline passed before pickup.
    pub expired: u64,
    /// Jobs that panicked in the worker (contained).
    pub panicked: u64,
    /// Jobs refused fail-closed after fault replay delivered wrong words.
    pub poisoned: u64,
    /// Batches dequeued.
    pub batches: u64,
    /// Jobs across all dequeued batches.
    pub batched_jobs: u64,
    /// Completed jobs that finished after their deadline.
    pub deadline_missed: u64,
    /// Deepest the queue has been.
    pub peak_depth: u64,
    /// Outcomes not memoized because the result memo was full (4096
    /// entries).
    pub result_memo_full: u64,
    /// TT/BBIT requests whose codec setting was already prepared for
    /// their kernel.
    pub codec_memo_hits: u64,
    /// TT/BBIT requests that prepared their codec setting afresh.
    pub codec_memo_misses: u64,
    /// Fresh codecs not kept because their kernel's codec memo was full
    /// (32 codec settings).
    pub codec_memo_full: u64,
}

impl StatsSnapshot {
    /// Mean jobs per dequeued batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_jobs as f64 / self.batches as f64
    }
}

/// One kernel's warmed execution context, shared by every request in
/// every batch against that kernel: the program, the encode and replay
/// stages that depend on nothing else, and the codecs prepared so far.
#[derive(Debug)]
struct WarmProfile {
    program: Program,
    /// The replay basis of the recorded profile; it also carries the
    /// per-index counts the profile-guided schemes build from.
    basis: ReplayBasis,
    /// The encode analysis, or why the program has none (its TT/BBIT
    /// requests fail with this error; the other schemes still serve).
    analysis: Result<ProgramAnalysis, CoreError>,
    /// Prepared codecs by setting, at most [`CODEC_MEMO_CAP`].
    codecs: Mutex<HashMap<CodecSettings, Arc<PreparedCodec>>>,
}

impl WarmProfile {
    /// The prepared codec for `config`'s setting: the kernel's memoized
    /// one, or a fresh one, kept while the memo has room.
    fn codec(
        &self,
        analysis: &ProgramAnalysis,
        config: &EncoderConfig,
        stats: &ServiceStats,
    ) -> Result<Arc<PreparedCodec>, CoreError> {
        let settings = CodecSettings::of(config);
        if let Some(hit) = lock_clean(&self.codecs).get(&settings) {
            stats.codec_memo_hits.fetch_add(1, Ordering::Relaxed);
            if imt_obs::enabled() {
                imt_obs::counter!("serve.codec_memo_hits").inc();
            }
            return Ok(Arc::clone(hit));
        }
        stats.codec_memo_misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(PreparedCodec::new(analysis, settings)?);
        let mut codecs = lock_clean(&self.codecs);
        if codecs.len() < CODEC_MEMO_CAP || codecs.contains_key(&settings) {
            // A racing request may have stored the setting first; every
            // later request then shares that one.
            return Ok(Arc::clone(codecs.entry(settings).or_insert(fresh)));
        }
        stats.codec_memo_full.fetch_add(1, Ordering::Relaxed);
        if imt_obs::enabled() {
            imt_obs::counter!("serve.codec_memo_full").inc();
        }
        Ok(fresh)
    }
}

#[derive(Debug)]
struct ServiceInner {
    config: ServiceConfig,
    queue: JobQueue,
    next_id: AtomicU64,
    stats: ServiceStats,
    /// The warmed-profile memo, sharded by content hash of the batch
    /// key so concurrent warms of different kernels never contend on
    /// one lock (see [`crate::shard`]).
    profiles: ShardedMap<Arc<Result<WarmProfile, ServeError>>>,
    /// The completed-result memo: outcomes keyed by
    /// [`Request::result_key`]. Execution is deterministic, so a repeat
    /// request is answered from a clone of the first outcome instead of
    /// re-running encode + eval (see [`ServiceConfig::with_result_memo`]).
    results: ShardedMap<Arc<Result<Completed, ServeError>>>,
    /// Per-tenant in-flight caps, when configured.
    quotas: Option<TenantQuotas>,
}

/// The running service: submit jobs, read stats, shut down.
#[derive(Debug)]
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool.
    pub fn start(config: ServiceConfig) -> Service {
        let inner = Arc::new(ServiceInner {
            queue: JobQueue::new(config.queue_capacity),
            next_id: AtomicU64::new(0),
            stats: ServiceStats::default(),
            profiles: ShardedMap::new(config.memo_shards),
            results: ShardedMap::new(config.memo_shards),
            quotas: config
                .tenant_quota
                .map(|cap| TenantQuotas::new(cap, config.memo_shards)),
            config,
        });
        let workers = (0..inner.config.workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("imt-serve-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawning a worker thread")
            })
            .collect();
        Service { inner, workers }
    }

    /// Submits one request. Under [`Admission::Block`] this waits for
    /// queue space; under [`Admission::Reject`] a full queue returns
    /// [`ServeError::Overloaded`] immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] (rejecting admission, queue full) or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::default());
        let cancel = CancellationToken::new();
        let now = Instant::now();
        let deadline = request
            .deadline
            .or(inner.config.default_deadline)
            .map(|d| now + d);
        // Each request is one trace root (`IMT_OBS=trace` only). A
        // front-end that already opened one (the network layer, at
        // frame-read start) is adopted so the timeline covers the wire
        // work too; otherwise it is opened here. Either way it is
        // closed by whoever fulfills the ticket.
        let trace_ctx = request.trace_root.or_else(imt_obs::trace::open_trace);
        let submitted_ns = if trace_ctx.is_none() {
            0
        } else if request.trace_root.is_some() && request.trace_root_opened_ns > 0 {
            request.trace_root_opened_ns
        } else {
            imt_obs::trace::now_ns()
        };
        // The fairness gate runs before queue admission: a tenant at
        // its in-flight cap is refused typed even if the queue has
        // room, so queue capacity stays available to other tenants.
        if let (Some(quotas), Some(tenant)) = (&inner.quotas, &request.tenant) {
            if let Err((in_flight, limit)) = quotas.try_acquire(tenant) {
                inner.stats.quota_rejected.fetch_add(1, Ordering::Relaxed);
                if imt_obs::enabled() {
                    imt_obs::counter!("serve.quota_rejected").inc();
                }
                imt_obs::trace::instant_under("serve.quota_refused", trace_ctx);
                imt_obs::trace::close_root("serve.request", trace_ctx, submitted_ns);
                return Err(ServeError::QuotaExceeded {
                    tenant: tenant.clone(),
                    in_flight,
                    limit,
                });
            }
        }
        let job = Job {
            id,
            batch_key: request.batch_key(),
            request,
            slot: Arc::clone(&slot),
            cancel: cancel.clone(),
            submitted: now,
            deadline,
            trace: trace_ctx,
            submitted_ns,
        };
        match inner.config.admission {
            Admission::Reject => {
                if let Err((job, refusal)) = inner.queue.try_push(job) {
                    inner.release_quota(&job.request);
                    imt_obs::trace::instant_under("serve.admission_refused", job.trace);
                    imt_obs::trace::close_root("serve.request", job.trace, job.submitted_ns);
                    return Err(match refusal {
                        PushRefusal::Full { depth, capacity } => {
                            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            if imt_obs::enabled() {
                                imt_obs::counter!("serve.rejected").inc();
                            }
                            ServeError::Overloaded { depth, capacity }
                        }
                        PushRefusal::Closed => ServeError::ShuttingDown,
                    });
                }
            }
            Admission::Block => {
                if let Err(job) = inner.queue.push_wait(job) {
                    inner.release_quota(&job.request);
                    imt_obs::trace::instant_under("serve.admission_refused", job.trace);
                    imt_obs::trace::close_root("serve.request", job.trace, job.submitted_ns);
                    return Err(ServeError::ShuttingDown);
                }
            }
        }
        imt_obs::trace::instant_under("serve.enqueue", trace_ctx);
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = inner.queue.depth() as u64;
        inner.stats.peak_depth.fetch_max(depth, Ordering::Relaxed);
        if imt_obs::enabled() {
            imt_obs::counter!("serve.submitted").inc();
            imt_obs::gauge!("serve.queue_depth").set(depth);
            imt_obs::gauge!("serve.queue_peak").set_max(depth);
        }
        Ok(Ticket::new(id, slot, cancel))
    }

    /// Jobs currently queued (not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Distinct kernel instances warmed into the sharded profile memo.
    pub fn profile_memo_entries(&self) -> usize {
        self.inner.profiles.len()
    }

    /// Distinct completed outcomes held in the result memo.
    pub fn result_memo_entries(&self) -> usize {
        self.inner.results.len()
    }

    /// Prepared codecs held across every warmed kernel's codec memo.
    pub fn codec_memo_entries(&self) -> usize {
        self.inner
            .profiles
            .values()
            .iter()
            .filter_map(|warmed| warmed.as_ref().as_ref().ok())
            .map(|warm| lock_clean(&warm.codecs).len())
            .sum()
    }

    /// A copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        StatsSnapshot {
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            quota_rejected: s.quota_rejected.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            expired: s.expired.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            poisoned: s.poisoned.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_jobs: s.batched_jobs.load(Ordering::Relaxed),
            deadline_missed: s.deadline_missed.load(Ordering::Relaxed),
            peak_depth: s.peak_depth.load(Ordering::Relaxed),
            result_memo_full: s.result_memo_full.load(Ordering::Relaxed),
            codec_memo_hits: s.codec_memo_hits.load(Ordering::Relaxed),
            codec_memo_misses: s.codec_memo_misses.load(Ordering::Relaxed),
            codec_memo_full: s.codec_memo_full.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting work, fails still-queued jobs with
    /// [`ServeError::ShuttingDown`], waits for in-flight batches to
    /// finish, and joins the workers. Every outstanding
    /// [`Ticket`] is fulfilled — with its result if the job was already
    /// executing, with the shutdown refusal otherwise.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.inner.queue.close();
        for job in self.inner.queue.drain() {
            self.inner.refuse(job, ServeError::ShuttingDown, usize::MAX);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.finish();
    }
}

impl ServiceInner {
    /// Returns a tenant's quota slot once its request is answered (any
    /// outcome). A no-op for untenanted requests or unquota'd services.
    fn release_quota(&self, request: &Request) {
        if let (Some(quotas), Some(tenant)) = (&self.quotas, &request.tenant) {
            quotas.release(tenant);
        }
    }

    /// Fails a job before execution and fulfills its ticket. Every
    /// refusal counts as `failed`; cancellations and expiries also keep
    /// their own counter.
    fn refuse(&self, job: Job, error: ServeError, worker: usize) {
        self.stats.failed.fetch_add(1, Ordering::Relaxed);
        match &error {
            ServeError::Cancelled => {
                self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            ServeError::DeadlineExceeded => {
                self.stats.expired.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if imt_obs::enabled() {
            imt_obs::counter!("serve.failed").inc();
            match &error {
                ServeError::Cancelled => imt_obs::counter!("serve.cancelled").inc(),
                ServeError::DeadlineExceeded => {
                    imt_obs::counter!("serve.deadline_expired").inc();
                }
                _ => {}
            }
        }
        let queue_ns = job.submitted.elapsed().as_nanos() as u64;
        // Refused requests still close their trace root: the timeline
        // shows the queue wait that ended in a refusal.
        imt_obs::trace::instant_under("serve.refuse", job.trace);
        imt_obs::trace::close_root("serve.request", job.trace, job.submitted_ns);
        // Release before fulfilling: a caller that waits on its ticket
        // and immediately resubmits must find its quota slot free.
        self.release_quota(&job.request);
        job.slot.fulfill(Response {
            id: job.id,
            kernel: job.request.spec.name.clone(),
            block_size: job.request.config.block_size(),
            outcome: Err(error),
            queue_ns,
            service_ns: 0,
            batch_size: 1,
            worker,
            missed_deadline: false,
        });
    }

    /// The kernel's warmed profile, memoized per batch key in the
    /// sharded memo. Both successes and failures are memoized:
    /// profiling is deterministic, so a kernel that failed once will
    /// fail identically again.
    fn warm(&self, key: &str, spec: &KernelSpec) -> Arc<Result<WarmProfile, ServeError>> {
        if let Some(hit) = self.profiles.get(key) {
            if imt_obs::enabled() {
                imt_obs::counter!("serve.profile_memo_hits").inc();
            }
            return hit;
        }
        let warmed = {
            let _span = imt_obs::span!("serve.profile_warm");
            // `assemble` panics on malformed source; contain it as a
            // typed profile failure so the batch is answered, not lost.
            match catch_unwind(AssertUnwindSafe(|| warm_uncached(spec))) {
                Ok(result) => result,
                Err(payload) => Err(ServeError::ProfileFailed {
                    kernel: spec.name.clone(),
                    detail: panic_detail(payload.as_ref()),
                }),
            }
        };
        // Two workers can race the same cold key; either result is
        // valid (profiling is deterministic), keep the first inserted.
        self.profiles.insert_first(key, Arc::new(warmed))
    }
}

/// Records (or loads from the on-disk cache) one kernel's fetch-edge
/// profile, checks its output against the golden model, and builds the
/// kernel's replay basis and encode analysis. The service's fallible
/// counterpart to `imt_bench::kernel_profile`, which panics instead — a
/// server refuses the job, it does not die.
fn warm_uncached(spec: &KernelSpec) -> Result<WarmProfile, ServeError> {
    let program = spec.assemble();
    let caching = profile_cache::enabled();
    let disk_hit = if caching {
        profile_cache::load(&program, spec.max_steps)
            .filter(|edges| edges.stdout() == spec.expected_output)
    } else {
        None
    };
    let edges = match disk_hit {
        Some(edges) => edges,
        None => {
            let recorded = FetchEdgeProfile::record(&program, spec.max_steps).map_err(|e| {
                ServeError::ProfileFailed {
                    kernel: spec.name.clone(),
                    detail: e.to_string(),
                }
            })?;
            if recorded.stdout() != spec.expected_output {
                return Err(ServeError::ProfileMismatch {
                    kernel: spec.name.clone(),
                });
            }
            if caching {
                if let Err(e) = profile_cache::store(&program, spec.max_steps, &recorded) {
                    eprintln!("imt-serve: could not cache profile for {}: {e}", spec.name);
                }
            }
            recorded
        }
    };
    let basis = ReplayBasis::new(&program, &edges).map_err(|e| ServeError::ProfileFailed {
        kernel: spec.name.clone(),
        detail: e.to_string(),
    })?;
    Ok(WarmProfile {
        analysis: ProgramAnalysis::new(&program, basis.per_index()),
        basis,
        program,
        codecs: Mutex::new(HashMap::new()),
    })
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(inner: &ServiceInner, worker: usize) {
    while let Some(batch) = inner.queue.pop_batch(inner.config.max_batch) {
        if imt_obs::enabled() {
            imt_obs::gauge!("serve.queue_depth").set(inner.queue.depth() as u64);
            imt_obs::counter!("serve.batches").inc();
            imt_obs::registry::histogram("serve.batch_size").observe(batch.len() as u64);
        }
        inner.stats.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .stats
            .batched_jobs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let _span = imt_obs::span!("serve.batch");

        // Triage before warming: cancelled and already-expired jobs are
        // answered without paying for the profile.
        let now = Instant::now();
        let mut runnable: Vec<Job> = Vec::with_capacity(batch.len());
        for job in batch {
            if job.cancel.is_cancelled() {
                inner.refuse(job, ServeError::Cancelled, worker);
            } else if job.deadline.is_some_and(|d| now > d) {
                inner.refuse(job, ServeError::DeadlineExceeded, worker);
            } else {
                runnable.push(job);
            }
        }
        let Some(first) = runnable.first() else {
            continue;
        };
        let warm_started = Instant::now();
        let warmed = inner.warm(&first.batch_key, &first.request.spec);
        let warm_elapsed = warm_started.elapsed().as_nanos() as u64;
        if imt_obs::enabled() {
            imt_obs::registry::histogram("serve.stage.warm_ns").observe(warm_elapsed);
        }
        // The warm ran once for the whole batch; attribute its interval
        // to every request it unblocked so each span tree is complete.
        if imt_obs::trace_enabled() {
            let warm_end = imt_obs::trace::now_ns();
            let warm_start = warm_end.saturating_sub(warm_elapsed);
            for job in &runnable {
                imt_obs::trace::record_stage("serve.warm", job.trace, warm_start, warm_end);
            }
        }
        let batch_size = runnable.len();
        for job in runnable {
            serve_job(inner, job, &warmed, batch_size, worker);
        }
    }
}

fn serve_job(
    inner: &ServiceInner,
    job: Job,
    warmed: &Result<WarmProfile, ServeError>,
    batch_size: usize,
    worker: usize,
) {
    // Last cancellation / deadline check point: the warm may have taken
    // a while, and batch-mates before this job may have too.
    if job.cancel.is_cancelled() {
        inner.refuse(job, ServeError::Cancelled, worker);
        return;
    }
    if job.deadline.is_some_and(|d| Instant::now() > d) {
        inner.refuse(job, ServeError::DeadlineExceeded, worker);
        return;
    }
    let picked = Instant::now();
    let queue_ns = (picked - job.submitted).as_nanos() as u64;
    // Queue wait ends here: submission → this worker picking the job up
    // (after batch coalescing and the shared warm).
    if imt_obs::trace_enabled() {
        imt_obs::trace::record_stage(
            "serve.queue_wait",
            job.trace,
            job.submitted_ns,
            imt_obs::trace::now_ns(),
        );
    }
    // Adopt the request's trace context on this worker thread so the
    // encode/eval spans below (and everything under them, down to the
    // sliced codec) parent into the request's tree.
    let texec = imt_obs::trace::span_under("serve.execute", job.trace);
    let span = imt_obs::span!("serve.request");
    let outcome = match warmed {
        Err(profile_error) => Err(profile_error.clone()),
        Ok(warm) => {
            let memo_key = inner
                .config
                .result_memo
                .then(|| job.request.result_key())
                .flatten();
            match memo_key.as_deref().and_then(|key| inner.results.get(key)) {
                Some(hit) => {
                    if imt_obs::enabled() {
                        imt_obs::counter!("serve.result_memo_hits").inc();
                    }
                    (*hit).clone()
                }
                None => {
                    let computed = match catch_unwind(AssertUnwindSafe(|| {
                        execute(warm, &job.request, &inner.stats)
                    })) {
                        Ok(result) => result,
                        Err(payload) => Err(ServeError::Panicked {
                            detail: panic_detail(payload.as_ref()),
                        }),
                    };
                    match memo_key {
                        // Don't memoize panics (the one nondeterministic
                        // outcome) or grow past the cap; everything else
                        // — success or typed failure — is deterministic
                        // and serves every repeat. `insert_first` keeps
                        // the canonical value if two workers raced.
                        Some(key) if !matches!(computed, Err(ServeError::Panicked { .. })) => {
                            if inner.results.len() < RESULT_MEMO_CAP {
                                (*inner.results.insert_first(&key, Arc::new(computed))).clone()
                            } else {
                                inner.stats.result_memo_full.fetch_add(1, Ordering::Relaxed);
                                if imt_obs::enabled() {
                                    imt_obs::counter!("serve.result_memo_full").inc();
                                }
                                computed
                            }
                        }
                        _ => computed,
                    }
                }
            }
        }
    };
    if outcome.is_ok() {
        if let Some(latency) = inner.config.delivery_latency {
            std::thread::sleep(latency);
        }
    }
    let service_ns = picked.elapsed().as_nanos() as u64;
    let missed_deadline = job.deadline.is_some_and(|d| Instant::now() > d);
    match &outcome {
        Ok(_) => {
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            if missed_deadline {
                inner.stats.deadline_missed.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(e) => {
            inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            match e {
                ServeError::Panicked { .. } => {
                    inner.stats.panicked.fetch_add(1, Ordering::Relaxed);
                }
                ServeError::Poisoned { .. } => {
                    inner.stats.poisoned.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }
    if imt_obs::enabled() {
        match &outcome {
            Ok(_) => imt_obs::counter!("serve.completed").inc(),
            Err(e) => {
                imt_obs::counter!("serve.failed").inc();
                if matches!(e, ServeError::Panicked { .. }) {
                    imt_obs::counter!("serve.panicked").inc();
                }
            }
        }
        if missed_deadline {
            imt_obs::counter!("serve.deadline_missed").inc();
        }
        imt_obs::registry::histogram("serve.queue_ns").observe(queue_ns);
        imt_obs::registry::histogram("serve.service_ns").observe(service_ns);
    }
    // Release before fulfilling: a caller that waits on its ticket and
    // immediately resubmits must find its quota slot free.
    inner.release_quota(&job.request);
    job.slot.fulfill(Response {
        id: job.id,
        kernel: job.request.spec.name.clone(),
        block_size: job.request.config.block_size(),
        outcome,
        queue_ns,
        service_ns,
        batch_size,
        worker,
        missed_deadline,
    });
    // Close children before the root so the request's span tree nests
    // cleanly: root (submit → respond) ⊇ execute ⊇ encode/eval.
    drop(span);
    drop(texec);
    imt_obs::trace::instant_under("serve.respond", job.trace);
    imt_obs::trace::close_root("serve.request", job.trace, job.submitted_ns);
}

/// One request's actual work, given its kernel's warmed profile: select
/// and replay, plus the codec preparation the first request per codec
/// setting pays. Its only effects are the returned outcome and the codec
/// memo (with its counters in `stats`).
fn execute(
    warm: &WarmProfile,
    request: &Request,
    stats: &ServiceStats,
) -> Result<Completed, ServeError> {
    if request.panic_in_worker {
        panic!("poisoned job (panic_in_worker test hook)");
    }
    // Non-default schemes route through the arena's trait surface; the
    // TT/BBIT default continues below on the original pipeline, byte
    // for byte.
    if request.scheme != SchemeSpec::TtBbit {
        return execute_scheme(warm, request);
    }
    let encode_started = Instant::now();
    let encoded = {
        let _span = imt_obs::span!("serve.encode");
        let analysis = warm.analysis.as_ref().map_err(Clone::clone)?;
        let codec = warm.codec(analysis, &request.config, stats)?;
        select(analysis, &codec, &request.config)?
    };
    let encode_ns = encode_started.elapsed().as_nanos() as u64;
    let eval_started = Instant::now();
    let (evaluation, path) = {
        let _span = imt_obs::span!("serve.eval");
        evaluate_auto_with(
            &warm.program,
            &encoded,
            request.spec.max_steps,
            Some(&warm.basis),
            request.needs,
        )?
    };
    let eval_ns = eval_started.elapsed().as_nanos() as u64;
    observe_stages(encode_ns, eval_ns);
    let fault = match &request.fault_plan {
        None => None,
        Some(plan) => {
            let fault_trace = FetchTrace::record(
                &warm.program,
                &encoded,
                request.spec.max_steps,
                request.fault_window,
            )?;
            let replayed = trace::replay(&fault_trace, &encoded, request.protection, plan)?;
            if replayed.wrong_words > 0 {
                return Err(ServeError::Poisoned {
                    wrong_words: replayed.wrong_words,
                });
            }
            Some(FaultSummary {
                injected: replayed.injected,
                detected: replayed.detected,
                corrected: replayed.corrected,
                degraded_fetches: replayed.degraded_fetches,
                retained_reduction_percent: replayed.reduction_percent(),
            })
        }
    };
    Ok(Completed {
        evaluation,
        path,
        encoded_blocks: encoded.report.encoded.len(),
        fault,
    })
}

/// Records one request's encode and eval stage times; `execute` and
/// `execute_scheme` both feed the same `serve.stage.*` histograms.
fn observe_stages(encode_ns: u64, eval_ns: u64) {
    if imt_obs::enabled() {
        imt_obs::registry::histogram("serve.stage.encode_ns").observe(encode_ns);
        imt_obs::registry::histogram("serve.stage.eval_ns").observe(eval_ns);
    }
}

/// Executes a non-TT/BBIT request through the [`imt_core::scheme`]
/// arena: build the encoder, score it via the auto router (cycle-state
/// schemes go to full simulation), and surface the result in the same
/// [`Completed`] shape. Fault plans are a TT/BBIT table concern and are
/// refused here rather than silently ignored.
fn execute_scheme(warm: &WarmProfile, request: &Request) -> Result<Completed, ServeError> {
    if request.fault_plan.is_some() {
        return Err(ServeError::Fault {
            detail: format!(
                "fault plans target TT/BBIT tables; scheme `{}` has none",
                request.scheme.name()
            ),
        });
    }
    let encode_started = Instant::now();
    let mut scheme = {
        let _span = imt_obs::span!("serve.encode");
        build_scheme(
            request.scheme,
            &warm.program,
            warm.basis.per_index(),
            &request.config,
        )?
    };
    let encode_ns = encode_started.elapsed().as_nanos() as u64;
    let eval_started = Instant::now();
    let (evaluation, path) = {
        let _span = imt_obs::span!("serve.eval");
        evaluate_scheme_auto_with(
            scheme.as_mut(),
            &warm.program,
            request.spec.max_steps,
            Some(&warm.basis),
            request.needs,
        )?
    };
    let eval_ns = eval_started.elapsed().as_nanos() as u64;
    observe_stages(encode_ns, eval_ns);
    Ok(Completed {
        evaluation: evaluation.to_evaluation(),
        path,
        // The alternative schemes have no block schedule; zero keeps the
        // field honest rather than inventing a TT-shaped count.
        encoded_blocks: 0,
        fault: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_core::encode_program;
    use imt_core::eval::{evaluate_auto, EvalNeeds, EvalPath};
    use imt_kernels::Kernel;

    fn request(kernel: Kernel) -> Request {
        Request::new(kernel.test_spec(), EncoderConfig::default())
    }

    /// What a direct serial pipeline produces for the same request — the
    /// reference the service must match bit for bit.
    fn serial_reference(req: &Request) -> imt_core::eval::Evaluation {
        let program = req.spec.assemble();
        let edges =
            FetchEdgeProfile::record(&program, req.spec.max_steps).expect("reference run succeeds");
        let encoded = encode_program(&program, &edges.per_index_counts(), &req.config)
            .expect("reference encode succeeds");
        let (evaluation, _) = evaluate_auto(
            &program,
            &encoded,
            req.spec.max_steps,
            Some(&edges),
            EvalNeeds::transitions_only(),
        )
        .expect("reference evaluation succeeds");
        evaluation
    }

    #[test]
    fn serves_a_request_bit_identically_to_serial() {
        let req = request(Kernel::Tri);
        let reference = serial_reference(&req);
        let service = Service::start(ServiceConfig::default().with_workers(1));
        let ticket = service.submit(req).expect("queue open");
        let response = ticket.wait();
        let done = response.outcome.expect("tri serves");
        assert_eq!(done.evaluation, reference);
        assert_eq!(done.evaluation.decode_mismatches, 0);
        assert!(done.encoded_blocks > 0);
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        service.shutdown();
    }

    #[test]
    fn serves_alternative_schemes_and_refuses_faults_on_them() {
        use imt_core::scheme::{build_scheme, evaluate_scheme_auto, SchemeSpec};
        let spec = Kernel::Tri.test_spec();
        // Reference: the arena's own auto evaluation, run serially.
        let program = spec.assemble();
        let edges =
            FetchEdgeProfile::record(&program, spec.max_steps).expect("reference run succeeds");
        let config = EncoderConfig::default();
        let mut scheme = build_scheme(
            SchemeSpec::Gray,
            &program,
            &edges.per_index_counts(),
            &config,
        )
        .expect("gray build is total");
        let (reference, _) = evaluate_scheme_auto(
            scheme.as_mut(),
            &program,
            spec.max_steps,
            Some(&edges),
            EvalNeeds::transitions_only(),
        )
        .expect("reference gray evaluation succeeds");

        let service = Service::start(ServiceConfig::default().with_workers(1));
        let ticket = service
            .submit(request(Kernel::Tri).with_scheme(SchemeSpec::Gray))
            .expect("queue open");
        let done = ticket.wait().outcome.expect("gray serves");
        assert_eq!(done.evaluation, reference.to_evaluation());
        assert_eq!(done.encoded_blocks, 0, "gray has no block schedule");

        // A cycle-state scheme must come back from full simulation.
        let ticket = service
            .submit(request(Kernel::Tri).with_scheme(SchemeSpec::BusInvert))
            .expect("queue open");
        let done = ticket.wait().outcome.expect("businvert serves");
        assert!(matches!(done.path, EvalPath::FullSim(_)));

        // Fault plans target TT/BBIT tables; other schemes refuse them.
        let faulty = request(Kernel::Tri)
            .with_scheme(SchemeSpec::Gray)
            .with_faults(
                imt_fault::plan::FaultPlan::parse("0:text:0:0").expect("plan parses"),
                imt_core::Protection::None,
            );
        let ticket = service.submit(faulty).expect("queue open");
        let err = ticket.wait().outcome.expect_err("fault plan refused");
        assert!(matches!(err, ServeError::Fault { .. }), "{err:?}");
        service.shutdown();
    }

    #[test]
    fn coalesces_same_kernel_jobs_into_one_batch() {
        // One worker held busy by the delivery stall while four same-key
        // jobs queue behind it: the next dequeue must take all four.
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_delivery_latency(Duration::from_millis(150)),
        );
        let head = service.submit(request(Kernel::Tri)).expect("queue open");
        std::thread::sleep(Duration::from_millis(30));
        let tickets: Vec<_> = (0..4)
            .map(|_| service.submit(request(Kernel::Tri)).expect("queue open"))
            .collect();
        assert_eq!(head.wait().batch_size, 1);
        for ticket in tickets {
            let response = ticket.wait();
            response.outcome.expect("tri serves");
            assert_eq!(response.batch_size, 4, "jobs should share one batch");
        }
        let stats = service.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.batched_jobs, 5);
        service.shutdown();
    }

    #[test]
    fn rejecting_admission_sheds_load_with_typed_overload() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_admission(Admission::Reject)
                .with_delivery_latency(Duration::from_millis(150)),
        );
        let head = service.submit(request(Kernel::Tri)).expect("accepted");
        std::thread::sleep(Duration::from_millis(30));
        let queued = service.submit(request(Kernel::Tri)).expect("fills queue");
        let refused = service
            .submit(request(Kernel::Tri))
            .expect_err("queue full");
        assert_eq!(
            refused,
            ServeError::Overloaded {
                depth: 1,
                capacity: 1
            }
        );
        assert_eq!(service.stats().rejected, 1);
        head.wait().outcome.expect("head serves");
        queued.wait().outcome.expect("queued job serves");
        service.shutdown();
    }

    #[test]
    fn deadline_expired_in_queue_fails_without_executing() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_delivery_latency(Duration::from_millis(120)),
        );
        let head = service.submit(request(Kernel::Tri)).expect("accepted");
        std::thread::sleep(Duration::from_millis(30));
        let doomed = service
            .submit(request(Kernel::Tri).with_deadline(Duration::from_millis(1)))
            .expect("accepted");
        let response = doomed.wait();
        assert_eq!(response.outcome, Err(ServeError::DeadlineExceeded));
        assert_eq!(response.service_ns, 0, "must not have executed");
        head.wait().outcome.expect("head serves");
        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.failed, 1);
        service.shutdown();
    }

    #[test]
    fn cancellation_drops_a_queued_job() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_delivery_latency(Duration::from_millis(120)),
        );
        let head = service.submit(request(Kernel::Tri)).expect("accepted");
        std::thread::sleep(Duration::from_millis(30));
        let ticket = service.submit(request(Kernel::Tri)).expect("accepted");
        ticket.cancel();
        let response = ticket.wait();
        assert_eq!(response.outcome, Err(ServeError::Cancelled));
        head.wait().outcome.expect("head serves");
        assert_eq!(service.stats().cancelled, 1);
        service.shutdown();
    }

    #[test]
    fn a_panicking_job_does_not_take_down_its_batch() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_delivery_latency(Duration::from_millis(150)),
        );
        let head = service.submit(request(Kernel::Tri)).expect("accepted");
        std::thread::sleep(Duration::from_millis(30));
        let mut poisoned_req = request(Kernel::Tri);
        poisoned_req.panic_in_worker = true;
        let poisoned = service.submit(poisoned_req).expect("accepted");
        let mates: Vec<_> = (0..2)
            .map(|_| service.submit(request(Kernel::Tri)).expect("accepted"))
            .collect();
        head.wait().outcome.expect("head serves");
        let response = poisoned.wait();
        match response.outcome {
            Err(ServeError::Panicked { detail }) => {
                assert!(detail.contains("panic_in_worker"), "got: {detail}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        for mate in mates {
            let mate = mate.wait();
            assert_eq!(mate.batch_size, 3, "all three shared the batch");
            mate.outcome.expect("batch-mates unaffected by the panic");
        }
        let stats = service.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 3);
        service.shutdown();
    }

    #[test]
    fn golden_divergence_refuses_the_whole_batch_typed() {
        let mut spec = Kernel::Tri.test_spec();
        spec.name = "tri-tampered".to_string();
        spec.expected_output = "not what tri prints".to_string();
        let service = Service::start(ServiceConfig::default().with_workers(1));
        let ticket = service
            .submit(Request::new(spec, EncoderConfig::default()))
            .expect("accepted");
        match ticket.wait().outcome {
            Err(ServeError::ProfileMismatch { kernel }) => assert_eq!(kernel, "tri-tampered"),
            other => panic!("expected ProfileMismatch, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_jobs_closed_and_finishes_in_flight_work() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_delivery_latency(Duration::from_millis(150)),
        );
        let in_flight = service.submit(request(Kernel::Tri)).expect("accepted");
        std::thread::sleep(Duration::from_millis(30));
        let queued = service.submit(request(Kernel::Tri)).expect("accepted");
        service.shutdown();
        in_flight.wait().outcome.expect("in-flight job completed");
        assert_eq!(queued.wait().outcome, Err(ServeError::ShuttingDown));
    }

    #[test]
    fn tenant_quota_refuses_typed_and_frees_on_completion() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_tenant_quota(1)
                .with_delivery_latency(Duration::from_millis(60)),
        );
        let held = service
            .submit(request(Kernel::Tri).with_tenant("hot"))
            .expect("first request admitted");
        match service
            .submit(request(Kernel::Tri).with_tenant("hot"))
            .expect_err("tenant at its cap")
        {
            ServeError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => {
                assert_eq!(tenant, "hot");
                assert_eq!((in_flight, limit), (1, 1));
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Other tenants and untenanted requests are unaffected by one
        // tenant's saturation.
        let other = service
            .submit(request(Kernel::Tri).with_tenant("cold"))
            .expect("other tenant admitted");
        let exempt = service.submit(request(Kernel::Tri)).expect("exempt");
        assert_eq!(service.stats().quota_rejected, 1);
        held.wait().outcome.expect("held request serves");
        // The slot is released before the ticket is fulfilled, so a
        // resubmit straight after wait() must be admitted.
        let again = service
            .submit(request(Kernel::Tri).with_tenant("hot"))
            .expect("slot freed once the response was delivered");
        other.wait().outcome.expect("other tenant serves");
        exempt.wait().outcome.expect("exempt request serves");
        again.wait().outcome.expect("resubmit serves");
        service.shutdown();
    }

    #[test]
    fn quota_slot_is_returned_on_refusals_too() {
        // A cancelled job never executes, but its quota slot must still
        // free — otherwise refusals would leak the tenant's budget.
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_tenant_quota(1)
                .with_delivery_latency(Duration::from_millis(60)),
        );
        let head = service.submit(request(Kernel::Tri)).expect("accepted");
        std::thread::sleep(Duration::from_millis(20));
        let doomed = service
            .submit(request(Kernel::Tri).with_tenant("t"))
            .expect("accepted");
        doomed.cancel();
        assert_eq!(doomed.wait().outcome, Err(ServeError::Cancelled));
        let next = service
            .submit(request(Kernel::Tri).with_tenant("t"))
            .expect("slot freed by the refusal");
        head.wait().outcome.expect("head serves");
        next.wait().outcome.expect("next serves");
        service.shutdown();
    }

    #[test]
    fn sharded_memo_warms_each_kernel_once_across_workers() {
        let service = Service::start(ServiceConfig::default().with_workers(4).with_memo_shards(8));
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let kernel = if i % 2 == 0 { Kernel::Tri } else { Kernel::Fft };
                service.submit(request(kernel)).expect("accepted")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().outcome.expect("serves");
        }
        assert_eq!(service.stats().completed, 8);
        service.shutdown();
    }

    /// A repeat of an identical request is served from the result memo
    /// and must be bit-identical to the first (executed) outcome.
    #[test]
    fn result_memo_serves_repeats_bit_identically() {
        let service = Service::start(ServiceConfig::default().with_workers(1));
        let first = service
            .submit(request(Kernel::Tri))
            .expect("accepted")
            .wait()
            .outcome
            .expect("tri serves");
        assert_eq!(service.result_memo_entries(), 1);
        let repeat = service
            .submit(request(Kernel::Tri))
            .expect("accepted")
            .wait()
            .outcome
            .expect("tri serves again");
        assert_eq!(repeat.evaluation, first.evaluation);
        assert_eq!(repeat.encoded_blocks, first.encoded_blocks);
        assert_eq!(
            service.result_memo_entries(),
            1,
            "repeat must not re-insert"
        );
        service.shutdown();
    }

    /// Different encoder configs are different outcomes: the memo must
    /// key on the config, not just the spec.
    #[test]
    fn result_memo_separates_configs() {
        let service = Service::start(ServiceConfig::default().with_workers(1));
        for k in [4usize, 5] {
            let config = EncoderConfig::default()
                .with_block_size(k)
                .expect("valid block size");
            let req = Request::new(Kernel::Tri.test_spec(), config);
            service
                .submit(req)
                .expect("accepted")
                .wait()
                .outcome
                .expect("serves");
        }
        assert_eq!(service.result_memo_entries(), 2);
        service.shutdown();
    }

    /// Fault-plan requests bypass the memo in both directions: they are
    /// never cached, and never served from cache.
    #[test]
    fn result_memo_skips_fault_plans() {
        use imt_core::Protection;
        use imt_fault::plan::{FaultPlan, FaultTarget};
        let service = Service::start(ServiceConfig::default().with_workers(1));
        let faulted = request(Kernel::Tri).with_faults(
            FaultPlan::single(0, FaultTarget::Tt { entry: 0, bit: 0 }),
            Protection::Parity,
        );
        let done = service
            .submit(faulted)
            .expect("accepted")
            .wait()
            .outcome
            .expect("detected fault degrades");
        assert!(done.fault.is_some());
        assert_eq!(
            service.result_memo_entries(),
            0,
            "fault replay never cached"
        );
        service.shutdown();
    }

    /// The off switch: with the memo disabled every repeat re-executes
    /// and nothing is stored.
    #[test]
    fn result_memo_can_be_disabled() {
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_result_memo(false),
        );
        for _ in 0..2 {
            service
                .submit(request(Kernel::Tri))
                .expect("accepted")
                .wait()
                .outcome
                .expect("serves");
        }
        assert_eq!(service.result_memo_entries(), 0);
        service.shutdown();
    }

    #[test]
    fn fault_plan_with_detection_degrades_gracefully() {
        use imt_core::Protection;
        use imt_fault::plan::{FaultPlan, FaultTarget};
        // Parity protection detects a single TT data bit flip: the entry
        // is quarantined, fetches degrade to original words, and the job
        // still completes with a fault summary attached.
        let req = request(Kernel::Tri).with_faults(
            FaultPlan::single(0, FaultTarget::Tt { entry: 0, bit: 0 }),
            Protection::Parity,
        );
        let service = Service::start(ServiceConfig::default().with_workers(1));
        let ticket = service.submit(req).expect("accepted");
        let done = ticket.wait().outcome.expect("detected fault degrades");
        let fault = done.fault.expect("fault summary attached");
        assert_eq!(fault.injected, 1);
        assert_eq!(fault.detected, 1);
        service.shutdown();
    }

    #[test]
    fn unprotected_fault_fails_closed_as_poisoned() {
        use imt_core::Protection;
        use imt_fault::plan::{FaultPlan, FaultTarget};
        let req = request(Kernel::Tri).with_faults(
            FaultPlan::single(0, FaultTarget::Tt { entry: 0, bit: 0 }),
            Protection::None,
        );
        let service = Service::start(ServiceConfig::default().with_workers(1));
        let ticket = service.submit(req).expect("accepted");
        match ticket.wait().outcome {
            Err(ServeError::Poisoned { wrong_words }) => assert!(wrong_words > 0),
            // An unprotected flip that happens to land on an unused
            // entry would not corrupt; entry 0 of tri's TT is used.
            other => panic!("expected Poisoned, got {other:?}"),
        }
        assert_eq!(service.stats().poisoned, 1);
        service.shutdown();
    }

    /// Serves `configs` (Tri, test scale) in order, waiting for each
    /// answer.
    fn serve_all(service: &Service, configs: &[EncoderConfig]) -> Vec<Completed> {
        configs
            .iter()
            .map(|config| {
                service
                    .submit(Request::new(Kernel::Tri.test_spec(), *config))
                    .expect("accepted")
                    .wait()
                    .outcome
                    .expect("tri serves")
            })
            .collect()
    }

    /// The one-shot pipeline's answer for `config` on Tri.
    fn reference_for(
        program: &Program,
        edges: &FetchEdgeProfile,
        config: &EncoderConfig,
    ) -> Completed {
        let spec = Kernel::Tri.test_spec();
        let encoded = encode_program(program, &edges.per_index_counts(), config)
            .expect("reference encode succeeds");
        let (evaluation, path) = evaluate_auto(
            program,
            &encoded,
            spec.max_steps,
            Some(edges),
            EvalNeeds::transitions_only(),
        )
        .expect("reference evaluation succeeds");
        Completed {
            evaluation,
            path,
            encoded_blocks: encoded.report.encoded.len(),
            fault: None,
        }
    }

    /// More codec settings than the codec memo holds: every answer equals
    /// the one-shot pipeline's, the memo keeps the first
    /// [`CODEC_MEMO_CAP`] settings, and each fresh setting past it is
    /// counted.
    #[test]
    fn codec_memo_stops_at_its_cap_and_counts_refusals() {
        use imt_bitcode::block::OverlapHistory;
        use imt_bitcode::stream::ChainStrategy;
        use imt_bitcode::TransformSet;
        let mut configs = Vec::new();
        for transforms in [TransformSet::CANONICAL_EIGHT, TransformSet::ALL_SIXTEEN] {
            for overlap in [OverlapHistory::Stored, OverlapHistory::Decoded] {
                for strategy in [ChainStrategy::Greedy, ChainStrategy::Optimal] {
                    for k in 2..=7 {
                        let config = EncoderConfig::default()
                            .with_block_size(k)
                            .and_then(|c| c.with_transforms(transforms))
                            .expect("valid settings")
                            .with_overlap(overlap)
                            .with_strategy(strategy);
                        configs.push(config);
                    }
                }
            }
        }
        let settings = configs.len();
        assert!(settings > CODEC_MEMO_CAP);
        let service = Service::start(
            ServiceConfig::default()
                .with_workers(1)
                .with_result_memo(false),
        );
        let answers = serve_all(&service, &configs);
        let stats = service.stats();
        assert_eq!(stats.codec_memo_misses, settings as u64);
        assert_eq!(stats.codec_memo_full, (settings - CODEC_MEMO_CAP) as u64);
        assert_eq!(service.codec_memo_entries(), CODEC_MEMO_CAP);

        // The stored settings are hits; the ones past the cap prepare
        // again, and every answer stays the one-shot pipeline's.
        let again = serve_all(&service, &configs);
        assert_eq!(again, answers);
        let stats = service.stats();
        assert_eq!(stats.codec_memo_hits, CODEC_MEMO_CAP as u64);
        assert_eq!(
            stats.codec_memo_full,
            2 * (settings - CODEC_MEMO_CAP) as u64
        );
        assert_eq!(service.codec_memo_entries(), CODEC_MEMO_CAP);
        let spec = Kernel::Tri.test_spec();
        let program = spec.assemble();
        let edges = FetchEdgeProfile::record(&program, spec.max_steps).expect("tri records");
        for (config, answer) in configs.iter().zip(&answers) {
            assert_eq!(
                *answer,
                reference_for(&program, &edges, config),
                "{config:?}"
            );
        }
        service.shutdown();
    }

    /// More distinct requests than the result memo holds: the memo stops
    /// at [`RESULT_MEMO_CAP`], each outcome refused a slot is counted, and
    /// answers past the cap stay right.
    #[test]
    fn result_memo_stops_at_its_cap_and_counts_refusals() {
        let configs: Vec<EncoderConfig> = (0..=64)
            .flat_map(|tt| (0..=64).map(move |bbit| (tt, bbit)))
            .take(RESULT_MEMO_CAP + 8)
            .map(|(tt, bbit)| {
                EncoderConfig::default()
                    .with_tt_capacity(tt)
                    .with_bbit_capacity(bbit)
            })
            .collect();
        let service = Service::start(ServiceConfig::default().with_workers(2));
        let answers = serve_all(&service, &configs);
        assert_eq!(service.result_memo_entries(), RESULT_MEMO_CAP);
        assert_eq!(service.stats().result_memo_full, 8);
        // Past the cap a repeat re-executes and is refused a slot again.
        let tail = &configs[RESULT_MEMO_CAP..];
        assert_eq!(serve_all(&service, tail), answers[RESULT_MEMO_CAP..]);
        assert_eq!(service.result_memo_entries(), RESULT_MEMO_CAP);
        assert_eq!(service.stats().result_memo_full, 16);
        let spec = Kernel::Tri.test_spec();
        let program = spec.assemble();
        let edges = FetchEdgeProfile::record(&program, spec.max_steps).expect("tri records");
        for (config, answer) in configs
            .iter()
            .zip(&answers)
            .step_by(97)
            .chain(tail.iter().zip(&answers[RESULT_MEMO_CAP..]))
        {
            assert_eq!(
                *answer,
                reference_for(&program, &edges, config),
                "{config:?}"
            );
        }
        service.shutdown();
    }
}
