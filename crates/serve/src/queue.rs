//! A bounded multi-producer/multi-consumer job queue with batch-coalescing
//! dequeue.
//!
//! The queue is the service's backpressure point: its capacity bounds how
//! much work the service will hold, and [`JobQueue::try_push`] /
//! [`JobQueue::push_wait`] are the two admission disciplines built on it
//! (shed load with a typed refusal, or block the producer). Consumers pull
//! *batches*: [`JobQueue::pop_batch`] takes the oldest job plus every
//! queued job sharing its batch key, so one profile warm serves all of
//! them.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::cancel::CancellationToken;
use crate::request::{Request, Slot};
use crate::sync::{lock_clean, wait_clean};
use std::sync::Arc;

/// One queued unit of work: the request plus everything the worker needs
/// to answer it.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) request: Request,
    /// Precomputed [`Request::batch_key`] — dequeue compares it per
    /// queued job.
    pub(crate) batch_key: String,
    /// [`Request::result_key`], computed once at admission when the
    /// result memo is on (`None` otherwise, or when the request must
    /// re-execute).
    pub(crate) result_key: Option<String>,
    pub(crate) slot: Arc<Slot>,
    pub(crate) cancel: CancellationToken,
    pub(crate) submitted: Instant,
    /// Absolute deadline (submission + relative deadline), if any.
    pub(crate) deadline: Option<Instant>,
    /// Causal trace root for this request (`IMT_OBS=trace` only): the
    /// submitting thread opens it, the worker that answers closes it.
    pub(crate) trace: Option<imt_obs::trace::TraceCtx>,
    /// Trace-epoch submission timestamp (0 when tracing is off); the
    /// root span and the `serve.queue_wait` stage start here.
    pub(crate) submitted_ns: u64,
}

/// Why [`JobQueue::try_push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefusal {
    /// The queue was at capacity.
    Full { depth: usize, capacity: usize },
    /// The queue is closed (service shutting down).
    Closed,
}

#[derive(Debug)]
struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

/// The bounded queue itself. All methods are safe to call from any
/// thread; a poisoned lock is recovered through [`crate::sync`] (queue
/// state is valid after any panic because mutations are single-step —
/// the argument that module audits once for the whole crate).
#[derive(Debug)]
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity.min(1024)),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        lock_clean(&self.state)
    }

    /// Jobs currently queued.
    pub(crate) fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Whether the queue still admits work (not yet closed).
    pub(crate) fn is_open(&self) -> bool {
        self.lock().open
    }

    /// Non-blocking admission: enqueues or returns the job with the
    /// refusal reason.
    //
    // The large `Err` is the refused job handed back to the caller so it
    // can fulfil the ticket — an ownership round-trip, not an error
    // payload worth boxing.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, job: Job) -> Result<(), (Job, PushRefusal)> {
        let mut state = self.lock();
        if !state.open {
            return Err((job, PushRefusal::Closed));
        }
        let depth = state.jobs.len();
        if depth >= self.capacity {
            return Err((
                job,
                PushRefusal::Full {
                    depth,
                    capacity: self.capacity,
                },
            ));
        }
        state.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking admission: waits for space, enqueues, or returns the job
    /// if the queue closed while waiting.
    //
    // Same ownership round-trip as `try_push`.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push_wait(&self, job: Job) -> Result<(), Job> {
        let mut state = self.lock();
        while state.open && state.jobs.len() >= self.capacity {
            state = wait_clean(&self.not_full, state);
        }
        if !state.open {
            return Err(job);
        }
        state.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then returns the oldest job plus
    /// every queued job sharing its batch key, at most `max_batch` total,
    /// preserving queue order among both the batch and the jobs left
    /// behind. Returns `None` once the queue is closed *and* empty — the
    /// workers' exit signal.
    pub(crate) fn pop_batch(&self, max_batch: usize) -> Option<Vec<Job>> {
        let max_batch = max_batch.max(1);
        let mut state = self.lock();
        loop {
            if let Some(first) = state.jobs.pop_front() {
                let mut batch = Vec::with_capacity(max_batch.min(8));
                let key = first.batch_key.clone();
                batch.push(first);
                let mut index = 0;
                while batch.len() < max_batch && index < state.jobs.len() {
                    if state.jobs[index].batch_key == key {
                        if let Some(job) = state.jobs.remove(index) {
                            batch.push(job);
                        }
                    } else {
                        index += 1;
                    }
                }
                // Space opened up: wake every blocked producer that now
                // fits (batch dequeue can free more than one slot).
                self.not_full.notify_all();
                return Some(batch);
            }
            if !state.open {
                return None;
            }
            state = wait_clean(&self.not_empty, state);
        }
    }

    /// Closes the queue: pushes start failing, blocked producers and
    /// consumers wake. Queued jobs stay queued (drain or pop them).
    pub(crate) fn close(&self) {
        self.lock().open = false;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Removes and returns everything still queued. Used at shutdown to
    /// fail leftover jobs closed rather than strand their tickets.
    pub(crate) fn drain(&self) -> Vec<Job> {
        let mut state = self.lock();
        let drained = state.jobs.drain(..).collect();
        self.not_full.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imt_core::EncoderConfig;
    use imt_kernels::Kernel;

    fn job(id: u64, kernel: Kernel) -> Job {
        let request = Request::new(kernel.test_spec(), EncoderConfig::default());
        let batch_key = request.batch_key();
        Job {
            id,
            request,
            batch_key,
            result_key: None,
            slot: Arc::new(Slot::default()),
            cancel: CancellationToken::new(),
            submitted: Instant::now(),
            deadline: None,
            trace: None,
            submitted_ns: 0,
        }
    }

    #[test]
    fn try_push_refuses_at_capacity_with_depth() {
        let queue = JobQueue::new(2);
        queue.try_push(job(1, Kernel::Tri)).expect("below capacity");
        queue.try_push(job(2, Kernel::Tri)).expect("below capacity");
        let (refused, reason) = queue.try_push(job(3, Kernel::Tri)).expect_err("full");
        assert_eq!(refused.id, 3);
        assert_eq!(
            reason,
            PushRefusal::Full {
                depth: 2,
                capacity: 2
            }
        );
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn pop_batch_coalesces_same_key_and_preserves_order() {
        let queue = JobQueue::new(16);
        queue.try_push(job(1, Kernel::Tri)).expect("push");
        queue.try_push(job(2, Kernel::Fft)).expect("push");
        queue.try_push(job(3, Kernel::Tri)).expect("push");
        queue.try_push(job(4, Kernel::Fft)).expect("push");
        let batch = queue.pop_batch(8).expect("work queued");
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), [1, 3]);
        let batch = queue.pop_batch(8).expect("work queued");
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), [2, 4]);
    }

    #[test]
    fn pop_batch_respects_max_batch() {
        let queue = JobQueue::new(16);
        for id in 0..5 {
            queue.try_push(job(id, Kernel::Tri)).expect("push");
        }
        let batch = queue.pop_batch(3).expect("work queued");
        assert_eq!(batch.len(), 3);
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn closed_empty_queue_returns_none_and_refuses_pushes() {
        let queue = JobQueue::new(4);
        queue.try_push(job(1, Kernel::Tri)).expect("push");
        assert!(queue.is_open());
        queue.close();
        assert!(!queue.is_open());
        let (_, reason) = queue.try_push(job(2, Kernel::Tri)).expect_err("closed");
        assert_eq!(reason, PushRefusal::Closed);
        // Already-queued work is still served.
        assert_eq!(queue.pop_batch(8).expect("queued before close").len(), 1);
        assert!(queue.pop_batch(8).is_none());
    }

    #[test]
    #[allow(clippy::result_large_err)] // the closure returns push_wait's hand-back
    fn push_wait_blocks_until_consumer_frees_space() {
        let queue = JobQueue::new(1);
        queue.try_push(job(1, Kernel::Tri)).expect("push");
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| queue.push_wait(job(2, Kernel::Tri)));
            std::thread::sleep(std::time::Duration::from_millis(5));
            let batch = queue.pop_batch(1).expect("job 1");
            assert_eq!(batch[0].id, 1);
            producer
                .join()
                .expect("producer panicked")
                .expect("queue open");
        });
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    #[allow(clippy::result_large_err)] // the closure returns push_wait's hand-back
    fn push_wait_returns_job_when_closed_while_waiting() {
        let queue = JobQueue::new(1);
        queue.try_push(job(1, Kernel::Tri)).expect("push");
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| queue.push_wait(job(2, Kernel::Tri)));
            std::thread::sleep(std::time::Duration::from_millis(5));
            queue.close();
            let rejected = producer
                .join()
                .expect("producer panicked")
                .expect_err("queue closed");
            assert_eq!(rejected.id, 2);
        });
    }

    #[test]
    fn drain_empties_the_queue() {
        let queue = JobQueue::new(8);
        for id in 0..3 {
            queue.try_push(job(id, Kernel::Tri)).expect("push");
        }
        queue.close();
        let drained = queue.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(queue.depth(), 0);
        assert!(queue.pop_batch(8).is_none());
    }
}
