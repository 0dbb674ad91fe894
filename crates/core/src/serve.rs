//! The serving core: a shared fetch worker pool plus admission
//! control, multiplexing every in-flight query's node batches over a
//! fixed thread budget.
//!
//! # Why a shared pool
//!
//! A thread per contacted node per query would cost `Q × N` spawns
//! and joins for `Q` concurrent clients on an `N`-node cluster, with
//! nothing bounding `Q`. The paper's query-server tier is exactly the
//! component that must multiplex many clients over a fixed resource
//! budget, so the fetch stage ([`plan`](crate::plan)) is a thin client
//! of two long-lived pieces owned by the store:
//!
//! * **[`FetchPool`]** — a fixed set of workers draining one run
//!   queue of batch jobs. A round submits exactly its node batches;
//!   the pool sizes nothing for it. Each job ships one node batch,
//!   blocks for the reply, decodes the chunks it delivered — decode
//!   overlaps other batches' I/O — and sends its outcome to the query
//!   thread that submitted it. Because a fetch job spends most of its
//!   life blocked on a node round trip (I/O-bound, not CPU-bound),
//!   the pool is sized `max(worker_count(fetch_threads), 2 × nodes)`
//!   when `fetch_threads` is 0: flooring at twice the node count keeps
//!   every node's request queue fed even on a single-core host, where
//!   sizing by cores alone would serialize the scatter-gather.
//! * **[`Admission`]** — a bounded in-flight budget in front of the
//!   pool. At most `max_concurrent_queries` queries execute at once;
//!   up to `max_queued` more wait in FIFO order, in two priority
//!   classes (small spans ahead of large ones, so point lookups are
//!   not stuck behind full-version scans); beyond that the query is
//!   shed with [`CoreError::Overloaded`] instead of piling more work
//!   onto a saturated backend. Queue time is measured and charged to
//!   [`QueryStats::queue_wait`](crate::query::QueryStats::queue_wait).
//!
//! Snapshot isolation composes with admission rather than living
//! here: a query pins its
//! [`StoreSnapshot`](crate::store::StoreSnapshot) generation at plan
//! time, so the pin rides in the
//! [`QueryPlan`](crate::plan::QueryPlan) across the admission queue
//! and the fetch rounds — a query waiting out a full in-flight
//! budget keeps its planned generation alive (deferring reclamation)
//! rather than observing whatever generation is current when a pool
//! slot frees up.
//!
//! # What the pool owes a round
//!
//! Nothing but running its jobs: the pool knows no rounds. A round's
//! barrier is the channel its jobs report on (see
//! [`plan`](crate::plan)) — a worker that catches a panicking job
//! drops the job, and with it the job's sender, so the round that
//! submitted it ends one outcome short instead of hanging, and the
//! worker lives on for the next query.

use crate::error::CoreError;
use crate::obs::MetricsRegistry;
use rustc_hash::FxHashSet;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A queued unit of fetch work: ship one node batch and decode
/// whatever became complete.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared run queue behind [`FetchPool`]: a plain FIFO under one
/// mutex. Jobs are coarse (a full node round trip each), so queue
/// contention is negligible next to the work they carry.
#[derive(Default)]
struct RunQueue {
    /// `(jobs, closed)`; `closed` tells idle workers to exit once the
    /// queue drains.
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

/// A fixed pool of fetch workers multiplexing every in-flight query's
/// node batches over one run queue.
///
/// The pool is created lazily on a store's first pooled execution and
/// lives until the store drops; total fetch threads are bounded by
/// [`FetchPool::size`] no matter how many queries run concurrently.
/// Dropping the pool closes the queue and joins every worker.
pub struct FetchPool {
    queue: Arc<RunQueue>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    jobs_run: Arc<AtomicU64>,
}

impl FetchPool {
    /// Starts `size` workers (clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let queue = Arc::new(RunQueue::default());
        let jobs_run = Arc::new(AtomicU64::new(0));
        let workers = (0..size)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let jobs_run = Arc::clone(&jobs_run);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut state = queue.state.lock().unwrap();
                        loop {
                            if let Some(job) = state.0.pop_front() {
                                break job;
                            }
                            if state.1 {
                                return;
                            }
                            state = queue.ready.wait(state).unwrap();
                        }
                    };
                    // Counted when taken up, so once a round has heard
                    // from every job it submitted, all are counted.
                    jobs_run.fetch_add(1, Ordering::Relaxed);
                    // A panicking job must not kill the worker: the
                    // pool is shared by every future query. Unwinding
                    // drops the job's sender, so the owning query's
                    // round still ends (and surfaces the missing chunk
                    // as an error).
                    let _ = catch_unwind(AssertUnwindSafe(job));
                })
            })
            .collect();
        Self {
            queue,
            workers,
            size,
            jobs_run,
        }
    }

    /// Enqueues a job; some worker will run it in FIFO order.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.queue.state.lock().unwrap();
        state.0.push_back(Box::new(job));
        self.queue.ready.notify_one();
    }

    /// The fixed worker count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Jobs the workers have taken up over the pool's lifetime.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run.load(Ordering::Relaxed)
    }
}

impl Drop for FetchPool {
    fn drop(&mut self) {
        self.queue.state.lock().unwrap().1 = true;
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Spans at or below this many chunks queue in the small (priority)
/// admission class: point lookups and narrow ranges overtake queued
/// full-version scans, large spans among themselves stay FIFO.
pub const SMALL_SPAN_MAX: usize = 8;

struct AdmissionState {
    in_flight: usize,
    /// High-water marks of `in_flight` and of the queues' depth.
    peak_in_flight: usize,
    peak_queued: usize,
    /// Queued tickets, small spans ahead of large ones.
    small: VecDeque<u64>,
    large: VecDeque<u64>,
    /// Tickets whose slot was handed over by a finishing query but
    /// whose owner has not woken up yet.
    granted: FxHashSet<u64>,
    next_ticket: u64,
}

/// Bounded admission in front of the fetch pool: at most
/// `max_in_flight` queries execute concurrently, at most `max_queued`
/// wait (small spans first), everything beyond is shed with
/// [`CoreError::Overloaded`].
///
/// Slots hand over directly: a finishing query's [`AdmitGuard`] pops
/// the next queued ticket (small class first) and grants it the freed
/// slot, so the queues are non-empty only while every slot is taken
/// and FIFO order within a class is exact. The gate keeps only its
/// occupancy; admissions, sheds and queue waits are counted by the
/// store's execute funnel, which sees every outcome.
pub struct Admission {
    max_in_flight: usize,
    max_queued: usize,
    state: Mutex<AdmissionState>,
    granted_cv: Condvar,
}

impl Admission {
    /// Creates an admission gate (`max_in_flight` clamped to ≥ 1).
    pub fn new(max_in_flight: usize, max_queued: usize) -> Self {
        Self {
            max_in_flight: max_in_flight.max(1),
            max_queued,
            state: Mutex::new(AdmissionState {
                in_flight: 0,
                peak_in_flight: 0,
                peak_queued: 0,
                small: VecDeque::new(),
                large: VecDeque::new(),
                granted: FxHashSet::default(),
                next_ticket: 0,
            }),
            granted_cv: Condvar::new(),
        }
    }

    /// Admits a query of `span` chunks: immediately when a slot is
    /// free, after a FIFO wait when only queue room is left, or
    /// [`CoreError::Overloaded`] when both are full. The returned
    /// guard holds the slot until dropped.
    pub fn admit(&self, span: usize) -> Result<AdmitGuard<'_>, CoreError> {
        self.admit_within(span, None)
    }

    /// [`Admission::admit`] with an optional queueing budget: a query
    /// still waiting when `deadline` elapses withdraws its ticket and
    /// fails with [`CoreError::DeadlineExceeded`] (queue wait is the
    /// only cost in its partial stats) instead of occupying queue
    /// room it can no longer use. `None` waits indefinitely.
    pub fn admit_within(
        &self,
        span: usize,
        deadline: Option<Duration>,
    ) -> Result<AdmitGuard<'_>, CoreError> {
        let arrived = Instant::now();
        let mut state = self.state.lock().unwrap();
        if state.in_flight < self.max_in_flight {
            // Queues are non-empty only while all slots are taken
            // (freed slots hand over directly), so admitting here
            // never overtakes a queued query.
            state.in_flight += 1;
            state.peak_in_flight = state.peak_in_flight.max(state.in_flight);
            return Ok(AdmitGuard {
                admission: self,
                waited: Duration::ZERO,
            });
        }
        if state.small.len() + state.large.len() >= self.max_queued {
            return Err(CoreError::Overloaded);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        if span <= SMALL_SPAN_MAX {
            state.small.push_back(ticket);
        } else {
            state.large.push_back(ticket);
        }
        let queued = state.small.len() + state.large.len();
        state.peak_queued = state.peak_queued.max(queued);
        // Grants and timeouts are both decided under the state lock, so
        // a ticket granted a slot is always observed by the loop
        // condition before the deadline branch can withdraw it — a
        // timed-out query never leaks an in-flight slot.
        while !state.granted.remove(&ticket) {
            let Some(budget) = deadline else {
                state = self.granted_cv.wait(state).unwrap();
                continue;
            };
            let elapsed = arrived.elapsed();
            if elapsed >= budget {
                state.small.retain(|&t| t != ticket);
                state.large.retain(|&t| t != ticket);
                return Err(CoreError::DeadlineExceeded {
                    budget,
                    spent: elapsed,
                    partial: Box::new(crate::query::QueryStats {
                        queue_wait: elapsed,
                        ..Default::default()
                    }),
                });
            }
            state = self
                .granted_cv
                .wait_timeout(state, budget - elapsed)
                .unwrap()
                .0;
        }
        Ok(AdmitGuard {
            admission: self,
            waited: arrived.elapsed(),
        })
    }

    /// Queries currently waiting in the admission queue (both
    /// classes).
    pub fn queued(&self) -> usize {
        let state = self.state.lock().unwrap();
        state.small.len() + state.large.len()
    }

}

/// An admitted query's slot; dropping it releases the slot to the
/// next queued query (small-span class first).
pub struct AdmitGuard<'a> {
    admission: &'a Admission,
    waited: Duration,
}

impl AdmitGuard<'_> {
    /// How long this query waited in the admission queue.
    pub fn waited(&self) -> Duration {
        self.waited
    }
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.admission.state.lock().unwrap();
        state.in_flight -= 1;
        if state.in_flight < self.admission.max_in_flight {
            let next = {
                let s = &mut *state;
                s.small.pop_front().or_else(|| s.large.pop_front())
            };
            if let Some(ticket) = next {
                state.in_flight += 1;
                state.peak_in_flight = state.peak_in_flight.max(state.in_flight);
                state.granted.insert(ticket);
                self.admission.granted_cv.notify_all();
            }
        }
    }
}

/// A snapshot of the serving core
/// ([`RStore::serve_stats`](crate::store::RStore::serve_stats)): the
/// gate's and the pool's own state plus a view of the registry's
/// admission cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Fetch-pool worker count (0 until the first pooled execution
    /// starts the pool).
    pub pool_size: usize,
    /// Batch jobs the pool's workers have taken up.
    pub jobs_run: u64,
    /// Queries admitted (immediately or after queueing).
    pub admitted: u64,
    /// Queries shed with [`CoreError::Overloaded`].
    pub shed: u64,
    /// Queries executing right now.
    pub in_flight: usize,
    /// Most queries ever executing at once.
    pub peak_in_flight: usize,
    /// Deepest the admission queue has been.
    pub peak_queued: usize,
    /// Total time admitted queries spent waiting in the queue — the
    /// queue-wait histogram's sum, so zero under `obs_enabled(false)`.
    pub total_queue_wait: Duration,
}

/// The per-store serving core: admission gate plus the lazily started
/// fetch pool. Owned by `RStore`; queries borrow it through
/// `RStore::execute`.
pub(crate) struct ServeCore {
    pool: OnceLock<FetchPool>,
    /// Worker count the pool will start with (resolved at store
    /// construction from `fetch_threads` and the cluster size).
    pool_size: usize,
    admission: Admission,
}

impl ServeCore {
    /// Resolves the pool size for a store: an explicit
    /// `fetch_threads` is honoured exactly; `0` sizes by cores but
    /// floors at `2 × nodes`, because fetch jobs are I/O-bound (they
    /// block on a node round trip) and a pool smaller than the node
    /// count would serialize the scatter-gather on small hosts.
    pub(crate) fn pool_size_for(fetch_threads: usize, nodes: usize) -> usize {
        if fetch_threads > 0 {
            fetch_threads
        } else {
            crate::plan::worker_count(0).max(2 * nodes).max(1)
        }
    }

    pub(crate) fn new(
        fetch_threads: usize,
        nodes: usize,
        max_concurrent_queries: usize,
        max_queued: usize,
    ) -> Self {
        Self {
            pool: OnceLock::new(),
            pool_size: Self::pool_size_for(fetch_threads, nodes),
            admission: Admission::new(max_concurrent_queries, max_queued),
        }
    }

    /// The fetch pool, started on first use.
    pub(crate) fn pool(&self) -> &FetchPool {
        self.pool.get_or_init(|| FetchPool::new(self.pool_size))
    }

    /// Admits a query of `span` chunks (blocking while the queue has
    /// room, shedding once it does not) under an optional queueing
    /// budget (the store threads a query deadline here; `None` waits
    /// indefinitely).
    pub(crate) fn admit_within(
        &self,
        span: usize,
        deadline: Option<Duration>,
    ) -> Result<AdmitGuard<'_>, CoreError> {
        self.admission.admit_within(span, deadline)
    }

    /// The serving core's state next to the admission cells of the
    /// store's registry `r`.
    pub(crate) fn stats(&self, r: &MetricsRegistry) -> ServeStats {
        let (pool_size, jobs_run) = match self.pool.get() {
            Some(pool) => (pool.size(), pool.jobs_run()),
            None => (0, 0),
        };
        let gate = self.admission.state.lock().unwrap();
        ServeStats {
            pool_size,
            jobs_run,
            admitted: r.admitted.get(),
            shed: r.shed.get(),
            in_flight: gate.in_flight,
            peak_in_flight: gate.peak_in_flight,
            peak_queued: gate.peak_queued,
            total_queue_wait: Duration::from_nanos(r.queue_wait.sum_nanos()),
        }
    }
}
