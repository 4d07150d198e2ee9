//! The job server: a scheduler thread packing jobs onto a fleet of
//! worker threads, each owning one simulated [`RsuArray`].
//!
//! ```text
//!            submit()                 per-worker order channels
//! clients ────────────► scheduler ═══════════════════════► worker 0 (RsuArray)
//!                        thread  ◄═══════════════════════  worker 1 (RsuArray)
//!                           │        shared reply channel        ⋮
//!                           ├─ admission queue (priority + fair share)
//!                           ├─ result cache (spec digest → result)
//!                           ├─ preempt flags (one AtomicBool per slice)
//!                           └─ JSONL "job" event stream
//! ```
//!
//! Execution is sliced: a dispatch hands a worker at most
//! [`ServerConfig::quantum`] sweeps per job. Quantum expiry requeues the
//! job silently (it is still logically running); raising the slice's
//! preempt flag makes the worker yield at the next sweep boundary, the
//! job's state round-trips through the v1 checkpoint format (spooled
//! durably to disk when [`ServerConfig::spool_dir`] is set) and a
//! higher-priority job takes the array. Because chains are pure
//! functions of `(seed, iteration, site)` and models are pure functions
//! of the spec, results are bit-identical whatever the interleaving —
//! scheduling affects *when*, never *what*.
//!
//! Two capacity levers ride on that determinism contract:
//!
//! * **Result cache** — admission consults a digest-keyed
//!   [`ResultCache`]; a hit completes the job without touching a worker
//!   (`submitted → admitted → completed`, `cached: true` on the event
//!   and the [`JobResult`]). Sound because [`JobSpec::digest`] hashes
//!   exactly the fields the artifact depends on.
//! * **Same-scene co-dispatch** — a dispatch batches up to
//!   [`ServerConfig::scene_batch`] queued jobs sharing the head's scene
//!   digest and priority class, so the worker builds the scene's
//!   `MrfModel` once for the whole group (and keeps it in a small
//!   worker-local LRU across slices). A batch still honors preemption:
//!   the flag is polled at every sweep boundary, and members the flag
//!   beats to the worker are handed back untouched.
//!
//! `started` and `resumed` come from the worker, when it takes a job
//! up: a dispatched member the preempt flag beats to the worker never
//! began, so its hand-back leaves no event behind.

use crate::cache::{CachedResult, ResultCache};
use crate::events::{JobEvent, JobState};
use crate::runner::{JobTask, SceneModelCache, SliceStatus};
use crate::sched::{
    AdmissionOutcome, AdmissionQueue, Pending, QueueLimits, ResumeFrom, ShedReason,
};
use crate::spec::{JobResult, JobSpec, Priority, SpecError};
use chain::trace_jsonl::JsonlTraceWriter;
use mrf::Checkpoint;
use rsu::{RsuArray, RsuConfig};
use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Built scene models a worker keeps across orders: enough for a batch
/// plus a couple of alternating scenes under quantum slicing.
const WORKER_SCENE_CACHE: usize = 4;

/// Server shape and policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; each owns one simulated RSU array.
    pub workers: usize,
    /// RSU units per worker array.
    pub array_units: u32,
    /// Maximum sweeps per job per scheduling slice.
    pub quantum: usize,
    /// Result-cache capacity in entries; zero disables caching (every
    /// job recomputes).
    pub cache_capacity: usize,
    /// Maximum jobs per same-scene co-dispatch group; one disables
    /// batching (every dispatch is a single job).
    pub scene_batch: usize,
    /// When set, preempted jobs spool their checkpoint here durably
    /// (via [`Checkpoint::save`]) and resume by reloading it from disk;
    /// when unset, suspension state stays in memory.
    pub spool_dir: Option<PathBuf>,
    /// When set, every lifecycle event is streamed live as a `"job"`
    /// JSONL record to this file.
    pub trace_path: Option<PathBuf>,
    /// Admission-control bounds on live jobs (DESIGN §14). The default
    /// is [`QueueLimits::unbounded`]: every validated job admits.
    pub limits: QueueLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            array_units: 8,
            quantum: 10,
            cache_capacity: 256,
            scene_batch: 4,
            spool_dir: None,
            trace_path: None,
            limits: QueueLimits::unbounded(),
        }
    }
}

/// Everything a finished server run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Completed jobs' results, in completion order.
    pub results: Vec<JobResult>,
    /// Every lifecycle event, in emission order.
    pub events: Vec<JobEvent>,
    /// Scheduler-thread wall time from start to drain.
    pub wall: Duration,
    /// Result-cache hits (jobs answered without a worker).
    pub cache_hits: u64,
    /// Result-cache misses (jobs that recomputed).
    pub cache_misses: u64,
    /// `wait_for` round trips the scheduler answered — one per call
    /// with a blocking wait, unbounded with a poll loop.
    pub poll_round_trips: u64,
    /// Scene models built across all workers; co-dispatch batching
    /// exists to keep this below the dispatched-slice count.
    pub model_builds: u64,
    /// Jobs shed by admission control (at submit or by displacement);
    /// each appears in `results` with `rejected: true`.
    pub shed_jobs: u64,
    /// High-water mark of the admission queue's length — bounded by the
    /// configured [`QueueLimits`]; the overload gauge.
    pub peak_queued: usize,
}

impl ServeOutcome {
    /// The result for a job id, if it completed.
    pub fn result(&self, id: &str) -> Option<&JobResult> {
        self.results.iter().find(|r| r.id == id)
    }
}

/// Orders the scheduler sends a worker.
enum Order {
    /// Run each entry for up to `quantum` sweeps, in order. Entries
    /// share a scene digest and priority class; `preempt` covers the
    /// whole group.
    Run {
        entries: Vec<Pending>,
        quantum: usize,
        preempt: Arc<AtomicBool>,
    },
    Exit,
}

/// What a worker did with one batch member.
enum SliceReport {
    Completed {
        metric: &'static str,
        score: f64,
        field_digest: u64,
    },
    Yielded {
        status: SliceStatus,
        checkpoint: Box<Checkpoint>,
    },
    /// The preempt flag beat this member to the worker: handed back
    /// untouched (no sweeps, no events, resume state unchanged).
    Requeued,
    Failed {
        message: String,
    },
}

/// The admission decision a submit call comes back with.
///
/// `Queued` means the job entered the admission queue — under
/// overload a later, higher-value arrival may still displace it
/// (surfaced as a `rejected` lifecycle event and a `rejected: true`
/// [`JobResult`]); it is an admission receipt, not a completion
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted into the queue.
    Queued,
    /// Answered from the result cache — already complete, never queued
    /// (cache hits bypass admission control: they consume no worker).
    Cached,
    /// Shed at submit time by admission control; no work was queued.
    /// The job's lifecycle is `submitted → rejected` and its
    /// [`JobResult`] carries `rejected: true` plus this reason.
    Rejected(ShedReason),
}

/// How a [`wait_for`](ServeHandle::wait_for) call resolved. Every
/// variant returns — a wait can no longer hang on an id the scheduler
/// has never seen or a job that already reached a terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The awaited event was emitted (or had already been emitted).
    Reached,
    /// The job reached the given terminal state without ever emitting
    /// the awaited event — it never will, so the wait resolves now.
    Terminal(JobState),
    /// The scheduler has never seen this job id.
    Unknown,
    /// The server shut down with the wait outstanding.
    Disconnected,
}

/// The unified message stream the scheduler drains.
enum Msg {
    /// A validated spec plus the submitter's reply slot.
    Submit {
        spec: JobSpec,
        reply: Sender<Result<Admission, SpecError>>,
    },
    /// A worker took a batch member up and is about to sweep it: the
    /// job's `started` (first slice) or `resumed` (first slice after a
    /// preemption) event. Sent ahead of the member's `Sliced` report on
    /// the same channel, so the scheduler sees the two in order.
    Began {
        worker: u32,
        job: String,
        state: JobState,
        sweep: u64,
    },
    Sliced {
        worker: u32,
        entry: Box<Pending>,
        sweeps_run: u64,
        report: SliceReport,
    },
    /// Blocking wait: the scheduler replies once the event exists —
    /// immediately if it already happened, otherwise when it is
    /// emitted, the job terminates some other way, or the id turns out
    /// to be unknown. One message per `wait_for` call.
    Wait {
        job: String,
        state: JobState,
        reply: Sender<WaitOutcome>,
    },
    ShutdownWhenIdle,
}

/// A batch currently executing on a worker.
struct RunningSlice {
    priority: Priority,
    preempt: Arc<AtomicBool>,
    preempt_requested: bool,
    /// Batch members whose `Sliced` report is still outstanding; the
    /// worker slot frees when this reaches zero.
    remaining: usize,
}

fn worker_loop(
    worker: u32,
    config: &ServerConfig,
    orders: Receiver<Order>,
    replies: Sender<Msg>,
    builds: Arc<AtomicU64>,
) {
    let mut array = RsuArray::new(RsuConfig::new_design(), config.array_units);
    let mut models = SceneModelCache::new(WORKER_SCENE_CACHE);
    let mut reported_builds = 0u64;
    while let Ok(order) = orders.recv() {
        let (entries, quantum, preempt) = match order {
            Order::Run {
                entries,
                quantum,
                preempt,
            } => (entries, quantum, preempt),
            Order::Exit => break,
        };
        let mut preempted = false;
        for entry in entries {
            if preempted || preempt.load(Ordering::Acquire) {
                preempted = true;
                let _ = replies.send(Msg::Sliced {
                    worker,
                    entry: Box::new(entry),
                    sweeps_run: 0,
                    report: SliceReport::Requeued,
                });
                continue;
            }
            let mut entry = entry;
            if !entry.started || entry.resume_event_pending {
                let state = if entry.started {
                    JobState::Resumed
                } else {
                    JobState::Started
                };
                entry.started = true;
                entry.resume_event_pending = false;
                let _ = replies.send(Msg::Began {
                    worker,
                    job: entry.spec.id.clone(),
                    state,
                    sweep: entry.sweeps_done,
                });
            }
            let materialized = match &entry.resume {
                ResumeFrom::Fresh => JobTask::start_cached(entry.spec.clone(), &mut models),
                ResumeFrom::Memory(checkpoint) => {
                    JobTask::resume_cached(entry.spec.clone(), checkpoint, &mut models)
                }
                ResumeFrom::Spooled(path) => Checkpoint::load(path)
                    .map_err(|e| SpecError::new(format!("spooled checkpoint unreadable: {e}")))
                    .and_then(|cp| JobTask::resume_cached(entry.spec.clone(), &cp, &mut models)),
            };
            // Publish build-count growth before the report that caused
            // it: the channel send orders the counter ahead of the
            // scheduler's drain.
            let delta = models.builds() - reported_builds;
            if delta > 0 {
                builds.fetch_add(delta, Ordering::Relaxed);
                reported_builds = models.builds();
            }
            let mut task = match materialized {
                Ok(task) => task,
                Err(e) => {
                    let _ = replies.send(Msg::Sliced {
                        worker,
                        entry: Box::new(entry),
                        sweeps_run: 0,
                        report: SliceReport::Failed { message: e.message },
                    });
                    continue;
                }
            };
            let before = task.sweeps_done();
            let mut status = task.run_slice(&mut array, quantum, &preempt);
            let sweeps_run = task.sweeps_done() - before;
            // A flag raised after the final boundary check can race
            // quantum expiry; an expiry observed with the flag up is a
            // preemption (classified here, where the flag and the slice
            // end are on the same thread).
            if status == SliceStatus::Expired && preempt.load(Ordering::Acquire) {
                status = SliceStatus::Preempted;
            }
            if status == SliceStatus::Preempted {
                preempted = true;
            }
            let report = match status {
                SliceStatus::Completed => {
                    let (metric, score, field_digest) = task.finish();
                    SliceReport::Completed {
                        metric,
                        score,
                        field_digest,
                    }
                }
                SliceStatus::Expired | SliceStatus::Preempted => SliceReport::Yielded {
                    status,
                    checkpoint: Box::new(task.checkpoint()),
                },
            };
            entry.sweeps_done = task.sweeps_done();
            let _ = replies.send(Msg::Sliced {
                worker,
                entry: Box::new(entry),
                sweeps_run,
                report,
            });
        }
    }
}

/// The scheduler's mutable world.
struct Scheduler {
    config: ServerConfig,
    queue: AdmissionQueue,
    cache: ResultCache,
    running: Vec<Option<RunningSlice>>,
    order_txs: Vec<Sender<Order>>,
    epoch: Instant,
    submit_counter: u64,
    events: Vec<JobEvent>,
    results: Vec<JobResult>,
    submit_t: BTreeMap<String, f64>,
    /// `started` time per job that has begun and not yet finished (the
    /// end of its queue wait).
    start_t: BTreeMap<String, f64>,
    /// Terminal state per job id, for replaying to late waiters.
    terminal: BTreeMap<String, JobState>,
    waiters: Vec<(String, JobState, Sender<WaitOutcome>)>,
    poll_round_trips: u64,
    trace: Option<JsonlTraceWriter<BufWriter<fs::File>>>,
    in_flight: usize,
    shed_jobs: u64,
    peak_queued: usize,
    draining: bool,
}

impl Scheduler {
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    fn emit(&mut self, event: JobEvent) {
        if let Some(writer) = &mut self.trace {
            writer.write_record(&event.to_value());
            writer.flush();
        }
        if event.state.is_terminal() {
            self.terminal.insert(event.job.clone(), event.state);
        }
        self.waiters.retain(|(job, state, reply)| {
            if *job != event.job {
                return true;
            }
            if *state == event.state {
                let _ = reply.send(WaitOutcome::Reached);
                false
            } else if event.state.is_terminal() {
                // The job is over and never emitted the awaited event;
                // holding the waiter any longer would hang it forever.
                let _ = reply.send(WaitOutcome::Terminal(event.state));
                false
            } else {
                true
            }
        });
        self.events.push(event);
    }

    fn emit_queue_side(&mut self, job: &str, state: JobState, detail: Option<String>) {
        let event = JobEvent {
            job: job.to_string(),
            state,
            t_ms: self.now_ms(),
            worker: None,
            sweep: 0,
            cached: false,
            detail,
        };
        self.emit(event);
    }

    fn on_submit(&mut self, spec: JobSpec, reply: Sender<Result<Admission, SpecError>>) {
        if self.submit_t.contains_key(&spec.id) {
            // Two jobs sharing an id would corrupt waiter wakeup and
            // lifecycle validation (both keyed by the id string):
            // refuse before any event exists, like a validation error.
            let _ = reply.send(Err(SpecError::new(format!(
                "duplicate job id {:?}: ids name lifecycles and results for the server's \
                 whole lifetime",
                spec.id
            ))));
            return;
        }
        let now = self.now_ms();
        self.submit_t.insert(spec.id.clone(), now);
        self.emit_queue_side(&spec.id, JobState::Submitted, None);
        if let Some(hit) = self.cache.lookup(&spec) {
            // Determinism makes the cached result *the* result: same
            // digest, same artifact. Complete at admission — no queue,
            // no worker, no fair-share debit. Cache hits bypass
            // admission control entirely: they consume no capacity, so
            // bounding them would shed free work.
            self.emit_queue_side(&spec.id, JobState::Admitted, None);
            let done = self.now_ms();
            let event = JobEvent {
                job: spec.id.clone(),
                state: JobState::Completed,
                t_ms: done,
                worker: None,
                sweep: hit.iterations as u64,
                cached: true,
                detail: None,
            };
            self.emit(event);
            self.results.push(JobResult {
                id: spec.id,
                metric: hit.metric.to_string(),
                score: hit.score,
                field_digest: hit.field_digest,
                iterations: hit.iterations,
                preemptions: 0,
                wait_ms: done - now,
                latency_ms: done - now,
                cached: true,
                rejected: false,
                reason: None,
            });
            let _ = reply.send(Ok(Admission::Cached));
            return;
        }
        let id = spec.id.clone();
        let pending = Pending::new(spec, self.submit_counter);
        match self.queue.admit_bounded(pending, &self.config.limits) {
            AdmissionOutcome::Shed(reason) => {
                self.shed_jobs += 1;
                self.finish_rejected(&id, reason);
                let _ = reply.send(Ok(Admission::Rejected(reason)));
                return;
            }
            AdmissionOutcome::Admitted => {
                self.emit_queue_side(&id, JobState::Admitted, None);
            }
            AdmissionOutcome::AdmittedDisplacing(victim) => {
                self.emit_queue_side(&id, JobState::Admitted, None);
                self.shed_jobs += 1;
                self.finish_rejected(&victim.spec.id, ShedReason::Displaced);
                self.in_flight -= 1;
            }
        }
        self.submit_counter += 1;
        self.in_flight += 1;
        self.peak_queued = self.peak_queued.max(self.queue.len());
        let _ = reply.send(Ok(Admission::Queued));
        self.dispatch_and_preempt();
    }

    /// Emits the terminal `rejected` event and the `rejected: true`
    /// result for a job shed by admission control.
    fn finish_rejected(&mut self, id: &str, reason: ShedReason) {
        let now = self.now_ms();
        self.emit_queue_side(id, JobState::Rejected, Some(reason.to_string()));
        let submit_t = self.submit_t.get(id).copied().unwrap_or(now);
        self.results.push(JobResult {
            id: id.to_string(),
            metric: "rejected".to_string(),
            score: 0.0,
            field_digest: 0,
            iterations: 0,
            preemptions: 0,
            wait_ms: 0.0,
            latency_ms: now - submit_t,
            cached: false,
            rejected: true,
            reason: Some(reason.to_string()),
        });
    }

    /// Fills free workers from the queue — each dispatch takes the best
    /// entry plus up to `scene_batch - 1` same-scene, same-class
    /// companions — then, if the queue still holds an entry outranking
    /// some running slice, raises that slice's preempt flag.
    fn dispatch_and_preempt(&mut self) {
        while let Some(free) = self.running.iter().position(Option::is_none) {
            let Some(head) = self.queue.pop_next() else {
                break;
            };
            let mut entries = vec![head];
            while entries.len() < self.config.scene_batch.max(1) {
                let Some(companion) = self
                    .queue
                    .pop_matching(entries[0].scene_digest, entries[0].spec.priority)
                else {
                    break;
                };
                entries.push(companion);
            }
            let preempt = Arc::new(AtomicBool::new(false));
            self.running[free] = Some(RunningSlice {
                priority: entries[0].spec.priority,
                preempt: Arc::clone(&preempt),
                preempt_requested: false,
                remaining: entries.len(),
            });
            let order = Order::Run {
                entries,
                quantum: self.config.quantum,
                preempt,
            };
            let _ = self.order_txs[free].send(order);
        }
        // No worker free: preempt the lowest-priority running slice if
        // the queue holds something strictly higher.
        let Some(best) = self.queue.best_priority() else {
            return;
        };
        let victim = self
            .running
            .iter_mut()
            .flatten()
            .filter(|slice| !slice.preempt_requested && slice.priority < best)
            .min_by_key(|slice| slice.priority);
        if let Some(slice) = victim {
            slice.preempt_requested = true;
            slice.preempt.store(true, Ordering::Release);
        }
    }

    /// A worker began sweeping a job: emits its `started` or `resumed`
    /// event, and the first `started` ends the job's queue wait.
    fn on_began(&mut self, worker: u32, job: String, state: JobState, sweep: u64) {
        let now = self.now_ms();
        if state == JobState::Started {
            self.start_t.insert(job.clone(), now);
        }
        self.emit(JobEvent {
            job,
            state,
            t_ms: now,
            worker: Some(worker),
            sweep,
            cached: false,
            detail: None,
        });
    }

    fn on_sliced(&mut self, worker: u32, mut entry: Pending, sweeps_run: u64, report: SliceReport) {
        {
            let slice = self.running[worker as usize]
                .as_mut()
                .expect("report from a worker with no running slice");
            slice.remaining -= 1;
            if slice.remaining == 0 {
                self.running[worker as usize] = None;
            }
        }
        if sweeps_run > 0 {
            self.queue.credit(&entry.spec.tenant, sweeps_run);
        }
        let now = self.now_ms();
        match report {
            SliceReport::Completed {
                metric,
                score,
                field_digest,
            } => {
                let event = JobEvent {
                    job: entry.spec.id.clone(),
                    state: JobState::Completed,
                    t_ms: now,
                    worker: Some(worker),
                    sweep: entry.sweeps_done,
                    cached: false,
                    detail: None,
                };
                self.emit(event);
                self.cache.insert(
                    entry.digest,
                    CachedResult {
                        metric,
                        score,
                        field_digest,
                        iterations: entry.spec.iterations,
                    },
                );
                let submit_t = self.submit_t.get(&entry.spec.id).copied().unwrap_or(0.0);
                let start_t = self.start_t.remove(&entry.spec.id).unwrap_or(now);
                self.results.push(JobResult {
                    id: entry.spec.id.clone(),
                    metric: metric.to_string(),
                    score,
                    field_digest,
                    iterations: entry.spec.iterations,
                    preemptions: entry.preemptions,
                    wait_ms: start_t - submit_t,
                    latency_ms: now - submit_t,
                    cached: false,
                    rejected: false,
                    reason: None,
                });
                self.queue.finish(&entry.spec.tenant, entry.spec.priority);
                self.in_flight -= 1;
            }
            SliceReport::Yielded { status, checkpoint } => {
                if status == SliceStatus::Preempted {
                    entry.preemptions += 1;
                    entry.resume_event_pending = true;
                    let event = JobEvent {
                        job: entry.spec.id.clone(),
                        state: JobState::Preempted,
                        t_ms: now,
                        worker: Some(worker),
                        sweep: entry.sweeps_done,
                        cached: false,
                        detail: None,
                    };
                    self.emit(event);
                    entry.resume = match &self.config.spool_dir {
                        Some(dir) => {
                            let path = dir.join(format!("{}.ckpt", entry.spec.id));
                            match checkpoint.save(&path) {
                                Ok(()) => ResumeFrom::Spooled(path),
                                // Disk trouble degrades to in-memory
                                // suspension rather than losing the job.
                                Err(_) => ResumeFrom::Memory(*checkpoint),
                            }
                        }
                        None => ResumeFrom::Memory(*checkpoint),
                    };
                } else {
                    entry.resume = ResumeFrom::Memory(*checkpoint);
                }
                self.queue.push(entry);
            }
            SliceReport::Requeued => {
                // Never ran: resume state and events are untouched.
                self.queue.push(entry);
            }
            SliceReport::Failed { message } => {
                let event = JobEvent {
                    job: entry.spec.id.clone(),
                    state: JobState::Failed,
                    t_ms: now,
                    worker: Some(worker),
                    sweep: entry.sweeps_done,
                    cached: false,
                    detail: Some(message),
                };
                self.emit(event);
                self.start_t.remove(&entry.spec.id);
                self.queue.finish(&entry.spec.tenant, entry.spec.priority);
                self.in_flight -= 1;
            }
        }
        self.dispatch_and_preempt();
    }

    fn idle(&self) -> bool {
        self.in_flight == 0 && self.running.iter().all(Option::is_none)
    }
}

fn wait_on(cmd: &Sender<Msg>, job: &str, state: JobState) -> WaitOutcome {
    let (tx, rx) = mpsc::channel();
    if cmd
        .send(Msg::Wait {
            job: job.to_string(),
            state,
            reply: tx,
        })
        .is_err()
    {
        return WaitOutcome::Disconnected;
    }
    // Err means the scheduler exited with the wait outstanding; both
    // outcomes end the wait.
    rx.recv().unwrap_or(WaitOutcome::Disconnected)
}

fn submit_on(cmd: &Sender<Msg>, spec: &JobSpec) -> Result<Admission, SpecError> {
    spec.validate()?;
    let (tx, rx) = mpsc::channel();
    cmd.send(Msg::Submit {
        spec: spec.clone(),
        reply: tx,
    })
    .map_err(|_| SpecError::new("server is shut down"))?;
    rx.recv()
        .map_err(|_| SpecError::new("server is shut down"))?
}

/// A cloneable submission endpoint for driving one server from many
/// client threads (the closed-loop load generator). Clients must be
/// done before [`ServeHandle::finish`] is called — a drained server
/// rejects further submissions.
#[derive(Clone)]
pub struct ServeClient {
    cmd: Sender<Msg>,
}

impl ServeClient {
    /// Validates and submits a job (see [`ServeHandle::submit`]).
    pub fn submit(&self, spec: &JobSpec) -> Result<Admission, SpecError> {
        submit_on(&self.cmd, spec)
    }

    /// Blocks until the given job has emitted the given lifecycle event
    /// (see [`ServeHandle::wait_for`]).
    pub fn wait_for(&self, job: &str, state: JobState) -> WaitOutcome {
        wait_on(&self.cmd, job, state)
    }
}

/// A running server. Submit jobs, then call
/// [`finish`](ServeHandle::finish) to drain and collect the outcome.
pub struct ServeHandle {
    cmd: Sender<Msg>,
    scheduler: Option<JoinHandle<ServeOutcome>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Validates and submits a job, returning the admission decision:
    /// queued, answered from the cache, or shed by admission control
    /// (with its [`ShedReason`]). Validation failures and duplicate job
    /// ids are synchronous typed errors — an invalid spec never enters
    /// the system and emits no events.
    pub fn submit(&self, spec: &JobSpec) -> Result<Admission, SpecError> {
        submit_on(&self.cmd, spec)
    }

    /// A cloneable endpoint for submitting from other threads.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            cmd: self.cmd.clone(),
        }
    }

    /// Blocks until the given job has emitted the given lifecycle event
    /// (e.g. wait for `Started` before submitting the preemptor in a
    /// forced-preemption scenario). One round trip: the scheduler
    /// answers immediately if the event already happened and otherwise
    /// parks the reply until the event fires, the job reaches a
    /// different terminal state ([`WaitOutcome::Terminal`]), or — for
    /// an id the scheduler has never seen — immediately with
    /// [`WaitOutcome::Unknown`]. A wait always resolves; it cannot
    /// hang on an unknown or already-finished job.
    pub fn wait_for(&self, job: &str, state: JobState) -> WaitOutcome {
        wait_on(&self.cmd, job, state)
    }

    /// Drains the queue, stops all threads and returns results, the
    /// full event log and wall time.
    pub fn finish(mut self) -> ServeOutcome {
        let _ = self.cmd.send(Msg::ShutdownWhenIdle);
        let outcome = self
            .scheduler
            .take()
            .expect("finish() consumes the handle")
            .join()
            .expect("scheduler thread panicked");
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        outcome
    }
}

/// Starts the server: spawns the scheduler and `config.workers` worker
/// threads and returns the submission handle.
///
/// # Panics
///
/// Panics if `config.workers` is zero or the trace/spool paths cannot
/// be created.
pub fn serve(config: ServerConfig) -> ServeHandle {
    assert!(config.workers > 0, "a server needs at least one worker");
    if let Some(dir) = &config.spool_dir {
        fs::create_dir_all(dir).expect("spool dir must be creatable");
    }
    let trace = config.trace_path.as_ref().map(|path| {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).expect("trace dir must be creatable");
        }
        JsonlTraceWriter::new(BufWriter::new(
            fs::File::create(path).expect("trace file must be creatable"),
        ))
    });

    let (cmd_tx, cmd_rx) = mpsc::channel::<Msg>();
    let builds = Arc::new(AtomicU64::new(0));
    let mut order_txs = Vec::with_capacity(config.workers);
    let mut workers = Vec::with_capacity(config.workers);
    for index in 0..config.workers {
        let (order_tx, order_rx) = mpsc::channel::<Order>();
        order_txs.push(order_tx);
        let replies = cmd_tx.clone();
        let worker_config = config.clone();
        let worker_builds = Arc::clone(&builds);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || {
                    worker_loop(
                        index as u32,
                        &worker_config,
                        order_rx,
                        replies,
                        worker_builds,
                    )
                })
                .expect("worker thread spawns"),
        );
    }

    let running = (0..config.workers).map(|_| None).collect();
    let cache = ResultCache::new(config.cache_capacity);
    let scheduler_config = config;
    let scheduler = std::thread::Builder::new()
        .name("serve-scheduler".into())
        .spawn(move || {
            let mut state = Scheduler {
                order_txs,
                config: scheduler_config,
                queue: AdmissionQueue::new(),
                cache,
                running,
                epoch: Instant::now(),
                submit_counter: 0,
                events: Vec::new(),
                results: Vec::new(),
                submit_t: BTreeMap::new(),
                start_t: BTreeMap::new(),
                terminal: BTreeMap::new(),
                waiters: Vec::new(),
                poll_round_trips: 0,
                trace,
                in_flight: 0,
                shed_jobs: 0,
                peak_queued: 0,
                draining: false,
            };
            while let Ok(msg) = cmd_rx.recv() {
                match msg {
                    Msg::Submit { spec, reply } => state.on_submit(spec, reply),
                    Msg::Began {
                        worker,
                        job,
                        state: began,
                        sweep,
                    } => state.on_began(worker, job, began, sweep),
                    Msg::Sliced {
                        worker,
                        entry,
                        sweeps_run,
                        report,
                    } => state.on_sliced(worker, *entry, sweeps_run, report),
                    Msg::Wait {
                        job,
                        state: wanted,
                        reply,
                    } => {
                        state.poll_round_trips += 1;
                        let seen = state
                            .events
                            .iter()
                            .any(|e| e.state == wanted && e.job == job);
                        if seen {
                            let _ = reply.send(WaitOutcome::Reached);
                        } else if let Some(&terminal) = state.terminal.get(&job) {
                            // The job is over; the awaited event can
                            // never fire. Resolve instead of parking
                            // the waiter until shutdown.
                            let _ = reply.send(WaitOutcome::Terminal(terminal));
                        } else if !state.submit_t.contains_key(&job) {
                            // Unknown id: nothing will ever wake this
                            // waiter — the forever-hang bug. Say so.
                            let _ = reply.send(WaitOutcome::Unknown);
                        } else {
                            state.waiters.push((job, wanted, reply));
                        }
                    }
                    Msg::ShutdownWhenIdle => state.draining = true,
                }
                if state.draining && state.idle() {
                    break;
                }
            }
            for tx in &state.order_txs {
                let _ = tx.send(Order::Exit);
            }
            if let Some(writer) = &mut state.trace {
                writer.flush();
                if let Some(e) = writer.take_error() {
                    eprintln!("serve: trace write failed: {e}");
                }
            }
            let (cache_hits, cache_misses) = state.cache.stats();
            ServeOutcome {
                results: state.results,
                events: state.events,
                wall: state.epoch.elapsed(),
                cache_hits,
                cache_misses,
                poll_round_trips: state.poll_round_trips,
                // Workers publish before every report they send, so the
                // drained scheduler reads a settled count.
                model_builds: builds.load(Ordering::Relaxed),
                shed_jobs: state.shed_jobs,
                peak_queued: state.peak_queued,
            }
        })
        .expect("scheduler thread spawns");

    ServeHandle {
        cmd: cmd_tx,
        scheduler: Some(scheduler),
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::validate_lifecycle;
    use crate::spec::JobKind;

    fn spec(id: &str, tenant: &str, priority: Priority, iterations: usize) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant: tenant.into(),
            priority,
            seed: 7,
            iterations,
            threads: 1,
            kind: JobKind::Segmentation {
                width: 16,
                height: 12,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 5,
            },
        }
    }

    #[test]
    fn single_job_runs_to_completion_with_a_clean_lifecycle() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 4,
            ..ServerConfig::default()
        });
        handle
            .submit(&spec("solo", "t", Priority::Batch, 10))
            .unwrap();
        let outcome = handle.finish();
        assert_eq!(outcome.results.len(), 1);
        let result = outcome.result("solo").unwrap();
        assert_eq!(result.iterations, 10);
        assert_eq!(result.preemptions, 0);
        assert!(!result.cached);
        validate_lifecycle(&outcome.events).unwrap();
        // Quantum requeues are silent: no preempted/resumed events.
        assert!(outcome
            .events
            .iter()
            .all(|e| e.state != JobState::Preempted && e.state != JobState::Resumed));
    }

    #[test]
    fn invalid_spec_is_rejected_synchronously_without_events() {
        let handle = serve(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let bad = JobSpec {
            iterations: 0,
            ..spec("bad", "t", Priority::Batch, 1)
        };
        assert!(handle.submit(&bad).is_err());
        let outcome = handle.finish();
        assert!(outcome.events.is_empty());
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn interactive_job_preempts_a_saturated_batch_fleet() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 1_000, // no quantum slicing: only preemption can interleave
            ..ServerConfig::default()
        });
        let batch = spec("bg", "tenant-b", Priority::Batch, 60);
        handle.submit(&batch).unwrap();
        handle.wait_for("bg", JobState::Started);
        let urgent = spec("fg", "tenant-i", Priority::Interactive, 5);
        handle.submit(&urgent).unwrap();
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();

        // The batch job was preempted at least once and still finished.
        let bg = outcome.result("bg").expect("batch job completed");
        assert!(bg.preemptions >= 1, "expected a preemption, got {bg:?}");
        assert_eq!(bg.iterations, 60);
        // The interactive job finished before the batch job.
        let order: Vec<&str> = outcome
            .events
            .iter()
            .filter(|e| e.state == JobState::Completed && e.job != "gate")
            .map(|e| e.job.as_str())
            .collect();
        assert_eq!(order, ["fg", "bg"]);
        // And the preempted run is bit-identical to an undisturbed one.
        let alone = serve(ServerConfig {
            workers: 1,
            quantum: 1_000,
            ..ServerConfig::default()
        });
        alone.submit(&batch).unwrap();
        let undisturbed = alone.finish();
        assert_eq!(
            undisturbed.result("bg").unwrap().field_digest,
            bg.field_digest
        );
    }

    #[test]
    fn fair_share_interleaves_tenants_under_quantum_slicing() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 2,
            ..ServerConfig::default()
        });
        // A long interactive gate job from a third tenant occupies the
        // only worker, so the whole backlog is queued before any of it
        // can dispatch.
        handle
            .submit(&spec("gate", "gate", Priority::Interactive, 400))
            .unwrap();
        handle.wait_for("gate", JobState::Started);
        // One hog tenant floods first; a light tenant arrives after.
        for i in 0..3 {
            handle
                .submit(&spec(&format!("hog-{i}"), "hog", Priority::Batch, 8))
                .unwrap();
        }
        handle
            .submit(&spec("light-0", "light", Priority::Batch, 8))
            .unwrap();
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();
        assert_eq!(outcome.results.len(), 5);
        let position = |job: &str, state: JobState| {
            outcome
                .events
                .iter()
                .position(|e| e.job == job && e.state == state)
                .unwrap()
        };
        let gate_done = position("gate", JobState::Completed);
        for job in ["hog-0", "hog-1", "hog-2", "light-0"] {
            assert!(
                position(job, JobState::Admitted) < gate_done,
                "{job} must be admitted while the gate still runs"
            );
        }
        // The light tenant must not finish last: fair share pulls it
        // ahead of the hog's backlog once the hog has been served.
        let order: Vec<&str> = outcome
            .events
            .iter()
            .filter(|e| e.state == JobState::Completed && e.job != "gate")
            .map(|e| e.job.as_str())
            .collect();
        let light_pos = order.iter().position(|j| *j == "light-0").unwrap();
        assert!(
            light_pos < order.len() - 1,
            "light tenant starved: completion order {order:?}"
        );
    }

    #[test]
    fn duplicate_spec_is_answered_from_the_cache_bit_identically() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 4,
            ..ServerConfig::default()
        });
        let original = spec("orig", "tenant-a", Priority::Batch, 10);
        handle.submit(&original).unwrap();
        handle.wait_for("orig", JobState::Completed);
        // Same chain under a different identity: id, tenant, priority
        // and thread count are all outside the digest.
        let duplicate = JobSpec {
            id: "dup".into(),
            tenant: "tenant-b".into(),
            priority: Priority::Interactive,
            threads: 2,
            ..original.clone()
        };
        handle.submit(&duplicate).unwrap();
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();

        let orig = outcome.result("orig").unwrap();
        let dup = outcome.result("dup").unwrap();
        assert!(!orig.cached);
        assert!(dup.cached, "duplicate should be a cache hit: {dup:?}");
        assert_eq!(dup.field_digest, orig.field_digest);
        assert_eq!(dup.score.to_bits(), orig.score.to_bits());
        assert_eq!(dup.metric, orig.metric);
        assert_eq!(dup.iterations, orig.iterations);
        assert_eq!(outcome.cache_hits, 1);

        // The hit never touched a worker: completed straight from
        // admitted, no started event, no worker id.
        assert!(!outcome
            .events
            .iter()
            .any(|e| e.job == "dup" && e.state == JobState::Started));
        let done = outcome
            .events
            .iter()
            .find(|e| e.job == "dup" && e.state == JobState::Completed)
            .unwrap();
        assert!(done.cached);
        assert_eq!(done.worker, None);
        assert_eq!(done.sweep, 10);
    }

    #[test]
    fn zero_cache_capacity_recomputes_and_still_agrees() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 4,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        let original = spec("orig", "t", Priority::Batch, 10);
        handle.submit(&original).unwrap();
        handle.wait_for("orig", JobState::Completed);
        handle
            .submit(&JobSpec {
                id: "dup".into(),
                ..original
            })
            .unwrap();
        let outcome = handle.finish();
        assert_eq!(outcome.cache_hits, 0);
        let (orig, dup) = (
            outcome.result("orig").unwrap(),
            outcome.result("dup").unwrap(),
        );
        assert!(!dup.cached, "cache disabled: everything recomputes");
        // Determinism: the recompute agrees with the first run anyway.
        assert_eq!(dup.field_digest, orig.field_digest);
    }

    #[test]
    fn blocking_wait_does_not_spin_the_command_channel() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 2,
            ..ServerConfig::default()
        });
        // 40 sweeps at quantum 2 → the job is in flight long enough
        // that a 1ms poll loop would take many round trips.
        handle
            .submit(&spec("slow", "t", Priority::Batch, 40))
            .unwrap();
        handle.wait_for("slow", JobState::Completed);
        let outcome = handle.finish();
        assert!(outcome.result("slow").is_some());
        assert_eq!(
            outcome.poll_round_trips, 1,
            "one wait_for call must cost exactly one scheduler round trip"
        );
    }

    #[test]
    fn same_scene_jobs_share_one_model_build_per_worker() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 50, // every job completes in one slice
            ..ServerConfig::default()
        });
        // Same scene, distinct seeds: distinct digests (no cache hits),
        // one underlying model.
        for i in 0..4u64 {
            handle
                .submit(&JobSpec {
                    id: format!("j{i}"),
                    seed: 100 + i,
                    ..spec("", "t", Priority::Batch, 8)
                })
                .unwrap();
        }
        let outcome = handle.finish();
        assert_eq!(outcome.results.len(), 4);
        assert_eq!(outcome.cache_hits, 0);
        assert!(outcome.results.iter().all(|r| !r.cached));
        assert_eq!(
            outcome.model_builds, 1,
            "four same-scene jobs on one worker must build one model"
        );
    }

    #[test]
    fn duplicate_job_id_is_rejected_with_a_typed_error_and_no_events() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 4,
            ..ServerConfig::default()
        });
        handle
            .submit(&spec("same", "t", Priority::Batch, 6))
            .unwrap();
        // Different tenant/priority/shape — the id alone is the clash.
        let err = handle
            .submit(&spec("same", "u", Priority::Interactive, 4))
            .unwrap_err();
        assert!(
            err.message.contains("duplicate job id"),
            "want a typed duplicate-id error, got {err:?}"
        );
        // Even after the first lifecycle is over, its id stays taken:
        // results and waiter wakeup are keyed by id for the server's
        // whole lifetime.
        handle.wait_for("same", JobState::Completed);
        let err = handle
            .submit(&spec("same", "t", Priority::Batch, 6))
            .unwrap_err();
        assert!(err.message.contains("duplicate job id"));
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();
        assert_eq!(outcome.results.len(), 1, "the duplicates never entered");
        assert_eq!(
            outcome
                .events
                .iter()
                .filter(|e| e.job == "same" && e.state == JobState::Submitted)
                .count(),
            1,
            "a refused duplicate must emit no events"
        );
    }

    #[test]
    fn wait_for_unknown_or_finished_jobs_resolves_instead_of_hanging() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 4,
            ..ServerConfig::default()
        });
        // Regression: this call parked forever before the terminal-
        // replay fix.
        assert_eq!(
            handle.wait_for("ghost", JobState::Completed),
            WaitOutcome::Unknown
        );
        handle
            .submit(&spec("real", "t", Priority::Batch, 6))
            .unwrap();
        assert_eq!(
            handle.wait_for("real", JobState::Completed),
            WaitOutcome::Reached
        );
        // The job is terminal and was never preempted: that event can
        // never fire now, so the wait resolves with the terminal state.
        assert_eq!(
            handle.wait_for("real", JobState::Preempted),
            WaitOutcome::Terminal(JobState::Completed)
        );
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();
        assert_eq!(outcome.results.len(), 1);
    }

    #[test]
    fn overflow_batch_submission_is_shed_with_a_rejected_result() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 1_000,
            limits: QueueLimits {
                max_batch: 1,
                ..QueueLimits::unbounded()
            },
            ..ServerConfig::default()
        });
        handle
            .submit(&spec("b1", "t", Priority::Batch, 30))
            .unwrap();
        handle.wait_for("b1", JobState::Started);
        // The only batch slot is running (started jobs are never
        // displaced): the second batch arrival sheds.
        let admission = handle.submit(&spec("b2", "u", Priority::Batch, 5)).unwrap();
        assert_eq!(
            admission,
            Admission::Rejected(ShedReason::ClassFull {
                class: Priority::Batch,
                limit: 1
            })
        );
        // Interactive capacity is untouched by batch overload.
        assert_eq!(
            handle
                .submit(&spec("i1", "u", Priority::Interactive, 5))
                .unwrap(),
            Admission::Queued
        );
        // The rejected job is terminal: waiting on it resolves.
        assert_eq!(
            handle.wait_for("b2", JobState::Completed),
            WaitOutcome::Terminal(JobState::Rejected)
        );
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();
        assert_eq!(outcome.shed_jobs, 1);
        let shed = outcome.result("b2").expect("shed jobs get a result");
        assert!(shed.rejected);
        assert_eq!(shed.metric, "rejected");
        assert!(
            shed.reason.as_deref().unwrap_or("").contains("class full"),
            "reason should name the bound, got {:?}",
            shed.reason
        );
        assert_eq!(
            outcome
                .events
                .iter()
                .filter(|e| e.job == "b2" && e.state == JobState::Rejected)
                .count(),
            1,
            "exactly one rejected event"
        );
        // The others completed normally.
        assert!(!outcome.result("b1").unwrap().rejected);
        assert!(!outcome.result("i1").unwrap().rejected);
    }

    #[test]
    fn started_and_resumed_come_from_the_worker_when_a_job_begins() {
        let handle = serve(ServerConfig {
            workers: 1,
            quantum: 1_000, // above every job's iterations
            ..ServerConfig::default()
        });
        let batch = |i: u64| JobSpec {
            id: format!("b{i}"),
            seed: 100 + i,
            ..spec("", "t", Priority::Batch, 400)
        };
        handle.submit(&batch(0)).unwrap();
        handle.wait_for("b0", JobState::Started);
        // Same-scene companions queue behind b0 and are co-dispatched
        // as one group; the interactive arrival preempts whatever runs.
        for i in 1..=3 {
            handle.submit(&batch(i)).unwrap();
        }
        handle
            .submit(&JobSpec {
                id: "urgent".into(),
                seed: 1,
                ..spec("", "u", Priority::Interactive, 20)
            })
            .unwrap();
        let outcome = handle.finish();
        validate_lifecycle(&outcome.events).unwrap();
        assert_eq!(outcome.results.len(), 5);
        // On the one worker, a job that begins runs until it yields or
        // ends: nothing else begins in between, and a member handed
        // back unrun leaves no event.
        let execution: Vec<&JobEvent> = outcome
            .events
            .iter()
            .filter(|e| e.worker.is_some())
            .collect();
        for (index, event) in execution.iter().enumerate() {
            if !matches!(event.state, JobState::Started | JobState::Resumed) {
                continue;
            }
            let next = execution
                .get(index + 1)
                .unwrap_or_else(|| panic!("{} {} is the last event", event.job, event.state));
            assert!(
                next.job == event.job
                    && matches!(
                        next.state,
                        JobState::Preempted | JobState::Completed | JobState::Failed
                    ),
                "{} {} is followed by {} {}",
                event.job,
                event.state,
                next.job,
                next.state
            );
        }
    }
}
