//! Direct replays of a run's distinct specs through `JobTask` on owned
//! `RsuArray`s, one array per thread: the untraced determinism oracle,
//! and the traced replay that times each layer's public calls with
//! in-memory spans.

use crate::workload::{labels, ARRAY_UNITS, WORKERS};
use mrf::Checkpoint;
use retrsu_serve::{JobSpec, JobTask, SliceStatus};
use rsu::{RsuArray, RsuConfig, RsuStats};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// What a job computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub metric: &'static str,
    pub score: f64,
    pub field_digest: u64,
}

/// A timed call into one layer. Spans of one job share `job`; `parent`
/// indexes the enclosing span in the same replay.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot; the
    /// per-job root span is the harness's.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "harness",
        }
    }
}

/// Counters of the traced replay, summed over jobs.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub jobs: u64,
    /// Site updates executed (`sites × iterations`).
    pub site_updates: u64,
    pub rsu: RsuStats,
    /// Simulated RSU-G cycles: the pipeline model's run cost plus stalls.
    pub sim_cycles: u64,
    /// Checkpoint round trips a server would make (quantum expiries).
    pub round_trips: u64,
    /// Round trips timed, probes of single-slice jobs included.
    pub timed_round_trips: u64,
    pub checkpoint_bytes: u64,
}

/// Everything a replay produced, answers in spec order.
pub struct Replay {
    pub answers: Vec<Answer>,
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub wall_s: f64,
}

/// How a replay runs each job.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// To completion in one slice: the determinism oracle.
    Plain,
    /// At `quantum` sweeps per slice. At every quantum expiry the job's
    /// state round-trips through the checkpoint layer as it would on a
    /// server: capture, text encode and decode, durable save to
    /// `spool`, and resume (which rebuilds the model). A job that
    /// finishes within one quantum gets one probe round trip of its
    /// final state, so the checkpoint layer is timed on every workload;
    /// probes are not counted in [`Counters::round_trips`]. With
    /// `spans` each layer call is recorded; without, the same work runs
    /// untraced, which prices the tracing.
    Sliced {
        quantum: usize,
        spool: &'a Path,
        spans: bool,
    },
}

/// Replays every spec, spreading them over one thread per server
/// worker.
pub fn replay(specs: &[JobSpec], mode: Mode) -> Result<Replay, String> {
    let epoch = Instant::now();
    let parts: Vec<Result<Part, String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|t| {
                scope.spawn(move || {
                    let record = matches!(mode, Mode::Sliced { spans: true, .. });
                    let mut part = Part::new(epoch, record);
                    let mut array = RsuArray::new(RsuConfig::new_design(), ARRAY_UNITS);
                    for (index, spec) in specs.iter().enumerate().skip(t).step_by(WORKERS) {
                        let answer = match mode {
                            Mode::Plain => run_plain(spec, &mut array)?,
                            Mode::Sliced { quantum, spool, .. } => {
                                let path = spool.join(format!("replay-{t}.ckpt"));
                                part.run_sliced(index, spec, quantum, &path, &mut array)?
                            }
                        };
                        part.answers.push((index, answer));
                    }
                    Ok(part)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut answers = vec![None; specs.len()];
    let mut spans = Vec::new();
    let mut counters = Counters::default();
    for part in parts {
        let part = part?;
        for (index, answer) in part.answers {
            answers[index] = Some(answer);
        }
        let offset = spans.len();
        spans.extend(part.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        counters.add(&part.counters);
    }
    Ok(Replay {
        answers: answers
            .into_iter()
            .map(|a| a.expect("every spec replayed"))
            .collect(),
        spans,
        counters,
        wall_s,
    })
}

fn run_plain(spec: &JobSpec, array: &mut RsuArray) -> Result<Answer, String> {
    let mut task = JobTask::start(spec.clone()).map_err(|e| e.to_string())?;
    let status = task.run_slice(array, spec.iterations, &AtomicBool::new(false));
    if status != SliceStatus::Completed {
        return Err(format!("{}: direct run ended {status:?}", spec.id));
    }
    Ok(answer(&task))
}

fn answer(task: &JobTask) -> Answer {
    let (metric, score, field_digest) = task.finish();
    Answer {
        metric,
        score,
        field_digest,
    }
}

/// One replay thread's share.
struct Part {
    epoch: Instant,
    record: bool,
    answers: Vec<(usize, Answer)>,
    spans: Vec<Span>,
    counters: Counters,
}

impl Part {
    fn new(epoch: Instant, record: bool) -> Self {
        Part {
            epoch,
            record,
            answers: Vec::new(),
            spans: Vec::new(),
            counters: Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` when recording.
    fn span<R>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.record {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    fn run_sliced(
        &mut self,
        job: usize,
        spec: &JobSpec,
        quantum: usize,
        path: &Path,
        array: &mut RsuArray,
    ) -> Result<Answer, String> {
        let root = self.spans.len();
        if self.record {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: "job",
                job,
                parent: None,
                start_ns,
                end_ns: start_ns,
            });
        }
        let before = array.combined_stats();
        let mut task = self
            .span("runner.build", job, root, || JobTask::start(spec.clone()))
            .map_err(|e| e.to_string())?;
        let never = AtomicBool::new(false);
        let mut round_trips = 0;
        loop {
            let status = self.span("rsu.sweep", job, root, || {
                task.run_slice(array, quantum, &never)
            });
            match status {
                SliceStatus::Completed => break,
                SliceStatus::Expired => {
                    task = self.round_trip(job, root, spec, &task, path)?;
                    round_trips += 1;
                }
                SliceStatus::Preempted => unreachable!("the preempt flag is never raised"),
            }
        }
        if round_trips == 0 {
            task = self.round_trip(job, root, spec, &task, path)?;
        }
        let stats = delta(&array.combined_stats(), &before);
        let sites = spec.kind.sites() as u64;
        let iterations = spec.iterations as u64;
        let model = array.pipeline_model().ok_or("no sweep ran")?;
        let answer = self.span("runner.score", job, root, || answer(&task));
        if self.record {
            self.spans[root].end_ns = self.now_ns();
        }

        let c = &mut self.counters;
        c.jobs += 1;
        c.site_updates += sites * iterations;
        c.sim_cycles +=
            model.cycles_for_run(sites, labels(&spec.kind), iterations) + stats.stall_cycles;
        add_stats(&mut c.rsu, &stats);
        c.round_trips += round_trips;
        Ok(answer)
    }

    /// Suspends `task` through the checkpoint layer and resumes it.
    fn round_trip(
        &mut self,
        job: usize,
        root: usize,
        spec: &JobSpec,
        task: &JobTask,
        path: &Path,
    ) -> Result<JobTask, String> {
        let captured = self.span("checkpoint.capture", job, root, || task.checkpoint());
        let (bytes, decoded) = self.span("checkpoint.text", job, root, || {
            let text = captured.to_text();
            (text.len(), Checkpoint::from_text(&text))
        });
        let decoded = decoded.map_err(|e| e.to_string())?;
        self.span("checkpoint.save", job, root, || decoded.save(path))
            .map_err(|e| e.to_string())?;
        let resumed = self
            .span("checkpoint.resume", job, root, || {
                JobTask::resume(spec.clone(), &decoded)
            })
            .map_err(|e| e.to_string())?;
        self.counters.timed_round_trips += 1;
        self.counters.checkpoint_bytes += bytes as u64;
        Ok(resumed)
    }
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.jobs += other.jobs;
        self.site_updates += other.site_updates;
        add_stats(&mut self.rsu, &other.rsu);
        self.sim_cycles += other.sim_cycles;
        self.round_trips += other.round_trips;
        self.timed_round_trips += other.timed_round_trips;
        self.checkpoint_bytes += other.checkpoint_bytes;
    }
}

fn add_stats(total: &mut RsuStats, s: &RsuStats) {
    total.variable_evaluations += s.variable_evaluations;
    total.label_evaluations += s.label_evaluations;
    total.censored_samples += s.censored_samples;
    total.ties_broken += s.ties_broken;
    total.stall_cycles += s.stall_cycles;
}

fn delta(after: &RsuStats, before: &RsuStats) -> RsuStats {
    RsuStats {
        variable_evaluations: after.variable_evaluations - before.variable_evaluations,
        label_evaluations: after.label_evaluations - before.label_evaluations,
        censored_samples: after.censored_samples - before.censored_samples,
        ties_broken: after.ties_broken - before.ties_broken,
        stall_cycles: after.stall_cycles - before.stall_cycles,
        ..RsuStats::default()
    }
}

/// Per-layer busy time and self time, nanoseconds.
pub struct LayerTime {
    pub layer: &'static str,
    pub spans: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per layer: each span's duration minus the part its child
/// spans cover (children of one span never overlap: a job runs on one
/// thread).
pub fn self_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.ns();
        }
    }
    let mut layers: Vec<LayerTime> = Vec::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let layer = span.layer();
        let index = match layers.iter().position(|l| l.layer == layer) {
            Some(i) => i,
            None => {
                layers.push(LayerTime {
                    layer,
                    spans: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                layers.len() - 1
            }
        };
        let entry = &mut layers[index];
        entry.spans += 1;
        entry.total_ns += span.ns();
        entry.self_ns += span.ns().saturating_sub(children);
    }
    layers
}

/// Writes the spans as JSON lines.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {index}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.job, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
