//! Driving a server: set-up with warm-up, the open and closed loops,
//! and bounded waits. Every wait here has a deadline, so a lost wake-up
//! or a dead worker turns into timed-out jobs instead of a hung run.

use crate::workload::{Load, Workload, WORKERS};
use retrsu_serve::{
    serve, Admission, JobSpec, JobState, Priority, ServeClient, ServeHandle, ServeOutcome,
    WaitOutcome,
};
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A job that has not completed this long after it was due counts as
/// timed out.
const JOB_DEADLINE_MS: f64 = 30_000.0;
/// How long the benchmark waits for the next job to reach a terminal
/// state before it counts every outstanding job as timed out.
const IDLE_LIMIT: Duration = Duration::from_secs(30);
/// How long a server gets to shut down once every job is terminal.
const FINISH_LIMIT: Duration = Duration::from_secs(10);

/// A server set up and warmed, plus the run's inputs.
pub struct Ready {
    pub handle: ServeHandle,
    pub specs: Vec<JobSpec>,
    /// Open-loop due times, seconds after the measurement starts.
    pub arrivals: Vec<f64>,
    /// Construction, input generation and warm-up, seconds.
    pub setup_s: f64,
}

/// Builds the server, generates the run's inputs and runs the warm-up
/// jobs to completion.
pub fn set_up(workload: &Workload, seed: u64, jobs: usize) -> Result<Ready, String> {
    let start = Instant::now();
    let handle = serve(workload.server_config());
    let specs = workload.specs(seed, jobs);
    let arrivals = workload.arrivals(seed, jobs);
    // Warm up in waves of one job per worker, so warm-up itself never
    // queues or preempts.
    for wave in workload.warmup_specs().chunks(WORKERS) {
        let (id_tx, id_rx) = mpsc::channel();
        for spec in wave {
            handle
                .submit(spec)
                .map_err(|e| format!("warm-up job {} refused: {e}", spec.id))?;
            let _ = id_tx.send(spec.id.clone());
        }
        drop(id_tx);
        let (waiter, done_rx) = spawn_waiter(handle.client(), id_rx);
        let waited = collect(&done_rx, wave.len());
        if waited.len() < wave.len() || waited.values().any(|o| *o != WaitOutcome::Reached) {
            return Err("warm-up jobs did not all complete".into());
        }
        let _ = waiter.join();
    }
    Ok(Ready {
        handle,
        specs,
        arrivals,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// How a sent job ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum End {
    /// Completed `latency_ms` after it was due, `done_s` after the
    /// measurement started.
    Completed { latency_ms: f64, done_s: f64 },
    /// Shed by admission control.
    Shed,
    /// Refused at submit, failed on a worker, or otherwise lost.
    Failed,
    /// No terminal state within the deadline.
    TimedOut,
}

/// One sent job, as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub interactive: bool,
    /// How late the client sent it: behind its due time (open loop) or
    /// after the client saw its previous job complete (closed loop).
    pub lag_ms: f64,
    /// Time spent inside `submit`, microseconds.
    pub submit_us: f64,
    pub end: End,
}

/// A measured run.
pub struct Measured {
    pub records: Vec<Record>,
    /// The server's outcome; `None` when it could not be drained.
    pub outcome: Option<ServeOutcome>,
    /// CPU time the whole process (server and load generator) used from
    /// the start of the measurement until every job was terminal,
    /// seconds.
    pub cpu_s: f64,
}

impl Measured {
    /// Seconds from the start of the measurement to the last completion.
    pub fn elapsed_s(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| match r.end {
                End::Completed { done_s, .. } => Some(done_s),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// Runs the measurement on a set-up server and shuts it down.
pub fn run(workload: &Workload, ready: Ready) -> Measured {
    match workload.load {
        Load::Open { .. } => open_loop(ready),
        Load::Closed { clients, .. } => closed_loop(ready, clients),
    }
}

/// Sent-side facts of an open-loop submission.
struct Sent {
    due_s: f64,
    returned_s: f64,
    lag_ms: f64,
    submit_us: f64,
    refused: bool,
}

fn open_loop(ready: Ready) -> Measured {
    let Ready {
        handle,
        specs,
        arrivals,
        ..
    } = ready;
    let (id_tx, id_rx) = mpsc::channel::<String>();
    let (waiter, done_rx) = spawn_waiter(handle.client(), id_rx);
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    let mut sent = Vec::with_capacity(specs.len());
    for (spec, &due_s) in specs.iter().zip(&arrivals) {
        let due = start + Duration::from_secs_f64(due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let call = Instant::now();
        let admission = handle.submit(spec);
        let returned = Instant::now();
        sent.push(Sent {
            due_s,
            returned_s: (returned - start).as_secs_f64(),
            lag_ms: (call - due).as_secs_f64() * 1e3,
            submit_us: (returned - call).as_secs_f64() * 1e6,
            refused: admission.is_err(),
        });
        let _ = id_tx.send(spec.id.clone());
    }
    drop(id_tx);
    let waited = collect(&done_rx, specs.len());
    let cpu_s = process_cpu_s() - cpu_start;
    let all_terminal = waited.len() == specs.len();
    if all_terminal {
        let _ = waiter.join();
    }
    let outcome = all_terminal.then(|| finish_bounded(handle)).flatten();
    let results: HashMap<&str, _> = outcome
        .iter()
        .flat_map(|o| &o.results)
        .map(|r| (r.id.as_str(), r))
        .collect();
    let records = specs
        .iter()
        .zip(&sent)
        .map(|(spec, s)| {
            let end = match (waited.get(&spec.id), results.get(spec.id.as_str())) {
                _ if s.refused => End::Failed,
                (Some(WaitOutcome::Reached), Some(result)) => {
                    // The server times from its receipt of the submit,
                    // which lies inside the submit call; its return
                    // bounds the receipt from above.
                    let done_s = s.returned_s + result.latency_ms / 1e3;
                    completed((done_s - s.due_s) * 1e3, done_s)
                }
                (Some(WaitOutcome::Terminal(JobState::Rejected)), _) => End::Shed,
                (None, _) => End::TimedOut,
                _ => End::Failed,
            };
            Record {
                interactive: spec.priority == Priority::Interactive,
                lag_ms: s.lag_ms,
                submit_us: s.submit_us,
                end,
            }
        })
        .collect();
    Measured {
        records,
        outcome,
        cpu_s,
    }
}

fn completed(latency_ms: f64, done_s: f64) -> End {
    if latency_ms > JOB_DEADLINE_MS {
        End::TimedOut
    } else {
        End::Completed { latency_ms, done_s }
    }
}

fn closed_loop(ready: Ready, clients: usize) -> Measured {
    let Ready { handle, specs, .. } = ready;
    let (tx, rx) = mpsc::channel::<(usize, Record)>();
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    let threads: Vec<JoinHandle<()>> = (0..clients)
        .map(|c| {
            let client = handle.client();
            let tx = tx.clone();
            // Client `c` sends jobs c, c + clients, c + 2·clients, …
            let mine: Vec<(usize, JobSpec)> = specs
                .iter()
                .cloned()
                .enumerate()
                .skip(c)
                .step_by(clients)
                .collect();
            std::thread::spawn(move || {
                let mut due = start;
                for (index, spec) in mine {
                    let call = Instant::now();
                    let admission = client.submit(&spec);
                    let returned = Instant::now();
                    let end = match admission {
                        Ok(Admission::Queued | Admission::Cached) => {
                            match client.wait_for(&spec.id, JobState::Completed) {
                                WaitOutcome::Reached => {
                                    let done = Instant::now();
                                    completed(
                                        (done - due).as_secs_f64() * 1e3,
                                        (done - start).as_secs_f64(),
                                    )
                                }
                                // Displaced from the queue after admission.
                                WaitOutcome::Terminal(JobState::Rejected) => End::Shed,
                                _ => End::Failed,
                            }
                        }
                        Ok(Admission::Rejected(_)) => End::Shed,
                        Err(_) => End::Failed,
                    };
                    let record = Record {
                        interactive: spec.priority == Priority::Interactive,
                        lag_ms: (call - due).as_secs_f64() * 1e3,
                        submit_us: (returned - call).as_secs_f64() * 1e6,
                        end,
                    };
                    due = Instant::now();
                    if tx.send((index, record)).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let mut records: Vec<Option<Record>> = vec![None; specs.len()];
    let mut received = 0;
    while received < specs.len() {
        match rx.recv_timeout(IDLE_LIMIT) {
            Ok((index, record)) => {
                records[index] = Some(record);
                received += 1;
            }
            Err(_) => break,
        }
    }
    let cpu_s = process_cpu_s() - cpu_start;
    let all_back = received == specs.len();
    if all_back {
        for thread in threads {
            let _ = thread.join();
        }
    }
    let outcome = all_back.then(|| finish_bounded(handle)).flatten();
    let records = specs
        .iter()
        .zip(records)
        .map(|(spec, record)| {
            record.unwrap_or(Record {
                interactive: spec.priority == Priority::Interactive,
                lag_ms: 0.0,
                submit_us: 0.0,
                end: End::TimedOut,
            })
        })
        .collect();
    Measured {
        records,
        outcome,
        cpu_s,
    }
}

/// Drains and stops a server whose jobs are all terminal, within
/// [`FINISH_LIMIT`]; `None` when it does not stop (a hung or dead
/// worker). A server with jobs still outstanding is never finished: the
/// process exits around it.
pub fn finish_bounded(handle: ServeHandle) -> Option<ServeOutcome> {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(handle.finish());
    });
    let outcome = rx.recv_timeout(FINISH_LIMIT).ok()?;
    let _ = thread.join();
    Some(outcome)
}

/// A helper thread that waits, in order, for each id it is sent to reach
/// `completed` (or another terminal state) and reports each outcome.
fn spawn_waiter(
    client: ServeClient,
    ids: Receiver<String>,
) -> (JoinHandle<()>, Receiver<(String, WaitOutcome)>) {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        for id in ids {
            let outcome = client.wait_for(&id, JobState::Completed);
            if tx.send((id, outcome)).is_err() {
                return;
            }
        }
    });
    (thread, rx)
}

/// Collects up to `n` waiter reports, giving up once none arrives for
/// [`IDLE_LIMIT`].
fn collect(rx: &Receiver<(String, WaitOutcome)>, n: usize) -> HashMap<String, WaitOutcome> {
    let mut done = HashMap::with_capacity(n);
    while done.len() < n {
        match rx.recv_timeout(IDLE_LIMIT) {
            Ok((id, outcome)) => {
                done.insert(id, outcome);
            }
            Err(_) => break,
        }
    }
    done
}

/// CPU time (user + system) the process has used so far, seconds, from
/// `/proc/self/stat`: it counts every thread, also ones that have ended,
/// in the fixed 100 Hz ticks of the proc interface. NaN where unreadable.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) as f64 / 100.0,
        _ => f64::NAN,
    }
}
