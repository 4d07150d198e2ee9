//! `perfbench`: the repository's fixed-load benchmark of the
//! `retrsu-serve` job server. See `README.md` in this directory for the
//! workloads, the metrics and what each is expected to move.
//!
//! ```text
//! perfbench --workload <mixed_open|sweep_closed> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, from an untraced serve run; with
//! `--trace 1` they are the per-layer ones, from the same serve run plus
//! a traced direct replay of its distinct specs. Any output mismatch
//! prints `"correct": false` with no metrics and exits with code 1.

mod drive;
mod replay;
mod workload;

use drive::{End, Measured, Record};
use replay::{Mode, Replay};
use retrsu_serve::{percentile, validate_lifecycle, JobResult, JobSpec, JobState};
use std::collections::HashMap;
use std::path::Path;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <mixed_open|sweep_closed> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// A run that produced no trustworthy numbers.
struct Failure {
    message: String,
    attempted: usize,
    failed: usize,
}

fn fail(message: impl Into<String>, attempted: usize, failed: usize) -> Failure {
    Failure {
        message: message.into(),
        attempted,
        failed,
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let spool = out_dir.join(format!("spool-{}", std::process::id()));
    let result = std::fs::create_dir_all(&spool)
        .map_err(|e| fail(format!("cannot create {}: {e}", spool.display()), 0, 0))
        .and_then(|()| bench(&args, &out_dir, &spool));
    let _ = std::fs::remove_dir_all(&spool);
    match result {
        Ok(report) => {
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect();
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.attempted,
                report.failed,
                metrics.join(", ")
            );
        }
        Err(failure) => {
            eprintln!("perfbench: FAILED: {}", failure.message);
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                failure.attempted.max(1),
                failure.failed
            );
            std::process::exit(1);
        }
    }
}

fn bench(args: &Args, out_dir: &Path, spool: &Path) -> Result<Report, Failure> {
    let w = &args.workload;
    let jobs = w.jobs(args.seconds);
    eprintln!(
        "perfbench: {} seed {} — {jobs} jobs, {SETUP_REPS} set-ups, {} host threads",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let r = drive::set_up(w, args.seed, jobs).map_err(|e| fail(e, jobs, 0))?;
        setup_s.push(r.setup_s);
        if rep + 1 < SETUP_REPS {
            drive::finish_bounded(r.handle)
                .ok_or_else(|| fail("a set-up server did not shut down", jobs, 0))?;
        } else {
            ready = Some(r);
        }
    }
    let ready = ready.expect("at least one set-up");
    let specs = ready.specs.clone();
    let measured = drive::run(w, ready);
    let peak_rss_mb = peak_rss_mb();
    let failed = measured
        .records
        .iter()
        .filter(|r| !matches!(r.end, End::Completed { .. }))
        .count();
    let count = |end: End| measured.records.iter().filter(|r| r.end == end).count();
    if failed > 0 {
        eprintln!(
            "perfbench: {failed} of {jobs} jobs did not complete: {} shed, {} failed, {} timed out",
            count(End::Shed),
            count(End::Failed),
            count(End::TimedOut)
        );
    }
    let bail = |message: String| fail(message, jobs, failed);
    let Some(outcome) = &measured.outcome else {
        return Err(bail("the server did not drain: jobs timed out".into()));
    };
    let served = Served::new(&specs, &measured.records, &outcome.results);
    validate_lifecycle(&outcome.events).map_err(|e| bail(format!("lifecycle: {e:?}")))?;
    served.check_cache_consistency().map_err(bail)?;

    if !args.trace {
        let oracle = replay::replay(&served.distinct, Mode::Plain).map_err(bail)?;
        served.check_against(&oracle, "direct run").map_err(bail)?;
        let setup_s = percentile(&setup_s, 0.5);
        let metrics = end_to_end(w, &served, &measured, setup_s, peak_rss_mb).map_err(bail)?;
        return Ok(Report {
            attempted: jobs,
            failed,
            metrics,
        });
    }

    let sliced = |spans| Mode::Sliced {
        quantum: w.quantum,
        spool,
        spans,
    };
    let untraced = replay::replay(&served.distinct, sliced(false)).map_err(bail)?;
    served
        .check_against(&untraced, "untraced replay")
        .map_err(bail)?;
    let traced = replay::replay(&served.distinct, sliced(true)).map_err(bail)?;
    served
        .check_against(&traced, "traced replay")
        .map_err(bail)?;
    if traced.counters.rsu != untraced.counters.rsu
        || traced.counters.sim_cycles != untraced.counters.sim_cycles
    {
        return Err(bail(
            "simulated counters differ between traced and untraced replays".into(),
        ));
    }
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    if let Err(e) = replay::write_spans(&traced.spans, &spans_path) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }
    print_self_times(&traced);
    let metrics = per_layer(&served, &measured, outcome, &untraced, &traced).map_err(bail)?;
    Ok(Report {
        attempted: jobs,
        failed,
        metrics,
    })
}

/// The measured jobs joined with the server's results.
struct Served<'a> {
    specs: &'a [JobSpec],
    records: &'a [Record],
    results: HashMap<&'a str, &'a JobResult>,
    /// The first spec sent of each distinct digest, in sending order.
    distinct: Vec<JobSpec>,
}

impl<'a> Served<'a> {
    fn new(specs: &'a [JobSpec], records: &'a [Record], results: &'a [JobResult]) -> Self {
        let mut seen = std::collections::HashSet::new();
        let distinct = specs
            .iter()
            .filter(|s| seen.insert(s.digest()))
            .cloned()
            .collect();
        Served {
            specs,
            records,
            results: results.iter().map(|r| (r.id.as_str(), r)).collect(),
            distinct,
        }
    }

    /// Completed measured jobs with their results.
    fn completed(&self) -> impl Iterator<Item = (&'a JobSpec, &'a Record, &'a JobResult)> + '_ {
        self.specs
            .iter()
            .zip(self.records)
            .filter(|(_, r)| matches!(r.end, End::Completed { .. }))
            .filter_map(|(s, r)| self.results.get(s.id.as_str()).map(|res| (s, r, *res)))
    }

    /// Every answer for one digest, cached or computed, must be the same.
    fn check_cache_consistency(&self) -> Result<(), String> {
        let mut first: HashMap<u64, &JobResult> = HashMap::new();
        for (spec, _, result) in self.completed() {
            let earlier = *first.entry(spec.digest()).or_insert(result);
            if !same_answer(earlier, result) {
                return Err(format!(
                    "{} (cached: {}) disagrees with {} (cached: {}) on the same spec",
                    result.id, result.cached, earlier.id, earlier.cached
                ));
            }
        }
        Ok(())
    }

    /// Every completed job must equal the replay's answer for its spec.
    fn check_against(&self, replay: &Replay, what: &str) -> Result<(), String> {
        let by_digest: HashMap<u64, _> = self
            .distinct
            .iter()
            .zip(&replay.answers)
            .map(|(s, a)| (s.digest(), a))
            .collect();
        for (spec, _, result) in self.completed() {
            let answer = by_digest[&spec.digest()];
            if result.field_digest != answer.field_digest
                || result.metric != answer.metric
                || result.score.to_bits() != answer.score.to_bits()
            {
                return Err(format!(
                    "{} served digest {:#x} score {} but a {what} gives {:#x} score {}",
                    result.id, result.field_digest, result.score, answer.field_digest, answer.score
                ));
            }
        }
        Ok(())
    }
}

fn same_answer(a: &JobResult, b: &JobResult) -> bool {
    a.field_digest == b.field_digest
        && a.metric == b.metric
        && a.score.to_bits() == b.score.to_bits()
}

fn latency(record: &Record) -> f64 {
    match record.end {
        End::Completed { latency_ms, .. } => latency_ms,
        _ => f64::NAN,
    }
}

fn end_to_end(
    w: &Workload,
    served: &Served,
    measured: &Measured,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let sent = served.specs.len() as f64;
    let elapsed_s = measured.elapsed_s();
    let mut completed = 0usize;
    // Latencies of the jobs a worker computed, per class. Cache hits are
    // a mode of their own, and a median taken over both modes sits near
    // their boundary and jumps between runs; the cache shows in
    // `cpu_us_per_site` instead.
    let mut interactive = Vec::new();
    let mut batch = Vec::new();
    let mut site_updates = 0u64;
    let mut within_slo = 0usize;
    for (spec, record, result) in served.completed() {
        let ms = latency(record);
        completed += 1;
        let slo = if record.interactive {
            w.interactive_slo_ms
        } else {
            w.batch_slo_ms
        };
        within_slo += usize::from(ms <= slo);
        // Site updates delivered: a cache hit delivers its spec's sweeps
        // without running them.
        site_updates += (spec.kind.sites() * spec.iterations) as u64;
        if !result.cached {
            let class = if record.interactive {
                &mut interactive
            } else {
                &mut batch
            };
            class.push(ms);
        }
    }
    let computed: Vec<f64> = interactive.iter().chain(&batch).copied().collect();
    let quality = |metric: &str| -> f64 {
        let mut seen = std::collections::HashSet::new();
        let scores: Vec<f64> = served
            .completed()
            .filter(|(s, _, r)| r.metric == metric && seen.insert(s.digest()))
            .map(|(_, _, r)| r.score)
            .collect();
        scores.iter().sum::<f64>() / scores.len() as f64
    };
    // Tail percentiles are printed for reading, not reported: on a shared
    // 2-vCPU host they follow the host's scheduling stalls more than the
    // program (slo_attainment carries the tail instead).
    let tail = |interactive_class: bool| -> String {
        let class: Vec<f64> = served
            .completed()
            .filter(|(_, r, _)| r.interactive == interactive_class)
            .map(|(_, r, _)| latency(r))
            .collect();
        let q: Vec<String> = [0.90, 0.95, 0.99]
            .iter()
            .map(|&q| format!("{:.3}", percentile(&class, q)))
            .collect();
        q.join("/")
    };
    eprintln!(
        "perfbench: {} completed ({} interactive and {} batch computed) of {sent} sent in \
         {elapsed_s:.2} s, {:.2} CPU s; p90/p95/p99 interactive {} ms, batch {} ms",
        completed,
        interactive.len(),
        batch.len(),
        measured.cpu_s,
        tail(true),
        tail(false),
    );
    finite(vec![
        m("setup_s", setup_s, "s"),
        m("jobs_per_s", completed as f64 / elapsed_s, "1/s"),
        m("sites_per_s", site_updates as f64 / elapsed_s, "1/s"),
        m(
            "cpu_us_per_site",
            measured.cpu_s * 1e6 / site_updates as f64,
            "us",
        ),
        m("interactive_p50_ms", percentile(&interactive, 0.50), "ms"),
        m("batch_p50_ms", percentile(&batch, 0.50), "ms"),
        m("job_p50_ms", percentile(&computed, 0.50), "ms"),
        m("slo_attainment", within_slo as f64 / sent, "ratio"),
        m("completed_ratio", completed as f64 / sent, "ratio"),
        m("stereo_bp", quality("bp"), "%"),
        m("motion_epe", quality("epe"), "px"),
        m("segment_voi", quality("voi"), "bits"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ])
}

fn per_layer(
    served: &Served,
    measured: &Measured,
    outcome: &retrsu_serve::ServeOutcome,
    untraced: &Replay,
    traced: &Replay,
) -> Result<Vec<Metric>, String> {
    let mut hits = 0u64;
    let mut waits = Vec::new();
    for (_, _, result) in served.completed() {
        if result.cached {
            hits += 1;
        } else {
            waits.push(result.wait_ms);
        }
    }
    let misses = waits.len() as u64;
    // Model builds span the server's whole life, warm-up included, and
    // so does this denominator.
    let executed = outcome
        .results
        .iter()
        .filter(|r| !r.cached && !r.rejected)
        .count() as f64;
    let measured_ids: std::collections::HashSet<&str> =
        served.specs.iter().map(|s| s.id.as_str()).collect();
    let preemptions = outcome
        .events
        .iter()
        .filter(|e| e.state == JobState::Preempted && measured_ids.contains(e.job.as_str()))
        .count();
    let submit_us: Vec<f64> = measured.records.iter().map(|r| r.submit_us).collect();
    let lag_ms: Vec<f64> = measured.records.iter().map(|r| r.lag_ms).collect();

    let c = &traced.counters;
    let span_ns = |name: &str| -> f64 {
        traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum()
    };
    let jobs = c.jobs as f64;
    let trips = c.timed_round_trips as f64;
    let sweep_ns = span_ns("rsu.sweep");
    let sites = c.rsu.variable_evaluations as f64;
    let evals = c.rsu.label_evaluations as f64;
    finite(vec![
        m("sched.queue_wait_p50_ms", percentile(&waits, 0.50), "ms"),
        m("sched.queue_wait_p99_ms", percentile(&waits, 0.99), "ms"),
        m("sched.submit_us_p99", percentile(&submit_us, 0.99), "us"),
        m("sched.peak_queued", outcome.peak_queued as f64, "count"),
        m("sched.shed", outcome.shed_jobs as f64, "count"),
        m("sched.preemptions", preemptions as f64, "count"),
        m("cache.hits", hits as f64, "count"),
        m("cache.misses", misses as f64, "count"),
        m(
            "cache.hit_ratio",
            hits as f64 / (hits + misses) as f64,
            "ratio",
        ),
        m("runner.model_builds", outcome.model_builds as f64, "count"),
        m(
            "runner.builds_per_executed_job",
            outcome.model_builds as f64 / executed,
            "ratio",
        ),
        m(
            "runner.build_ms",
            span_ns("runner.build") / jobs / 1e6,
            "ms",
        ),
        m(
            "runner.score_ms",
            span_ns("runner.score") / jobs / 1e6,
            "ms",
        ),
        m("rsu.sweep_ms_per_job", sweep_ns / jobs / 1e6, "ms"),
        m("rsu.ns_per_site", sweep_ns / sites, "ns"),
        m("rsu.ns_per_label_eval", sweep_ns / evals, "ns"),
        m("rsu.label_evals_per_site", evals / sites, "ratio"),
        m(
            "rsu.censored_per_label_eval",
            c.rsu.censored_samples as f64 / evals,
            "ratio",
        ),
        m(
            "rsu.ties_per_site",
            c.rsu.ties_broken as f64 / sites,
            "ratio",
        ),
        m(
            "rsu.stall_cycles_per_site",
            c.rsu.stall_cycles as f64 / sites,
            "cycles",
        ),
        m(
            "rsu.sim_cycles_per_job",
            c.sim_cycles as f64 / jobs,
            "cycles",
        ),
        m(
            "checkpoint.round_trips_per_job",
            c.round_trips as f64 / jobs,
            "ratio",
        ),
        m(
            "checkpoint.capture_ms",
            span_ns("checkpoint.capture") / trips / 1e6,
            "ms",
        ),
        m(
            "checkpoint.text_ms",
            span_ns("checkpoint.text") / trips / 1e6,
            "ms",
        ),
        m(
            "checkpoint.bytes",
            c.checkpoint_bytes as f64 / trips,
            "bytes",
        ),
        m(
            "checkpoint.save_ms",
            span_ns("checkpoint.save") / trips / 1e6,
            "ms",
        ),
        m(
            "checkpoint.resume_ms",
            span_ns("checkpoint.resume") / trips / 1e6,
            "ms",
        ),
        m(
            "harness.generator_lag_p99_ms",
            percentile(&lag_ms, 0.99),
            "ms",
        ),
        m(
            "harness.trace_overhead_ratio",
            traced.wall_s / untraced.wall_s,
            "ratio",
        ),
    ])
}

/// Prints the traced replay's self time per layer to standard error.
fn print_self_times(traced: &Replay) {
    let layers = replay::self_times(&traced.spans);
    let total: u64 = layers.iter().map(|l| l.self_ns).sum();
    eprintln!(
        "perfbench: traced replay self time per layer ({} jobs)",
        traced.counters.jobs
    );
    eprintln!(
        "  {:<12} {:>8} {:>12} {:>12} {:>7}",
        "layer", "spans", "total_ms", "self_ms", "share"
    );
    for l in &layers {
        eprintln!(
            "  {:<12} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
            l.layer,
            l.spans,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / total.max(1) as f64
        );
    }
}

fn finite(metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(bad) => Err(format!("metric {} has no value (no samples?)", bad.name)),
        None => Ok(metrics),
    }
}

/// The process's peak resident set (`VmHWM`), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
