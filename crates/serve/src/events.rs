//! Typed job-lifecycle events and the JSONL `"job"` record format.
//!
//! Every scheduling decision the server makes is observable: each
//! transition of the lifecycle state machine (DESIGN §13)
//!
//! ```text
//! submitted → admitted → started → (preempted → resumed)* → completed
//!          ↘ rejected  ↘ completed (cached)                ↘ failed
//!                      ↘ rejected
//! ```
//!
//! The cached edge is the result cache short-circuit: a spec whose
//! digest is already answered completes at admission without ever
//! starting on a worker; its completion event carries `cached: true`.
//! The rejected edges are admission control (DESIGN §14): an arrival
//! shed at submit time never admits; a queued job displaced by a
//! higher-value same-class arrival is rejected after admission but
//! always before `started`.
//!
//! is emitted as one `{"kind":"job", ...}` line through the same
//! [`chain::trace_jsonl::JsonlTraceWriter`] the solver traces use, so
//! one trace file interleaves sweeps, faults and scheduling and the
//! existing `parse_jsonl` round-trip gates cover job records too.
//! [`validate_lifecycle`] is the executable form of the state machine:
//! CI re-parses a live trace and checks every job's event sequence.

use crate::spec::SpecError;
use chain::minijson::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobState {
    /// The spec reached the server and passed validation.
    Submitted,
    /// The scheduler placed the job in the admission queue.
    Admitted,
    /// A worker began executing the job's first sweep.
    Started,
    /// The worker suspended the job at a sweep boundary and spooled its
    /// checkpoint so a higher-priority job could take the array.
    Preempted,
    /// A worker restored the job's checkpoint and continued sweeping.
    Resumed,
    /// The job produced its [`crate::JobResult`].
    Completed,
    /// The job was aborted by an execution error; `detail` carries the
    /// reason.
    Failed,
    /// Admission control shed the job (queue bounds, tenant limits or
    /// displacement by a higher-value arrival); `detail` carries the
    /// typed shed reason. Terminal: a rejected job never runs — it is
    /// either refused before admission (`submitted → rejected`) or
    /// evicted from the queue before its first sweep
    /// (`submitted → admitted → rejected`), never after `started`.
    Rejected,
}

impl JobState {
    /// Wire name of the transition.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::Admitted => "admitted",
            JobState::Started => "started",
            JobState::Preempted => "preempted",
            JobState::Resumed => "resumed",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Rejected => "rejected",
        }
    }

    /// Whether this state ends a job's lifecycle (`completed`,
    /// `failed` or `rejected`). Exactly one terminal event appears per
    /// job, and waiters parked on any other state are woken with the
    /// terminal outcome instead of parking forever.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Rejected
        )
    }

    fn parse(text: &str) -> Result<Self, SpecError> {
        Ok(match text {
            "submitted" => JobState::Submitted,
            "admitted" => JobState::Admitted,
            "started" => JobState::Started,
            "preempted" => JobState::Preempted,
            "resumed" => JobState::Resumed,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "rejected" => JobState::Rejected,
            other => return Err(SpecError::new(format!("unknown job state {other:?}"))),
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One `"job"` trace record: a job crossing a lifecycle edge.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// The job.
    pub job: String,
    /// The transition.
    pub state: JobState,
    /// Milliseconds since the server started (monotonic).
    pub t_ms: f64,
    /// Worker index for execution-side transitions (started, preempted,
    /// resumed, completed); `None` for queue-side ones.
    pub worker: Option<u32>,
    /// Sweeps completed when the transition fired (0 for queue-side
    /// transitions; for `Resumed` this is where execution restarts).
    pub sweep: u64,
    /// Free-form context: the failure reason, or the preempting job.
    pub detail: Option<String>,
    /// True on a `Completed` event answered from the result cache (the
    /// job never reached a worker); false everywhere else.
    pub cached: bool,
}

impl JobEvent {
    /// The event as a `{"kind":"job", ...}` minijson record.
    pub fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("kind".into(), Value::String("job".into()));
        map.insert("job".into(), Value::String(self.job.clone()));
        map.insert("state".into(), Value::String(self.state.name().into()));
        map.insert("t_ms".into(), Value::Number(self.t_ms));
        map.insert(
            "worker".into(),
            match self.worker {
                Some(w) => Value::from_u64(u64::from(w)),
                None => Value::Null,
            },
        );
        map.insert("sweep".into(), Value::from_u64(self.sweep));
        map.insert("cached".into(), Value::Bool(self.cached));
        map.insert(
            "detail".into(),
            match &self.detail {
                Some(d) => Value::String(d.clone()),
                None => Value::Null,
            },
        );
        Value::Object(map)
    }

    /// Parses a `"job"` record.
    pub fn from_value(doc: &Value) -> Result<Self, SpecError> {
        let get_str = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| SpecError::new(format!("missing string field {key:?}")))
        };
        if get_str("kind")? != "job" {
            return Err(SpecError::new("record kind is not \"job\""));
        }
        Ok(JobEvent {
            job: get_str("job")?,
            state: JobState::parse(&get_str("state")?)?,
            t_ms: doc
                .get("t_ms")
                .and_then(Value::as_f64)
                .ok_or_else(|| SpecError::new("missing number field \"t_ms\""))?,
            worker: match doc.get("worker") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|w| u32::try_from(w).ok())
                        .ok_or_else(|| SpecError::new("field \"worker\" out of range"))?,
                ),
            },
            sweep: doc
                .get("sweep")
                .and_then(Value::as_u64)
                .ok_or_else(|| SpecError::new("missing integer field \"sweep\""))?,
            detail: match doc.get("detail") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| SpecError::new("field \"detail\" is not a string"))?,
                ),
            },
            // Absent in pre-cache traces: default to uncached.
            cached: match doc.get("cached") {
                None | Some(Value::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| SpecError::new("field \"cached\" is not a bool"))?,
            },
        })
    }
}

/// A violation of the lifecycle state machine found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleError {
    /// The offending job.
    pub job: String,
    /// What rule broke.
    pub message: String,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {:?}: {}", self.job, self.message)
    }
}

/// Checks a trace's job events against the lifecycle state machine.
///
/// For every job id appearing in `events` (in trace order per job):
///
/// * the one-shot transitions `submitted`, `admitted`, `started` each
///   appear **exactly once**, in that order (`started` is absent only
///   if the job failed at admission, completed from the result cache
///   or was rejected; `admitted` is absent only for a job rejected at
///   submit time);
/// * a `completed` event with `cached: true` follows `admitted`
///   directly — a cached job never starts, is never preempted, and is
///   the only way `completed` may appear without `started`;
/// * a `rejected` event follows `submitted` (arrival shed) or
///   `admitted` (queued job displaced) — never `started`: work that
///   has begun executing is preempted, not shed;
/// * `preempted`/`resumed` strictly alternate, starting with
///   `preempted`, each pair between `started` and the terminal event;
/// * exactly one terminal event (`completed`, `failed` or `rejected`)
///   appears, and nothing follows it;
/// * `t_ms` is non-decreasing along each job's sequence, and `sweep`
///   never decreases across execution events.
pub fn validate_lifecycle(events: &[JobEvent]) -> Result<(), LifecycleError> {
    let mut by_job: BTreeMap<&str, Vec<&JobEvent>> = BTreeMap::new();
    for event in events {
        by_job.entry(&event.job).or_default().push(event);
    }
    for (job, seq) in by_job {
        let fail = |message: String| {
            Err(LifecycleError {
                job: job.to_string(),
                message,
            })
        };
        let count = |state: JobState| -> usize { seq.iter().filter(|e| e.state == state).count() };
        if count(JobState::Submitted) != 1 {
            return fail(format!(
                "submitted appears {} times, want 1",
                count(JobState::Submitted)
            ));
        }
        let failed = count(JobState::Failed);
        let completed = count(JobState::Completed);
        let rejected = count(JobState::Rejected);
        if failed + completed + rejected != 1 {
            return fail(format!(
                "want exactly one terminal event, got {completed} completed + {failed} failed \
                 + {rejected} rejected"
            ));
        }
        // An arrival shed at submit time is the only lifecycle that
        // skips admission entirely.
        let admitted = count(JobState::Admitted);
        if admitted != 1 && !(admitted == 0 && rejected == 1) {
            return fail(format!("admitted appears {admitted} times, want 1"));
        }
        let started = count(JobState::Started);
        let cached = seq
            .iter()
            .any(|e| e.state == JobState::Completed && e.cached);
        if completed == 1 && !cached && started != 1 {
            return fail(format!("started appears {started} times, want 1"));
        }
        if started > 1 {
            return fail(format!("started appears {started} times"));
        }
        // Order + alternation, as a walk.
        let mut prev_t = f64::NEG_INFINITY;
        let mut prev_sweep = 0u64;
        let mut phase = JobState::Submitted; // last structural state seen
        let mut suspended = false;
        let mut terminal = false;
        for (index, event) in seq.iter().enumerate() {
            if terminal {
                return fail(format!("{} after the terminal event", event.state));
            }
            if event.t_ms < prev_t {
                return fail(format!(
                    "t_ms went backwards ({} -> {}) at {}",
                    prev_t, event.t_ms, event.state
                ));
            }
            prev_t = event.t_ms;
            match event.state {
                JobState::Submitted => {
                    if index != 0 {
                        return fail("submitted is not the first event".to_string());
                    }
                }
                JobState::Admitted => {
                    if phase != JobState::Submitted {
                        return fail(format!("admitted after {phase}"));
                    }
                    phase = JobState::Admitted;
                }
                JobState::Started => {
                    if phase != JobState::Admitted {
                        return fail(format!("started after {phase}"));
                    }
                    phase = JobState::Started;
                }
                JobState::Preempted => {
                    if phase != JobState::Started || suspended {
                        return fail("preempted outside running execution".to_string());
                    }
                    suspended = true;
                }
                JobState::Resumed => {
                    if !suspended {
                        return fail("resumed without a preceding preempted".to_string());
                    }
                    suspended = false;
                }
                JobState::Completed => {
                    if event.cached {
                        // The cache short-circuit: completion at
                        // admission, never having run.
                        if phase != JobState::Admitted {
                            return fail(format!("cached completed after {phase}"));
                        }
                    } else if phase != JobState::Started || suspended {
                        return fail("completed while not running".to_string());
                    }
                    terminal = true;
                }
                JobState::Failed => {
                    if suspended {
                        return fail("failed while suspended".to_string());
                    }
                    terminal = true;
                }
                JobState::Rejected => {
                    // Shedding only ever refuses work that has not
                    // begun executing: before admission (arrival shed)
                    // or while queued unstarted (displacement).
                    if phase != JobState::Submitted && phase != JobState::Admitted {
                        return fail(format!("rejected after {phase}"));
                    }
                    terminal = true;
                }
            }
            let executes = matches!(
                event.state,
                JobState::Started | JobState::Preempted | JobState::Resumed | JobState::Completed
            );
            if executes {
                if event.sweep < prev_sweep {
                    return fail(format!(
                        "sweep went backwards ({} -> {}) at {}",
                        prev_sweep, event.sweep, event.state
                    ));
                }
                prev_sweep = event.sweep;
            }
        }
        if suspended {
            return fail("trace ends with the job suspended".to_string());
        }
        if !terminal {
            return fail("no terminal event".to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(job: &str, state: JobState, t_ms: f64, sweep: u64) -> JobEvent {
        JobEvent {
            job: job.into(),
            state,
            t_ms,
            worker: match state {
                JobState::Submitted
                | JobState::Admitted
                | JobState::Failed
                | JobState::Rejected => None,
                _ => Some(0),
            },
            sweep,
            detail: None,
            cached: false,
        }
    }

    fn full_lifecycle(job: &str) -> Vec<JobEvent> {
        vec![
            event(job, JobState::Submitted, 0.0, 0),
            event(job, JobState::Admitted, 0.1, 0),
            event(job, JobState::Started, 1.0, 0),
            event(job, JobState::Preempted, 2.0, 10),
            event(job, JobState::Resumed, 5.0, 10),
            event(job, JobState::Completed, 9.0, 40),
        ]
    }

    #[test]
    fn events_round_trip_through_minijson() {
        for original in full_lifecycle("j-1") {
            let line = original.to_value().to_string();
            let doc = chain::minijson::parse(&line).unwrap();
            assert_eq!(doc.get("kind").and_then(Value::as_str), Some("job"));
            assert_eq!(JobEvent::from_value(&doc).unwrap(), original);
        }
    }

    #[test]
    fn accepts_interleaved_valid_lifecycles() {
        let mut events = full_lifecycle("a");
        // A second job's events interleave in global trace order; the
        // validator groups per job.
        let b = vec![
            event("b", JobState::Submitted, 0.5, 0),
            event("b", JobState::Admitted, 0.6, 0),
            event("b", JobState::Started, 3.0, 0),
            event("b", JobState::Completed, 4.0, 40),
        ];
        events.extend(b);
        // total_cmp: a NaN timestamp (possible in a hand-edited or
        // corrupted trace) must not panic the sort — the validator's
        // monotonicity check is what rejects it.
        events.sort_by(|x, y| x.t_ms.total_cmp(&y.t_ms));
        validate_lifecycle(&events).unwrap();
    }

    #[test]
    fn accepts_cached_completion_without_started() {
        let events = vec![
            event("hit", JobState::Submitted, 0.0, 0),
            event("hit", JobState::Admitted, 0.1, 0),
            JobEvent {
                cached: true,
                worker: None,
                ..event("hit", JobState::Completed, 0.2, 40)
            },
        ];
        validate_lifecycle(&events).unwrap();
    }

    #[test]
    fn rejects_misplaced_cached_completions() {
        // An uncached completion still may not skip started...
        let skipped = vec![
            event("j", JobState::Submitted, 0.0, 0),
            event("j", JobState::Admitted, 0.1, 0),
            event("j", JobState::Completed, 0.2, 40),
        ];
        assert!(validate_lifecycle(&skipped).is_err());
        // ...and a cached completion may not follow started.
        let late_hit = vec![
            event("j", JobState::Submitted, 0.0, 0),
            event("j", JobState::Admitted, 0.1, 0),
            event("j", JobState::Started, 0.2, 0),
            JobEvent {
                cached: true,
                ..event("j", JobState::Completed, 0.3, 40)
            },
        ];
        assert!(validate_lifecycle(&late_hit).is_err());
    }

    #[test]
    fn accepts_rejection_at_submit_and_after_admission() {
        // Arrival shed: submitted → rejected, no admitted.
        let at_submit = vec![
            event("shed", JobState::Submitted, 0.0, 0),
            JobEvent {
                detail: Some("batch class full (limit 1)".into()),
                ..event("shed", JobState::Rejected, 0.1, 0)
            },
        ];
        validate_lifecycle(&at_submit).unwrap();
        // Queued job displaced: submitted → admitted → rejected.
        let displaced = vec![
            event("bump", JobState::Submitted, 0.0, 0),
            event("bump", JobState::Admitted, 0.1, 0),
            JobEvent {
                detail: Some("displaced".into()),
                ..event("bump", JobState::Rejected, 0.5, 0)
            },
        ];
        validate_lifecycle(&displaced).unwrap();
        assert!(JobState::Rejected.is_terminal());
        assert!(!JobState::Preempted.is_terminal());
    }

    #[test]
    fn rejects_misplaced_rejections() {
        // Rejected after started: running work is preempted, not shed.
        let after_start = vec![
            event("j", JobState::Submitted, 0.0, 0),
            event("j", JobState::Admitted, 0.1, 0),
            event("j", JobState::Started, 0.2, 0),
            event("j", JobState::Rejected, 0.3, 0),
        ];
        assert!(validate_lifecycle(&after_start).is_err());
        // Rejected is terminal: nothing may follow it.
        let then_completed = vec![
            event("j", JobState::Submitted, 0.0, 0),
            event("j", JobState::Rejected, 0.1, 0),
            event("j", JobState::Completed, 0.2, 0),
        ];
        assert!(validate_lifecycle(&then_completed).is_err());
        // A non-rejected job still needs its admitted event.
        let no_admit = vec![
            event("j", JobState::Submitted, 0.0, 0),
            event("j", JobState::Started, 0.2, 0),
            event("j", JobState::Completed, 0.3, 0),
        ];
        assert!(validate_lifecycle(&no_admit).is_err());
        // Two rejections double the terminal.
        let twice = vec![
            event("j", JobState::Submitted, 0.0, 0),
            event("j", JobState::Rejected, 0.1, 0),
            event("j", JobState::Rejected, 0.2, 0),
        ];
        assert!(validate_lifecycle(&twice).is_err());
    }

    #[test]
    fn rejected_event_round_trips_through_minijson() {
        let original = JobEvent {
            detail: Some("tenant \"acme\" at live-job limit 2".into()),
            ..event("shed-3", JobState::Rejected, 4.25, 0)
        };
        let doc = chain::minijson::parse(&original.to_value().to_string()).unwrap();
        assert_eq!(JobEvent::from_value(&doc).unwrap(), original);
    }

    #[test]
    fn accepts_admission_failure_without_started() {
        let events = vec![
            event("bad", JobState::Submitted, 0.0, 0),
            event("bad", JobState::Admitted, 0.1, 0),
            event("bad", JobState::Failed, 0.2, 0),
        ];
        validate_lifecycle(&events).unwrap();
    }

    #[test]
    fn rejects_state_machine_violations() {
        let base = full_lifecycle("j");
        // Drop the resume: ends suspended.
        let mut no_resume = base.clone();
        no_resume.remove(4);
        assert!(validate_lifecycle(&no_resume).is_err());
        // Duplicate terminal.
        let mut two_done = base.clone();
        two_done.push(event("j", JobState::Completed, 9.5, 40));
        assert!(validate_lifecycle(&two_done).is_err());
        // Resume before any preemption.
        let mut early_resume = base.clone();
        early_resume.swap(3, 4);
        assert!(validate_lifecycle(&early_resume).is_err());
        // Started twice.
        let mut two_starts = base.clone();
        two_starts.insert(3, event("j", JobState::Started, 1.5, 0));
        assert!(validate_lifecycle(&two_starts).is_err());
        // Time going backwards.
        let mut time_warp = base.clone();
        time_warp[5].t_ms = 0.5;
        assert!(validate_lifecycle(&time_warp).is_err());
        // Sweep counter going backwards on resume.
        let mut sweep_warp = base;
        sweep_warp[4].sweep = 3;
        assert!(validate_lifecycle(&sweep_warp).is_err());
        // No events after submit.
        assert!(validate_lifecycle(&[event("j", JobState::Submitted, 0.0, 0)]).is_err());
    }
}
