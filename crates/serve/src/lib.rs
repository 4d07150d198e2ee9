//! `retrsu-serve`: a multi-tenant inference job server over a fleet of
//! simulated RSU arrays.
//!
//! The paper's unit is one accelerator running one MRF; a deployment
//! serving millions of users is a *fleet* of arrays fed by a queue of
//! heterogeneous jobs. This crate builds that serving layer out of the
//! substrate the workspace already trusts:
//!
//! * **Wire format** (`spec`) — [`JobSpec`] in, [`JobResult`] out,
//!   both serialized through `chain::minijson`. A job is a pure
//!   function of its spec (scene from `scene_seed`, chain from `seed`),
//!   so responses are deterministic and cacheable; 64-bit seeds and
//!   digests ride the wire integer-exact.
//! * **Execution** (`runner`) — a [`JobTask`] drives
//!   [`rsu::RsuArray`] sweeps and can suspend at any sweep boundary
//!   into the v1 checkpoint format; spec + checkpoint is the complete
//!   preemption state, so a job resumes bit-identically on any worker.
//! * **Scheduling** (`sched`) — strict priority between classes,
//!   fair share (least-served tenant first) within one, FIFO
//!   tie-break; bounded admission ([`QueueLimits`]) sheds work
//!   deterministically under overload (batch before interactive,
//!   most-served tenants and costliest jobs first), surfaced as a
//!   terminal `rejected` lifecycle event. Submission has one mode:
//!   admit or shed, answered synchronously.
//! * **Serving** (`server`) — a scheduler thread packs jobs onto
//!   worker threads in sweep-quantum slices; interactive arrivals
//!   preempt batch slices via a flag polled at sweep boundaries, with
//!   checkpoints optionally spooled durably to disk.
//! * **Caching** (`cache`) — determinism turned into capacity: a
//!   digest-keyed result cache answers duplicate specs at admission
//!   without touching a worker, and dispatch groups same-scene jobs so
//!   a worker builds each scene's model once.
//! * **Observability** (`events`) — every lifecycle transition
//!   (submitted → admitted → started → preempted → resumed →
//!   completed/failed) is a typed [`JobEvent`] streamed as a `"job"`
//!   JSONL record through `chain::trace_jsonl`, and
//!   [`validate_lifecycle`] mechanically checks a trace against the
//!   state machine (DESIGN §13).
//!
//! Scheduling affects *when* work runs, never *what* it computes: the
//! final label field — and [`JobResult::field_digest`] — is invariant
//! under preemption count, resume placement and host thread count.

mod cache;
mod events;
mod runner;
mod sched;
mod server;
mod spec;
mod stats;

pub use events::{validate_lifecycle, JobEvent, JobState, LifecycleError};
pub use runner::{JobTask, SliceStatus};
pub use sched::{QueueLimits, ShedReason};
pub use server::{
    serve, Admission, ServeClient, ServeHandle, ServeOutcome, ServerConfig, WaitOutcome,
};
pub use spec::{field_digest, fnv1a, JobKind, JobResult, JobSpec, Priority, SpecError};
pub use stats::percentile;
