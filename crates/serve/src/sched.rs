//! Admission queue with two-level scheduling: strict priority between
//! classes, fair share within a class.
//!
//! * **Priority**: an [`Priority::Interactive`] entry always dispatches
//!   before any [`Priority::Batch`] entry, and an arriving interactive
//!   job may preempt a running batch job when no worker is free.
//! * **Fair share**: within the chosen class, the entry whose *tenant*
//!   has been served the fewest sweeps goes first — a tenant that
//!   floods the queue cannot starve others, because every completed
//!   slice raises its tenant's served-sweep count and pushes its
//!   remaining entries behind lighter tenants.
//! * **FIFO tie-break**: equal priority and equal served share resolve
//!   by submission order, keeping the schedule deterministic for a
//!   given arrival order and slice accounting.
//!
//! The fair-share ledger is *bounded*: tenants are reference-counted
//! ([`admit`](AdmissionQueue::admit) / [`finish`](AdmissionQueue::finish))
//! and a tenant with no live jobs is retired from the ledger entirely,
//! so a long-running server's memory tracks its live tenant set, not
//! every tenant it has ever seen. A retired tenant that returns starts
//! from zero served sweeps — fair share is an *intra-epoch* contract
//! among tenants competing right now, not a permanent debt.
//!
//! The queue itself is *bounded* too ([`QueueLimits`]): per-class and
//! per-tenant caps on live (admitted, non-terminal) jobs, enforced at
//! admission by [`admit_bounded`](AdmissionQueue::admit_bounded). When
//! a class is full the policy holds a deterministic displacement
//! contest among the class's never-started queued entries plus the
//! arrival — the loser (most-served tenant first, then highest
//! [`Pending::cost`], then newest) is shed with a typed [`ShedReason`].
//! Classes have separate budgets, so batch overload sheds batch work
//! and can never push out a queued interactive job, and a flooding
//! tenant hits its own per-tenant cap before it can displace anyone
//! else's work (DESIGN §14).
//!
//! Dispatch is one pass: each entry caches its tenant's served count
//! ([`Pending::served_cache`], refreshed on push and on every credit),
//! so [`pop_next`](AdmissionQueue::pop_next) scans the entries once
//! without a ledger lookup per element.
//!
//! The queue is pure data — no clocks, no threads — so scheduling
//! decisions are unit-testable in isolation from the server.

use crate::spec::{JobSpec, Priority};
use mrf::Checkpoint;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// Admission-control bounds on *live* jobs — admitted and not yet
/// terminal, whether queued, suspended or running. Cache hits never
/// count (they complete at admission without consuming a worker).
///
/// A limit of zero is treated as one: a class that could hold nothing
/// would shed every job it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLimits {
    /// Maximum live interactive jobs.
    pub max_interactive: usize,
    /// Maximum live batch jobs.
    pub max_batch: usize,
    /// Maximum live jobs per tenant, across both classes. A tenant at
    /// its cap sheds its own arrivals — it cannot displace other
    /// tenants' work, which is what keeps least-served tenants' fair
    /// share intact under one tenant's flood.
    pub max_per_tenant: usize,
}

impl QueueLimits {
    /// No bounds — every validated job admits (the pre-admission-
    /// control behavior, and the default).
    pub fn unbounded() -> Self {
        QueueLimits {
            max_interactive: usize::MAX,
            max_batch: usize::MAX,
            max_per_tenant: usize::MAX,
        }
    }

    fn class_limit(&self, priority: Priority) -> usize {
        match priority {
            Priority::Interactive => self.max_interactive.max(1),
            Priority::Batch => self.max_batch.max(1),
        }
    }
}

impl Default for QueueLimits {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Why admission control shed a job. Carried on the `rejected`
/// lifecycle event (as `detail`), the [`crate::JobResult`] (as
/// `reason`) and the submit reply, so a client can distinguish "back
/// off" from "you specifically are over quota".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The arrival's tenant is at [`QueueLimits::max_per_tenant`] live
    /// jobs.
    TenantLimit {
        /// The cap that was hit.
        limit: usize,
    },
    /// The arrival's class is full and the arrival lost the
    /// displacement contest (or there was nothing sheddable).
    ClassFull {
        /// The class whose budget was exhausted.
        class: Priority,
        /// The cap that was hit.
        limit: usize,
    },
    /// A queued, never-started entry was evicted so a higher-value
    /// same-class arrival could take its slot.
    Displaced,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::TenantLimit { limit } => {
                write!(f, "tenant at live-job limit {limit}")
            }
            ShedReason::ClassFull { class, limit } => {
                write!(f, "{} class full (limit {limit})", class.name())
            }
            ShedReason::Displaced => f.write_str("displaced by a higher-value arrival"),
        }
    }
}

/// What [`AdmissionQueue::admit_bounded`] decided.
#[derive(Debug)]
pub(crate) enum AdmissionOutcome {
    /// The arrival was admitted; its entry is queued.
    Admitted,
    /// The arrival was admitted after evicting the returned queued
    /// entry (same class, never started). The caller owns the victim's
    /// `rejected` bookkeeping — its live counts are already released.
    AdmittedDisplacing(Box<Pending>),
    /// The arrival lost, for the given reason: it was not queued and no
    /// queue state changed.
    Shed(ShedReason),
}

/// Where a dispatched job's chain state comes from.
#[derive(Debug, Clone)]
pub(crate) enum ResumeFrom {
    /// First slice: initialize the field from the spec's seed.
    Fresh,
    /// Quantum-expiry requeue: the checkpoint stayed in memory.
    Memory(Checkpoint),
    /// Preemption with a spool directory: the checkpoint was written
    /// durably and must be reloaded from disk (exercising the full
    /// save/load path on every real preemption).
    Spooled(PathBuf),
}

/// One queued (or suspended) job with its scheduling bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    /// The job.
    pub spec: JobSpec,
    /// [`JobSpec::digest`], computed once at admission (the result
    /// cache key the completion will be stored under).
    pub digest: u64,
    /// [`JobSpec::scene_digest`], computed once at admission (the
    /// same-scene co-dispatch group key).
    pub scene_digest: u64,
    /// [`JobSpec::cost_estimate`] (`iterations × sites`), computed once
    /// at admission — the shed policy evicts expensive work first.
    pub cost: u64,
    /// Chain state to dispatch with.
    pub resume: ResumeFrom,
    /// Whether a `started` event was already emitted (set by the worker
    /// that begins the job's first slice).
    pub started: bool,
    /// Whether the next slice must emit a `resumed` event (set on
    /// preemption, cleared by the worker that resumes the job;
    /// quantum-expiry requeues leave it false).
    pub resume_event_pending: bool,
    /// Times the job has been preempted.
    pub preemptions: u32,
    /// Sweeps completed across all slices so far.
    pub sweeps_done: u64,
    /// Arrival order (FIFO tie-break key).
    pub submit_index: u64,
    /// Cached copy of the tenant's served-sweep count, kept in sync by
    /// [`AdmissionQueue::push`] and [`AdmissionQueue::credit`] so a
    /// dispatch decision is a single pass over the entries.
    pub served_cache: u64,
}

impl Pending {
    /// A fresh entry for a just-admitted spec.
    pub fn new(spec: JobSpec, submit_index: u64) -> Self {
        let digest = spec.digest();
        let scene_digest = spec.scene_digest();
        let cost = spec.cost_estimate();
        Pending {
            spec,
            digest,
            scene_digest,
            cost,
            resume: ResumeFrom::Fresh,
            started: false,
            resume_event_pending: false,
            preemptions: 0,
            sweeps_done: 0,
            submit_index,
            served_cache: 0,
        }
    }
}

/// Per-tenant fair-share state: served sweeps plus a live-job count
/// that decides when the tenant leaves the ledger.
#[derive(Debug, Default, Clone, Copy)]
struct TenantShare {
    served: u64,
    live_jobs: usize,
}

/// The admission queue plus per-tenant served-sweep accounting and
/// live per-class counts (the admission-control bookkeeping).
#[derive(Debug, Default)]
pub(crate) struct AdmissionQueue {
    entries: Vec<Pending>,
    tenants: BTreeMap<String, TenantShare>,
    live_interactive: usize,
    live_batch: usize,
}

impl AdmissionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Registers a live job for `tenant` in `class`. Call once per
    /// admitted job; the tenant stays in the fair-share ledger until
    /// every registered job has [`finish`](Self::finish)ed.
    pub fn admit(&mut self, tenant: &str, class: Priority) {
        self.tenants
            .entry(tenant.to_string())
            .or_default()
            .live_jobs += 1;
        match class {
            Priority::Interactive => self.live_interactive += 1,
            Priority::Batch => self.live_batch += 1,
        }
    }

    /// Unregisters a live job for `tenant` in `class` (terminal event:
    /// completed, failed or rejected-after-admission). A tenant whose
    /// last live job finishes is retired — its ledger entry is dropped,
    /// bounding the ledger by the live tenant set. If it returns later
    /// it starts from zero served sweeps.
    pub fn finish(&mut self, tenant: &str, class: Priority) {
        if let Some(share) = self.tenants.get_mut(tenant) {
            share.live_jobs = share.live_jobs.saturating_sub(1);
            if share.live_jobs == 0 {
                self.tenants.remove(tenant);
            }
        }
        match class {
            Priority::Interactive => {
                self.live_interactive = self.live_interactive.saturating_sub(1)
            }
            Priority::Batch => self.live_batch = self.live_batch.saturating_sub(1),
        }
    }

    /// Live (admitted, non-terminal) jobs in a class — queued,
    /// suspended or running.
    pub fn live_in_class(&self, class: Priority) -> usize {
        match class {
            Priority::Interactive => self.live_interactive,
            Priority::Batch => self.live_batch,
        }
    }

    /// Live jobs accounted to `tenant` (zero once retired).
    pub fn live_for_tenant(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map(|s| s.live_jobs).unwrap_or(0)
    }

    /// Tenants currently tracked by the fair-share ledger.
    #[cfg(test)]
    fn ledger_len(&self) -> usize {
        self.tenants.len()
    }

    /// Admits (or re-admits, after preemption/quantum expiry) an entry,
    /// refreshing its cached served count.
    pub fn push(&mut self, mut pending: Pending) {
        pending.served_cache = self.served(&pending.spec.tenant);
        self.entries.push(pending);
    }

    /// Bounded admission (DESIGN §14): checks `pending` against
    /// `limits` and either queues it, queues it after evicting a
    /// same-class victim, or hands it back shed. Deterministic — a pure
    /// function of the queue state, the ledger and the arrival.
    ///
    /// Policy, in order:
    ///
    /// 1. **Per-tenant cap.** A tenant at `max_per_tenant` live jobs
    ///    sheds its own arrival; it never displaces anyone.
    /// 2. **Class budget.** Below the class cap, admit.
    /// 3. **Displacement contest.** Class full: among the class's
    ///    queued *never-started* entries plus the arrival, shed the one
    ///    whose key `(tenant served sweeps, cost estimate, arrival
    ///    order)` is largest — most-served tenants lose first (the
    ///    fair-share guarantee), then the most expensive work (the
    ///    cost-aware guarantee), then the newest arrival. Entries that
    ///    have started are never shed — running work is preempted, not
    ///    discarded — so if every queued entry has started, the arrival
    ///    sheds.
    ///
    /// Classes have separate budgets: batch pressure can never shed a
    /// queued interactive job, and vice versa.
    pub fn admit_bounded(&mut self, pending: Pending, limits: &QueueLimits) -> AdmissionOutcome {
        let tenant_cap = limits.max_per_tenant.max(1);
        if self.live_for_tenant(&pending.spec.tenant) >= tenant_cap {
            return AdmissionOutcome::Shed(ShedReason::TenantLimit { limit: tenant_cap });
        }
        let class = pending.spec.priority;
        let class_cap = limits.class_limit(class);
        if self.live_in_class(class) < class_cap {
            self.admit(&pending.spec.tenant, class);
            self.push(pending);
            return AdmissionOutcome::Admitted;
        }
        let arrival_key = (
            self.served(&pending.spec.tenant),
            pending.cost,
            pending.submit_index,
        );
        let victim_index = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.spec.priority == class && !e.started)
            .map(|(i, e)| ((e.served_cache, e.cost, e.submit_index), i))
            .max()
            .filter(|(key, _)| *key > arrival_key)
            .map(|(_, i)| i);
        let Some(victim_index) = victim_index else {
            return AdmissionOutcome::Shed(ShedReason::ClassFull {
                class,
                limit: class_cap,
            });
        };
        let victim = self.entries.swap_remove(victim_index);
        self.finish(&victim.spec.tenant, class);
        self.admit(&pending.spec.tenant, class);
        self.push(pending);
        AdmissionOutcome::AdmittedDisplacing(Box::new(victim))
    }

    /// Credits `sweeps` executed on behalf of `tenant` to the
    /// fair-share ledger and refreshes the cached count on the tenant's
    /// queued entries.
    pub fn credit(&mut self, tenant: &str, sweeps: u64) {
        let Some(share) = self.tenants.get_mut(tenant) else {
            return; // retired tenant (e.g. a failed job's final slice)
        };
        share.served += sweeps;
        let served = share.served;
        for entry in &mut self.entries {
            if entry.spec.tenant == tenant {
                entry.served_cache = served;
            }
        }
    }

    /// Sweeps served to `tenant` so far (zero once retired).
    pub fn served(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map(|s| s.served).unwrap_or(0)
    }

    /// The highest priority class currently queued.
    pub fn best_priority(&self) -> Option<Priority> {
        self.entries.iter().map(|e| e.spec.priority).max()
    }

    /// Removes and returns the next entry to dispatch: highest priority
    /// class, then least-served tenant, then FIFO. One pass — the
    /// served key is read from each entry's cache, not the ledger.
    pub fn pop_next(&mut self) -> Option<Pending> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| {
                (
                    std::cmp::Reverse(e.spec.priority),
                    e.served_cache,
                    e.submit_index,
                )
            })
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(best))
    }

    /// Removes and returns the best queued entry whose scene digest and
    /// priority class match — the co-dispatch companion selector.
    /// Within the matching set the order is the same fair-share order
    /// `pop_next` would use, so batching reorders *across* scenes, not
    /// within the group.
    pub fn pop_matching(&mut self, scene_digest: u64, priority: Priority) -> Option<Pending> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.scene_digest == scene_digest && e.spec.priority == priority)
            .min_by_key(|(_, e)| (e.served_cache, e.submit_index))
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobKind;

    fn spec(id: &str, tenant: &str, priority: Priority) -> JobSpec {
        spec_with_scene(id, tenant, priority, 1)
    }

    fn spec_with_scene(id: &str, tenant: &str, priority: Priority, scene_seed: u64) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant: tenant.into(),
            priority,
            seed: 1,
            iterations: 10,
            threads: 1,
            kind: JobKind::Segmentation {
                width: 16,
                height: 12,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed,
            },
        }
    }

    fn queue_of(entries: &[(&str, &str, Priority)]) -> AdmissionQueue {
        let mut queue = AdmissionQueue::new();
        for (index, (id, tenant, priority)) in entries.iter().enumerate() {
            queue.admit(tenant, *priority);
            queue.push(Pending::new(spec(id, tenant, *priority), index as u64));
        }
        queue
    }

    fn drain_ids(mut queue: AdmissionQueue) -> Vec<String> {
        let mut ids = Vec::new();
        while let Some(entry) = queue.pop_next() {
            ids.push(entry.spec.id);
        }
        ids
    }

    #[test]
    fn interactive_dispatches_before_earlier_batch() {
        let queue = queue_of(&[
            ("b1", "a", Priority::Batch),
            ("b2", "a", Priority::Batch),
            ("i1", "z", Priority::Interactive),
        ]);
        assert_eq!(queue.best_priority(), Some(Priority::Interactive));
        assert_eq!(drain_ids(queue), ["i1", "b1", "b2"]);
    }

    #[test]
    fn fair_share_prefers_the_least_served_tenant() {
        let mut queue = queue_of(&[
            ("h1", "hog", Priority::Batch),
            ("h2", "hog", Priority::Batch),
            ("l1", "light", Priority::Batch),
        ]);
        // The hog has already burned 100 sweeps; the light tenant none.
        queue.credit("hog", 100);
        assert_eq!(drain_ids(queue), ["l1", "h1", "h2"]);
    }

    #[test]
    fn equal_share_falls_back_to_fifo() {
        let queue = queue_of(&[
            ("first", "a", Priority::Batch),
            ("second", "b", Priority::Batch),
            ("third", "a", Priority::Batch),
        ]);
        assert_eq!(drain_ids(queue), ["first", "second", "third"]);
    }

    #[test]
    fn priority_beats_fair_share() {
        let mut queue = queue_of(&[
            ("b-light", "light", Priority::Batch),
            ("i-hog", "hog", Priority::Interactive),
        ]);
        // Even a heavily-served tenant's interactive job outranks a
        // never-served tenant's batch job: classes are strict.
        queue.credit("hog", 1_000_000);
        assert_eq!(drain_ids(queue), ["i-hog", "b-light"]);
    }

    #[test]
    fn credit_accumulates_per_tenant_and_refreshes_entry_caches() {
        let mut queue = queue_of(&[("a1", "a", Priority::Batch)]);
        queue.credit("a", 30);
        queue.credit("a", 12);
        assert_eq!(queue.served("a"), 42);
        assert_eq!(queue.served("unseen"), 0);
        // The queued entry's cached key tracks the ledger, so the next
        // one-pass dispatch sees the up-to-date share.
        assert_eq!(queue.entries[0].served_cache, 42);
    }

    #[test]
    fn drained_tenants_retire_from_the_ledger() {
        let mut queue = AdmissionQueue::new();
        // Two live jobs for one tenant, one for another.
        queue.admit("a", Priority::Batch);
        queue.admit("a", Priority::Batch);
        queue.admit("b", Priority::Batch);
        queue.credit("a", 50);
        queue.credit("b", 10);
        assert_eq!(queue.ledger_len(), 2);
        // One of a's jobs finishes: still live, share preserved.
        queue.finish("a", Priority::Batch);
        assert_eq!(queue.ledger_len(), 2);
        assert_eq!(queue.served("a"), 50);
        // The last one finishes: a retires, its share is forgotten.
        queue.finish("a", Priority::Batch);
        assert_eq!(queue.ledger_len(), 1);
        assert_eq!(queue.served("a"), 0);
        // b unaffected.
        assert_eq!(queue.served("b"), 10);
        queue.finish("b", Priority::Batch);
        assert_eq!(queue.ledger_len(), 0);
        // A returning tenant starts a fresh epoch at zero.
        queue.admit("a", Priority::Batch);
        assert_eq!(queue.served("a"), 0);
        assert_eq!(queue.ledger_len(), 1);
    }

    #[test]
    fn retirement_keeps_fair_share_among_live_tenants() {
        // A heavy tenant drains and retires; the ordering among the
        // tenants still competing is unchanged by the retirement.
        let mut queue = queue_of(&[("x1", "x", Priority::Batch), ("y1", "y", Priority::Batch)]);
        queue.admit("heavy", Priority::Batch);
        queue.credit("heavy", 1_000);
        queue.finish("heavy", Priority::Batch); // drained → retired
        assert_eq!(queue.ledger_len(), 2, "only live tenants remain");
        queue.credit("x", 5);
        assert_eq!(drain_ids(queue), ["y1", "x1"]);
    }

    #[test]
    fn pop_matching_takes_same_scene_same_class_in_fair_order() {
        let mut queue = AdmissionQueue::new();
        let jobs = [
            ("s1-a", "a", Priority::Batch, 1),
            ("s2-b", "b", Priority::Batch, 2),
            ("s1-b", "b", Priority::Batch, 1),
            ("s1-i", "c", Priority::Interactive, 1),
            ("s1-a2", "a", Priority::Batch, 1),
        ];
        for (index, (id, tenant, priority, scene)) in jobs.iter().enumerate() {
            queue.admit(tenant, *priority);
            queue.push(Pending::new(
                spec_with_scene(id, tenant, *priority, *scene),
                index as u64,
            ));
        }
        let head = queue.pop_next();
        // Interactive outranks every batch entry.
        assert_eq!(head.as_ref().unwrap().spec.id, "s1-i");
        // Batch companions for scene 1 only — never the interactive
        // class, never scene 2 — in (served, FIFO) order.
        let scene = spec_with_scene("probe", "p", Priority::Batch, 1).scene_digest();
        queue.credit("a", 100);
        let ids: Vec<String> = std::iter::from_fn(|| queue.pop_matching(scene, Priority::Batch))
            .map(|e| e.spec.id)
            .collect();
        assert_eq!(ids, ["s1-b", "s1-a", "s1-a2"]);
        // Scene 2 remains queued.
        assert_eq!(drain_ids(queue), ["s2-b"]);
    }

    fn costly_spec(id: &str, tenant: &str, priority: Priority, iterations: usize) -> JobSpec {
        JobSpec {
            iterations,
            ..spec(id, tenant, priority)
        }
    }

    fn submit_bounded(
        queue: &mut AdmissionQueue,
        limits: &QueueLimits,
        spec: JobSpec,
        index: u64,
    ) -> AdmissionOutcome {
        queue.admit_bounded(Pending::new(spec, index), limits)
    }

    #[test]
    fn class_limit_sheds_the_newest_equal_arrival() {
        let mut queue = AdmissionQueue::new();
        let limits = QueueLimits {
            max_batch: 2,
            ..QueueLimits::unbounded()
        };
        for (index, id) in ["b1", "b2"].iter().enumerate() {
            let outcome = submit_bounded(
                &mut queue,
                &limits,
                spec(id, "t", Priority::Batch),
                index as u64,
            );
            assert!(matches!(outcome, AdmissionOutcome::Admitted));
        }
        // Same tenant, same cost: the newest arrival loses the contest.
        let outcome = submit_bounded(&mut queue, &limits, spec("b3", "t", Priority::Batch), 2);
        match outcome {
            AdmissionOutcome::Shed(reason) => {
                assert_eq!(
                    reason,
                    ShedReason::ClassFull {
                        class: Priority::Batch,
                        limit: 2
                    }
                );
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Interactive budget is independent of batch pressure.
        let outcome = submit_bounded(
            &mut queue,
            &limits,
            spec("i1", "t", Priority::Interactive),
            3,
        );
        assert!(matches!(outcome, AdmissionOutcome::Admitted));
        assert_eq!(queue.live_in_class(Priority::Batch), 2);
        assert_eq!(queue.live_in_class(Priority::Interactive), 1);
    }

    #[test]
    fn tenant_limit_sheds_without_displacing() {
        let mut queue = AdmissionQueue::new();
        let limits = QueueLimits {
            max_per_tenant: 1,
            ..QueueLimits::unbounded()
        };
        submit_bounded(&mut queue, &limits, spec("a1", "a", Priority::Batch), 0);
        let outcome = submit_bounded(&mut queue, &limits, spec("a2", "a", Priority::Batch), 1);
        assert!(matches!(
            outcome,
            AdmissionOutcome::Shed(ShedReason::TenantLimit { limit: 1 })
        ));
        // Another tenant still admits freely.
        let outcome = submit_bounded(&mut queue, &limits, spec("b1", "b", Priority::Batch), 2);
        assert!(matches!(outcome, AdmissionOutcome::Admitted));
        assert_eq!(queue.live_for_tenant("a"), 1);
        assert_eq!(queue.live_for_tenant("b"), 1);
    }

    #[test]
    fn full_class_displaces_the_most_served_tenants_queued_work() {
        let mut queue = AdmissionQueue::new();
        let limits = QueueLimits {
            max_batch: 2,
            ..QueueLimits::unbounded()
        };
        submit_bounded(
            &mut queue,
            &limits,
            spec("hog-1", "hog", Priority::Batch),
            0,
        );
        submit_bounded(
            &mut queue,
            &limits,
            spec("lite-1", "lite", Priority::Batch),
            1,
        );
        queue.credit("hog", 500);
        // A fresh tenant's arrival displaces the hog's queued entry —
        // least-served tenants keep their fair share under overload.
        let outcome = submit_bounded(
            &mut queue,
            &limits,
            spec("new-1", "new", Priority::Batch),
            2,
        );
        match outcome {
            AdmissionOutcome::AdmittedDisplacing(victim) => {
                assert_eq!(victim.spec.id, "hog-1");
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(queue.live_in_class(Priority::Batch), 2);
        assert_eq!(queue.live_for_tenant("hog"), 0);
        let mut ids: Vec<String> = drain_ids(queue);
        ids.sort();
        assert_eq!(ids, ["lite-1", "new-1"]);
    }

    #[test]
    fn equal_share_sheds_the_most_expensive_entry_first() {
        let mut queue = AdmissionQueue::new();
        let limits = QueueLimits {
            max_batch: 2,
            ..QueueLimits::unbounded()
        };
        submit_bounded(
            &mut queue,
            &limits,
            costly_spec("big", "a", Priority::Batch, 10_000),
            0,
        );
        submit_bounded(
            &mut queue,
            &limits,
            costly_spec("small", "b", Priority::Batch, 10),
            1,
        );
        // Equal served shares: the cheap arrival evicts the costly
        // queued entry, not the cheap one.
        let outcome = submit_bounded(
            &mut queue,
            &limits,
            costly_spec("mid", "c", Priority::Batch, 100),
            2,
        );
        match outcome {
            AdmissionOutcome::AdmittedDisplacing(victim) => {
                assert_eq!(victim.spec.id, "big");
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        // A costlier arrival than anything queued sheds itself.
        let outcome = submit_bounded(
            &mut queue,
            &limits,
            costly_spec("huge", "d", Priority::Batch, 1_000_000),
            3,
        );
        assert!(matches!(
            outcome,
            AdmissionOutcome::Shed(ShedReason::ClassFull { .. })
        ));
    }

    #[test]
    fn started_entries_are_never_displaced() {
        let mut queue = AdmissionQueue::new();
        let limits = QueueLimits {
            max_batch: 1,
            ..QueueLimits::unbounded()
        };
        queue.admit("hog", Priority::Batch);
        let mut running = Pending::new(costly_spec("run", "hog", Priority::Batch, 10_000), 0);
        running.started = true;
        queue.push(running);
        queue.credit("hog", 1_000);
        // Despite losing on every contest key, the started entry keeps
        // its slot: the cheap fresh arrival sheds instead.
        let outcome = submit_bounded(&mut queue, &limits, spec("new", "new", Priority::Batch), 1);
        assert!(matches!(
            outcome,
            AdmissionOutcome::Shed(ShedReason::ClassFull { .. })
        ));
        assert_eq!(queue.live_for_tenant("hog"), 1);
    }
}
