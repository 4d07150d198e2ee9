//! Job execution: a [`JobTask`] turns a validated [`JobSpec`] into a
//! [`Chain`] on the spec's [`App`], stepped on an [`RsuArray`] (the
//! chain crate's array engine), and supports suspension at any sweep
//! boundary.
//!
//! The preemption contract rests on two facts:
//!
//! 1. Array chains are pure functions of `(seed, iteration, site)` —
//!    resuming needs only the label field, the next iteration index and
//!    the chain seed, all of which the v1 checkpoint format carries.
//! 2. The model and dataset are pure functions of the spec — a resumed
//!    task rebuilds both from the spec alone, proving the checkpoint
//!    plus the spec is the *complete* preemption state (nothing hides
//!    in worker-local memory, so a job may resume on any worker and on
//!    any healthy array instance).
//!
//! Together these make the final label field — and therefore
//! [`JobResult::field_digest`](crate::JobResult::field_digest) —
//! bit-identical however many times the job was preempted, wherever it
//! resumed, and at every host thread count.

use crate::cache::Lru;
use crate::spec::{field_digest, JobKind, JobSpec, SpecError};
use chain::{App, Chain, ChainModel, Engine};
use mrf::{Checkpoint, NoopObserver};
use rsu::RsuArray;
use scenes::{FlowSpec, SegmentationSpec, StereoSpec};
use std::rc::Rc;
use std::sync::atomic::AtomicBool;

/// Materializes a spec's application: scene, model and ground truth,
/// all pure functions of the spec.
fn build_app(spec: &JobSpec) -> Result<App, SpecError> {
    let app = match spec.kind {
        JobKind::Stereo {
            width,
            height,
            num_disparities,
            num_layers,
            noise_sigma,
            scene_seed,
        } => App::stereo(
            &StereoSpec {
                width,
                height,
                num_disparities,
                num_layers,
                noise_sigma: noise_sigma as f32,
            }
            .generate(scene_seed),
        ),
        JobKind::Motion {
            width,
            height,
            window,
            num_patches,
            noise_sigma,
            scene_seed,
        } => App::motion(
            &FlowSpec {
                width,
                height,
                window,
                num_patches,
                noise_sigma: noise_sigma as f32,
            }
            .generate(scene_seed),
        ),
        JobKind::Segmentation {
            width,
            height,
            num_regions,
            noise_sigma,
            contrast,
            scene_seed,
        } => {
            let ds = SegmentationSpec {
                width,
                height,
                num_regions,
                noise_sigma: noise_sigma as f32,
                contrast: contrast as f32,
            }
            .generate(scene_seed);
            App::segmentation(&ds, ds.num_regions)
        }
    };
    app.map_err(|e| SpecError::new(format!("model construction failed: {e}")))
}

/// A worker-local cache of built scene models, keyed by
/// [`JobSpec::scene_digest`].
///
/// Jobs sharing a scene digest are the same model and dataset by
/// construction (both are pure functions of `application` + `scene`),
/// so a worker that is handed a same-scene co-dispatch group — or the
/// same job again after a quantum requeue — reuses the built
/// [`App`] instead of regenerating the scene and rebuilding the
/// energy tables per slice. Models are immutable during sweeps, so
/// sharing one behind an `Rc` cannot change what any chain computes;
/// eviction is least-recently-used over a small capacity.
pub(crate) struct SceneModelCache {
    models: Lru<Rc<App>>,
    builds: u64,
}

impl SceneModelCache {
    /// A cache holding at most `capacity` built models.
    pub fn new(capacity: usize) -> Self {
        SceneModelCache {
            models: Lru::new(capacity),
            builds: 0,
        }
    }

    /// Models built since construction — dispatch-group batching exists
    /// to keep this counter below the job count.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    fn get_or_build(&mut self, spec: &JobSpec) -> Result<Rc<App>, SpecError> {
        let key = spec.scene_digest();
        if let Some(model) = self.models.get(key) {
            return Ok(Rc::clone(model));
        }
        self.builds += 1;
        let model = Rc::new(build_app(spec)?);
        self.models.insert(key, Rc::clone(&model));
        Ok(model)
    }
}

/// Why a slice of execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStatus {
    /// The job ran its full iteration budget; score it.
    Completed,
    /// The slice's sweep quantum expired with work remaining; the
    /// scheduler decides who runs next (no lifecycle event — the job is
    /// still logically running in the queue's eyes).
    Expired,
    /// The preempt flag was raised; the job stopped at the next sweep
    /// boundary and must be checkpointed.
    Preempted,
}

/// A job materialized for execution: spec, application and [`Chain`].
/// The application is behind an `Rc` so same-scene tasks on one worker
/// can share a single build through the worker's scene-model cache.
pub struct JobTask {
    spec: JobSpec,
    app: Rc<App>,
    chain: Chain,
}

impl JobTask {
    /// Materializes a fresh task: builds the scene and model from the
    /// spec and draws the initial field from the chain seed — exactly
    /// the initialization the figure drivers use, so a served job
    /// reproduces a CLI run with the same spec.
    pub fn start(spec: JobSpec) -> Result<Self, SpecError> {
        Self::start_with(spec, |spec| build_app(spec).map(Rc::new))
    }

    /// [`start`](Self::start), but resolving the model through a
    /// worker-local [`SceneModelCache`] so a same-scene group builds it
    /// once. Cached and uncached materialization run the same chain —
    /// the model is a pure function of the spec either way.
    pub(crate) fn start_cached(
        spec: JobSpec,
        models: &mut SceneModelCache,
    ) -> Result<Self, SpecError> {
        Self::start_with(spec, |spec| models.get_or_build(spec))
    }

    fn start_with(
        spec: JobSpec,
        app_of: impl FnOnce(&JobSpec) -> Result<Rc<App>, SpecError>,
    ) -> Result<Self, SpecError> {
        spec.validate()?;
        let app = app_of(&spec)?;
        let chain = Chain::new(&*app, app.schedule(), spec.seed);
        Ok(JobTask { spec, app, chain })
    }

    /// Materializes a task from a suspended job's checkpoint. The model
    /// is rebuilt from the spec; only field, progress and seed come
    /// from the checkpoint.
    pub fn resume(spec: JobSpec, checkpoint: &Checkpoint) -> Result<Self, SpecError> {
        Self::resume_with(spec, checkpoint, |spec| build_app(spec).map(Rc::new))
    }

    /// [`resume`](Self::resume) through a worker-local
    /// [`SceneModelCache`].
    pub(crate) fn resume_cached(
        spec: JobSpec,
        checkpoint: &Checkpoint,
        models: &mut SceneModelCache,
    ) -> Result<Self, SpecError> {
        Self::resume_with(spec, checkpoint, |spec| models.get_or_build(spec))
    }

    fn resume_with(
        spec: JobSpec,
        checkpoint: &Checkpoint,
        app_of: impl FnOnce(&JobSpec) -> Result<Rc<App>, SpecError>,
    ) -> Result<Self, SpecError> {
        spec.validate()?;
        checkpoint
            .expect_engine(&spec.id)
            .map_err(|e| SpecError::new(e.to_string()))?;
        if checkpoint.seed != spec.seed {
            return Err(SpecError::new(format!(
                "checkpoint seed {} does not match spec seed {}",
                checkpoint.seed, spec.seed
            )));
        }
        if checkpoint.next_iteration > spec.iterations {
            return Err(SpecError::new(format!(
                "checkpoint is at sweep {} but the spec runs only {}",
                checkpoint.next_iteration, spec.iterations
            )));
        }
        let app = app_of(&spec)?;
        let (grid, num_labels) = app.label_space();
        if checkpoint.grid_width != grid.width()
            || checkpoint.grid_height != grid.height()
            || checkpoint.num_labels != num_labels
        {
            return Err(SpecError::new(
                "checkpoint field does not match the spec's model",
            ));
        }
        let chain = Chain::resume(checkpoint, app.schedule());
        Ok(JobTask { spec, app, chain })
    }

    /// The spec this task executes.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Sweeps completed so far.
    pub fn sweeps_done(&self) -> u64 {
        self.chain.next_sweep() as u64
    }

    /// Whether the iteration budget is exhausted.
    pub fn is_done(&self) -> bool {
        self.chain.next_sweep() >= self.spec.iterations
    }

    /// Runs up to `max_sweeps` sweeps on `array`, polling `preempt`
    /// at every sweep boundary. Temperature follows the application's
    /// standard schedule indexed by the *global* sweep number, so a
    /// resumed chain anneals exactly as an uninterrupted one.
    pub fn run_slice(
        &mut self,
        array: &mut RsuArray,
        max_sweeps: usize,
        preempt: &AtomicBool,
    ) -> SliceStatus {
        let end = self
            .spec
            .iterations
            .min(self.chain.next_sweep() + max_sweeps);
        let mut engine = Engine::Array {
            array,
            threads: self.spec.threads,
        };
        if !self.chain.step(
            &*self.app,
            &mut engine,
            end,
            Some(preempt),
            &mut NoopObserver,
        ) {
            SliceStatus::Preempted
        } else if self.is_done() {
            SliceStatus::Completed
        } else {
            SliceStatus::Expired
        }
    }

    /// Captures the suspension state in the v1 checkpoint format
    /// (engine = job id, chain seed recorded, energy NaN — the array
    /// engine threads no incremental energy accumulator).
    pub fn checkpoint(&self) -> Checkpoint {
        self.chain.checkpoint(&self.spec.id)
    }

    /// Scores the finished field: `(metric name, score, field digest)`.
    ///
    /// # Panics
    ///
    /// Panics if called before the iteration budget is exhausted.
    pub fn finish(&self) -> (&'static str, f64, u64) {
        assert!(self.is_done(), "finish() on an unfinished job");
        let (metric, score) = self.app.score(self.chain.field());
        (metric, score, field_digest(self.chain.field()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Priority;
    use rsu::RsuConfig;

    fn small_spec(kind: JobKind) -> JobSpec {
        JobSpec {
            id: "t-1".into(),
            tenant: "t".into(),
            priority: Priority::Batch,
            seed: 11,
            iterations: 12,
            threads: 2,
            kind,
        }
    }

    fn stereo_kind() -> JobKind {
        JobKind::Stereo {
            width: 20,
            height: 14,
            num_disparities: 5,
            num_layers: 2,
            noise_sigma: 1.0,
            scene_seed: 42,
        }
    }

    fn array() -> RsuArray {
        RsuArray::new(RsuConfig::new_design(), 8)
    }

    fn run_uninterrupted(spec: &JobSpec) -> (f64, u64) {
        let mut task = JobTask::start(spec.clone()).unwrap();
        let status = task.run_slice(&mut array(), spec.iterations, &AtomicBool::new(false));
        assert_eq!(status, SliceStatus::Completed);
        let (_, score, digest) = task.finish();
        (score, digest)
    }

    #[test]
    fn resumed_chain_matches_uninterrupted_run_for_each_application() {
        let kinds = [
            stereo_kind(),
            JobKind::Motion {
                width: 18,
                height: 14,
                window: 3,
                num_patches: 2,
                noise_sigma: 0.5,
                scene_seed: 43,
            },
            JobKind::Segmentation {
                width: 20,
                height: 14,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 44,
            },
        ];
        for kind in kinds {
            let spec = small_spec(kind);
            let (score, digest) = run_uninterrupted(&spec);
            // Same chain, suspended and resumed every 5 sweeps through
            // the v1 checkpoint *text* (full serialize/parse cycle).
            let mut task = JobTask::start(spec.clone()).unwrap();
            loop {
                match task.run_slice(&mut array(), 5, &AtomicBool::new(false)) {
                    SliceStatus::Completed => break,
                    SliceStatus::Expired => {
                        let text = task.checkpoint().to_text();
                        let cp = Checkpoint::from_text(&text).unwrap();
                        task = JobTask::resume(spec.clone(), &cp).unwrap();
                    }
                    SliceStatus::Preempted => unreachable!(),
                }
            }
            let (_, resumed_score, resumed_digest) = task.finish();
            assert_eq!(resumed_digest, digest, "digest diverged for {spec:?}");
            assert_eq!(resumed_score, score);
        }
    }

    #[test]
    fn preempt_flag_stops_at_a_sweep_boundary() {
        let spec = small_spec(stereo_kind());
        let mut task = JobTask::start(spec).unwrap();
        let preempt = AtomicBool::new(true);
        // Pre-raised flag: the slice must yield before sweeping at all.
        assert_eq!(
            task.run_slice(&mut array(), 100, &preempt),
            SliceStatus::Preempted
        );
        assert_eq!(task.sweeps_done(), 0);
        assert!(!task.is_done());
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let spec = small_spec(stereo_kind());
        let mut task = JobTask::start(spec.clone()).unwrap();
        task.run_slice(&mut array(), 4, &AtomicBool::new(false));
        let good = task.checkpoint();

        let mut wrong_job = good.clone();
        wrong_job.engine = "other-job".into();
        assert!(JobTask::resume(spec.clone(), &wrong_job).is_err());

        let mut wrong_seed = good.clone();
        wrong_seed.seed = 999;
        assert!(JobTask::resume(spec.clone(), &wrong_seed).is_err());

        let mut too_far = good.clone();
        too_far.next_iteration = spec.iterations + 1;
        assert!(JobTask::resume(spec.clone(), &too_far).is_err());

        // A checkpoint captured for a different scene shape.
        let other = JobSpec {
            id: spec.id.clone(),
            kind: JobKind::Segmentation {
                width: 10,
                height: 8,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 1,
            },
            ..spec.clone()
        };
        let foreign = JobTask::start(other).unwrap().checkpoint();
        assert!(JobTask::resume(spec, &foreign).is_err());
    }

    #[test]
    fn scene_cache_builds_once_per_scene_and_preserves_the_chain() {
        let spec = small_spec(stereo_kind());
        let (score, digest) = run_uninterrupted(&spec);

        let mut models = SceneModelCache::new(4);
        // Three same-scene jobs differing only in seed: one build.
        for seed in [11, 12, 13] {
            let s = JobSpec {
                seed,
                ..spec.clone()
            };
            let mut task = JobTask::start_cached(s.clone(), &mut models).unwrap();
            let status = task.run_slice(&mut array(), s.iterations, &AtomicBool::new(false));
            assert_eq!(status, SliceStatus::Completed);
            if seed == spec.seed {
                let (_, cached_score, cached_digest) = task.finish();
                assert_eq!(cached_digest, digest, "shared model changed the chain");
                assert_eq!(cached_score, score);
            }
        }
        assert_eq!(models.builds(), 1);

        // A different scene misses and builds.
        let other = JobSpec {
            kind: JobKind::Segmentation {
                width: 10,
                height: 8,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 1,
            },
            ..spec
        };
        JobTask::start_cached(other, &mut models).unwrap();
        assert_eq!(models.builds(), 2);
    }

    #[test]
    fn quantum_expiry_reports_progress_without_completion() {
        let spec = small_spec(stereo_kind());
        let mut task = JobTask::start(spec).unwrap();
        assert_eq!(
            task.run_slice(&mut array(), 5, &AtomicBool::new(false)),
            SliceStatus::Expired
        );
        assert_eq!(task.sweeps_done(), 5);
        assert!(!task.is_done());
    }
}
