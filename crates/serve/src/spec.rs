//! The job-server wire format: [`JobSpec`] in, [`JobResult`] out.
//!
//! Both sides serialize through `chain::minijson`, the same
//! reader/writer pair the trace and bench artifacts use, so the CI
//! round-trip gates exercise this grammar too. A job is a pure function
//! of its spec — the scene is generated from `scene_seed`, the chain
//! from `seed` — which makes responses deterministic, cacheable and
//! retries free: resubmitting a spec reproduces the artifact bit for
//! bit (`JobResult::field_digest`).
//!
//! Seeds are 64-bit and ride the wire as [`Value::Integer`]; an `f64`
//! number payload would silently round seeds above 2^53 and quietly
//! change which chain a retry runs.

use chain::minijson::{self, Value};
use rsu::RsuConfig;
use std::collections::BTreeMap;
use std::fmt;

/// Scheduling class of a job. `Interactive` jobs may preempt running
/// `Batch` jobs; two jobs of the same class never preempt each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Throughput-oriented; preemptible at sweep boundaries.
    Batch,
    /// Latency-sensitive; admitted ahead of every queued batch job.
    Interactive,
}

impl Priority {
    /// Wire name (`"batch"` / `"interactive"`).
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Interactive => "interactive",
        }
    }

    fn parse(text: &str) -> Result<Self, SpecError> {
        match text {
            "batch" => Ok(Priority::Batch),
            "interactive" => Ok(Priority::Interactive),
            other => Err(SpecError::new(format!("unknown priority {other:?}"))),
        }
    }
}

/// The inference workload a job runs: one of the paper's three vision
/// applications, with the synthetic-scene knobs and the scene seed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Stereo disparity estimation ([`scenes::StereoSpec`]).
    Stereo {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// Disparity label count `M` (≥ 4, < width).
        num_disparities: usize,
        /// Foreground surfaces layered over the background.
        num_layers: usize,
        /// Sensor noise σ.
        noise_sigma: f64,
        /// Scene-generation seed.
        scene_seed: u64,
    },
    /// Motion estimation ([`scenes::FlowSpec`]).
    Motion {
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
        /// Search-window side (odd, ≥ 3, ≤ both dimensions).
        window: usize,
        /// Independently moving patches.
        num_patches: usize,
        /// Sensor noise σ.
        noise_sigma: f64,
        /// Scene-generation seed.
        scene_seed: u64,
    },
    /// Image segmentation ([`scenes::SegmentationSpec`]).
    Segmentation {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// Generating regions (2..=64).
        num_regions: usize,
        /// Sensor noise σ.
        noise_sigma: f64,
        /// Intensity spread across region means.
        contrast: f64,
        /// Scene-generation seed.
        scene_seed: u64,
    },
}

impl JobKind {
    /// Lattice sites the workload sweeps (`width × height` for every
    /// application — each pixel is one MRF site).
    pub fn sites(&self) -> usize {
        match self {
            JobKind::Stereo { width, height, .. }
            | JobKind::Motion { width, height, .. }
            | JobKind::Segmentation { width, height, .. } => width * height,
        }
    }

    /// Size of the label space: stereo disparities, the motion
    /// window's `window²` flow vectors, or segmentation regions.
    pub fn num_labels(&self) -> usize {
        match *self {
            JobKind::Stereo {
                num_disparities, ..
            } => num_disparities,
            JobKind::Motion { window, .. } => window * window,
            JobKind::Segmentation { num_regions, .. } => num_regions,
        }
    }

    /// Wire name of the application (`"stereo"` / `"motion"` /
    /// `"segmentation"`).
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Stereo { .. } => "stereo",
            JobKind::Motion { .. } => "motion",
            JobKind::Segmentation { .. } => "segmentation",
        }
    }

    /// The scene parameters as a minijson object (the `"scene"` field
    /// of the wire document).
    pub fn scene_value(&self) -> Value {
        let fields = match self {
            JobKind::Stereo {
                width,
                height,
                num_disparities,
                num_layers,
                noise_sigma,
                scene_seed,
            } => vec![
                ("width", Value::from_u64(*width as u64)),
                ("height", Value::from_u64(*height as u64)),
                ("num_disparities", Value::from_u64(*num_disparities as u64)),
                ("num_layers", Value::from_u64(*num_layers as u64)),
                ("noise_sigma", Value::Number(*noise_sigma)),
                ("scene_seed", Value::from_u64(*scene_seed)),
            ],
            JobKind::Motion {
                width,
                height,
                window,
                num_patches,
                noise_sigma,
                scene_seed,
            } => vec![
                ("width", Value::from_u64(*width as u64)),
                ("height", Value::from_u64(*height as u64)),
                ("window", Value::from_u64(*window as u64)),
                ("num_patches", Value::from_u64(*num_patches as u64)),
                ("noise_sigma", Value::Number(*noise_sigma)),
                ("scene_seed", Value::from_u64(*scene_seed)),
            ],
            JobKind::Segmentation {
                width,
                height,
                num_regions,
                noise_sigma,
                contrast,
                scene_seed,
            } => vec![
                ("width", Value::from_u64(*width as u64)),
                ("height", Value::from_u64(*height as u64)),
                ("num_regions", Value::from_u64(*num_regions as u64)),
                ("noise_sigma", Value::Number(*noise_sigma)),
                ("contrast", Value::Number(*contrast)),
                ("scene_seed", Value::from_u64(*scene_seed)),
            ],
        };
        object(fields)
    }
}

/// A job request: everything needed to reproduce the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id; also the checkpoint label and spool file stem, so
    /// restricted to `[A-Za-z0-9._-]`.
    pub id: String,
    /// Tenant the job is accounted to (fair-share key).
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    /// 64-bit chain seed (full range — integer-exact on the wire).
    pub seed: u64,
    /// Annealing sweeps to run.
    pub iterations: usize,
    /// Compute threads the job's sweeps use on its worker.
    pub threads: usize,
    /// The workload.
    pub kind: JobKind,
}

/// A malformed or unsatisfiable job spec / result document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What is wrong.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad job document: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

fn object(fields: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    for (key, value) in fields {
        map.insert(key.to_string(), value);
    }
    Value::Object(map)
}

fn get_str(doc: &Value, key: &str) -> Result<String, SpecError> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| SpecError::new(format!("missing string field {key:?}")))
}

fn get_u64(doc: &Value, key: &str) -> Result<u64, SpecError> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SpecError::new(format!("missing integer field {key:?}")))
}

fn get_usize(doc: &Value, key: &str) -> Result<usize, SpecError> {
    usize::try_from(get_u64(doc, key)?)
        .map_err(|_| SpecError::new(format!("field {key:?} out of range")))
}

fn get_f64(doc: &Value, key: &str) -> Result<f64, SpecError> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SpecError::new(format!("missing number field {key:?}")))
}

impl JobSpec {
    /// Validates the invariants the scene generators and the scheduler
    /// rely on (the generators `assert!` theirs; a server must reject,
    /// not die).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.id.is_empty()
            || !self
                .id
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        {
            return Err(SpecError::new(format!(
                "job id {:?} must be non-empty [A-Za-z0-9._-] (it names the spooled checkpoint)",
                self.id
            )));
        }
        if self.tenant.is_empty() {
            return Err(SpecError::new("tenant must be non-empty"));
        }
        if self.iterations == 0 {
            return Err(SpecError::new("iterations must be positive"));
        }
        if self.threads == 0 || self.threads > 64 {
            return Err(SpecError::new("threads must be in 1..=64"));
        }
        match self.kind {
            JobKind::Stereo {
                width,
                height,
                num_disparities,
                ..
            } => {
                if width == 0 || height == 0 {
                    return Err(SpecError::new("stereo dimensions must be non-zero"));
                }
                if num_disparities < 4 || num_disparities >= width {
                    return Err(SpecError::new(
                        "stereo num_disparities must be >= 4 and < width",
                    ));
                }
            }
            JobKind::Motion {
                width,
                height,
                window,
                ..
            } => {
                if window < 3 || window % 2 == 0 || window > width || window > height {
                    return Err(SpecError::new(
                        "motion window must be odd, >= 3 and fit the frame",
                    ));
                }
            }
            JobKind::Segmentation {
                width,
                height,
                num_regions,
                ..
            } => {
                if width == 0 || height == 0 {
                    return Err(SpecError::new("segmentation dimensions must be non-zero"));
                }
                if !(2..=64).contains(&num_regions) {
                    return Err(SpecError::new("segmentation num_regions must be in 2..=64"));
                }
            }
        }
        // The array's units race at most this many labels per site; a
        // wider label space would panic the worker mid-job.
        let max_labels = RsuConfig::new_design().max_labels();
        if self.kind.num_labels() > max_labels {
            return Err(SpecError::new(format!(
                "{} label space has {} labels, more than the RSU-G maximum {max_labels}",
                self.kind.name(),
                self.kind.num_labels()
            )));
        }
        Ok(())
    }

    /// The spec as a minijson document.
    pub fn to_value(&self) -> Value {
        object(vec![
            ("type", Value::String("job_spec".into())),
            ("id", Value::String(self.id.clone())),
            ("tenant", Value::String(self.tenant.clone())),
            ("priority", Value::String(self.priority.name().into())),
            ("seed", Value::from_u64(self.seed)),
            ("iterations", Value::from_u64(self.iterations as u64)),
            ("threads", Value::from_u64(self.threads as u64)),
            ("application", Value::String(self.kind.name().into())),
            ("scene", self.kind.scene_value()),
        ])
    }

    /// The canonical result-cache key: FNV-1a over the *normalized*
    /// spec JSON — only the fields the final label field depends on
    /// (`application`, `scene`, `seed`, `iterations`), serialized
    /// through `minijson` with sorted keys and integer-exact 64-bit
    /// seeds.
    ///
    /// Scheduling identity (`id`, `tenant`, `priority`) and placement
    /// (`threads`) are deliberately excluded: the parallel substrate's
    /// determinism contract makes the chain bit-identical at any thread
    /// count, so two specs that differ only in those fields compute the
    /// same artifact and must share a cache entry.
    pub fn digest(&self) -> u64 {
        fnv1a(self.normalized_value().to_string().as_bytes())
    }

    /// The compute-relevant subset of the spec ([`digest`](Self::digest)
    /// hashes this document's canonical serialization).
    pub fn normalized_value(&self) -> Value {
        object(vec![
            ("application", Value::String(self.kind.name().into())),
            ("iterations", Value::from_u64(self.iterations as u64)),
            ("scene", self.kind.scene_value()),
            ("seed", Value::from_u64(self.seed)),
        ])
    }

    /// Site-updates the job will execute: `iterations × sites`. The
    /// admission controller's load-shedding policy uses this to shed
    /// expensive batch work first — the estimate is exact for sweep
    /// count (every sweep visits every site) and deliberately ignores
    /// per-site constants, which cancel when comparing jobs.
    pub fn cost_estimate(&self) -> u64 {
        self.iterations as u64 * self.kind.sites() as u64
    }

    /// FNV-1a over the application name plus the scene parameters only
    /// — the model/dataset identity. Jobs sharing a scene digest run
    /// different chains (seed, iterations) over the *same*
    /// [`MrfModel`](mrf::MrfModel), so the scheduler may co-dispatch
    /// them and a worker builds the model once per group.
    pub fn scene_digest(&self) -> u64 {
        let scene = object(vec![
            ("application", Value::String(self.kind.name().into())),
            ("scene", self.kind.scene_value()),
        ]);
        fnv1a(scene.to_string().as_bytes())
    }

    /// Parses and validates a spec document.
    pub fn from_value(doc: &Value) -> Result<Self, SpecError> {
        if get_str(doc, "type")? != "job_spec" {
            return Err(SpecError::new("document type is not \"job_spec\""));
        }
        let scene = doc
            .get("scene")
            .ok_or_else(|| SpecError::new("missing object field \"scene\""))?;
        let application = get_str(doc, "application")?;
        let kind = match application.as_str() {
            "stereo" => JobKind::Stereo {
                width: get_usize(scene, "width")?,
                height: get_usize(scene, "height")?,
                num_disparities: get_usize(scene, "num_disparities")?,
                num_layers: get_usize(scene, "num_layers")?,
                noise_sigma: get_f64(scene, "noise_sigma")?,
                scene_seed: get_u64(scene, "scene_seed")?,
            },
            "motion" => JobKind::Motion {
                width: get_usize(scene, "width")?,
                height: get_usize(scene, "height")?,
                window: get_usize(scene, "window")?,
                num_patches: get_usize(scene, "num_patches")?,
                noise_sigma: get_f64(scene, "noise_sigma")?,
                scene_seed: get_u64(scene, "scene_seed")?,
            },
            "segmentation" => JobKind::Segmentation {
                width: get_usize(scene, "width")?,
                height: get_usize(scene, "height")?,
                num_regions: get_usize(scene, "num_regions")?,
                noise_sigma: get_f64(scene, "noise_sigma")?,
                contrast: get_f64(scene, "contrast")?,
                scene_seed: get_u64(scene, "scene_seed")?,
            },
            other => return Err(SpecError::new(format!("unknown application {other:?}"))),
        };
        let spec = JobSpec {
            id: get_str(doc, "id")?,
            tenant: get_str(doc, "tenant")?,
            priority: Priority::parse(&get_str(doc, "priority")?)?,
            seed: get_u64(doc, "seed")?,
            iterations: get_usize(doc, "iterations")?,
            threads: get_usize(doc, "threads")?,
            kind,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes to one compact JSON line.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses [`to_json`](Self::to_json)'s output (or any equivalent
    /// JSON document).
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = minijson::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_value(&doc)
    }
}

/// The deterministic outcome of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job this answers.
    pub id: String,
    /// Quality-metric name (`"bp"` for stereo, `"epe"` for motion,
    /// `"voi"` for segmentation).
    pub metric: String,
    /// The metric's value.
    pub score: f64,
    /// FNV-1a digest of the final label field — the artifact identity.
    /// Bit-identical reruns (including preempted/resumed ones) produce
    /// the same digest; full `u64`, integer-exact on the wire.
    pub field_digest: u64,
    /// Sweeps executed (equals the spec's `iterations`).
    pub iterations: usize,
    /// Times the job was preempted and later resumed.
    pub preemptions: u32,
    /// Queue wait before first execution, milliseconds.
    pub wait_ms: f64,
    /// Submit-to-completion latency, milliseconds.
    pub latency_ms: f64,
    /// Whether the result was served from the scheduler's digest-keyed
    /// result cache (no worker touched the job). A cached result's
    /// `field_digest`/`score` are bit-identical to a recompute by the
    /// determinism contract, proven by the `serve_smoke` gate.
    pub cached: bool,
    /// Whether admission control shed the job instead of running it.
    /// A rejected result carries no artifact: `metric` is
    /// `"rejected"`, `score` 0, `field_digest` 0, `iterations` 0, and
    /// [`reason`](Self::reason) says why (DESIGN §14).
    pub rejected: bool,
    /// The shed reason for a rejected job (matches the `detail` of its
    /// `rejected` lifecycle event); `None` on every other result.
    pub reason: Option<String>,
}

impl JobResult {
    /// The result as a minijson document.
    pub fn to_value(&self) -> Value {
        object(vec![
            ("type", Value::String("job_result".into())),
            ("id", Value::String(self.id.clone())),
            ("metric", Value::String(self.metric.clone())),
            ("score", Value::Number(self.score)),
            ("field_digest", Value::from_u64(self.field_digest)),
            ("iterations", Value::from_u64(self.iterations as u64)),
            ("preemptions", Value::from_u64(self.preemptions as u64)),
            ("wait_ms", Value::Number(self.wait_ms)),
            ("latency_ms", Value::Number(self.latency_ms)),
            ("cached", Value::Bool(self.cached)),
            ("rejected", Value::Bool(self.rejected)),
            (
                "reason",
                match &self.reason {
                    Some(reason) => Value::String(reason.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Parses a result document.
    pub fn from_value(doc: &Value) -> Result<Self, SpecError> {
        if get_str(doc, "type")? != "job_result" {
            return Err(SpecError::new("document type is not \"job_result\""));
        }
        Ok(JobResult {
            id: get_str(doc, "id")?,
            metric: get_str(doc, "metric")?,
            score: get_f64(doc, "score")?,
            field_digest: get_u64(doc, "field_digest")?,
            iterations: get_usize(doc, "iterations")?,
            preemptions: u32::try_from(get_u64(doc, "preemptions")?)
                .map_err(|_| SpecError::new("field \"preemptions\" out of range"))?,
            wait_ms: get_f64(doc, "wait_ms")?,
            latency_ms: get_f64(doc, "latency_ms")?,
            // Absent in pre-cache documents: default to uncached.
            cached: match doc.get("cached") {
                None | Some(Value::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| SpecError::new("field \"cached\" is not a bool"))?,
            },
            // Absent in pre-admission-control documents: default to a
            // served (non-shed) result.
            rejected: match doc.get("rejected") {
                None | Some(Value::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| SpecError::new("field \"rejected\" is not a bool"))?,
            },
            reason: match doc.get("reason") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| SpecError::new("field \"reason\" is not a string"))?,
                ),
            },
        })
    }

    /// Serializes to one compact JSON line.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses [`to_json`](Self::to_json)'s output.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let doc = minijson::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_value(&doc)
    }
}

/// FNV-1a over a byte string — the workspace's standard cheap,
/// deterministic digest (also used per-`u16` by [`field_digest`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// FNV-1a over the label field's row-major `u16` labels: a cheap,
/// deterministic artifact identity for cache keys and bit-identity
/// checks.
pub fn field_digest(field: &mrf::LabelField) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &label in field.as_slice() {
        for byte in label.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_spec() -> JobSpec {
        JobSpec {
            id: "stereo-017".into(),
            tenant: "acme".into(),
            priority: Priority::Interactive,
            seed: u64::MAX,
            iterations: 40,
            threads: 2,
            kind: JobKind::Stereo {
                width: 32,
                height: 24,
                num_disparities: 6,
                num_layers: 2,
                noise_sigma: 1.0,
                scene_seed: (1 << 53) + 1,
            },
        }
    }

    #[test]
    fn label_spaces_wider_than_the_rsu_are_rejected() {
        let stereo = |num_disparities| JobKind::Stereo {
            width: 80,
            height: 8,
            num_disparities,
            num_layers: 2,
            noise_sigma: 1.0,
            scene_seed: 1,
        };
        let motion = |window| JobKind::Motion {
            width: 24,
            height: 20,
            window,
            num_patches: 2,
            noise_sigma: 0.5,
            scene_seed: 7,
        };
        let segmentation = JobKind::Segmentation {
            width: 16,
            height: 12,
            num_regions: 64,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed: 3,
        };
        for (kind, labels, accepted) in [
            (motion(9), 81, false),
            (stereo(65), 65, false),
            (segmentation, 64, true),
            (motion(7), 49, true),
        ] {
            assert_eq!(kind.num_labels(), labels, "{kind:?}");
            let spec = JobSpec {
                kind,
                ..sample_spec()
            };
            match spec.validate() {
                Ok(()) => assert!(accepted, "{labels} labels must be rejected"),
                Err(e) => {
                    assert!(!accepted, "{labels} labels must be accepted, got {e}");
                    assert!(e.message.contains("RSU-G maximum 64"), "{e}");
                }
            }
        }
    }

    #[test]
    fn spec_round_trips_with_full_range_seeds() {
        let spec = sample_spec();
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // The motivating case: u64::MAX and a 2^53+1 scene seed must
        // survive the wire exactly (an f64 payload rounds both).
        assert_eq!(back.seed, u64::MAX);
        match back.kind {
            JobKind::Stereo { scene_seed, .. } => assert_eq!(scene_seed, (1 << 53) + 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn all_three_applications_round_trip() {
        let motion = JobSpec {
            id: "m-1".into(),
            kind: JobKind::Motion {
                width: 24,
                height: 20,
                window: 5,
                num_patches: 2,
                noise_sigma: 0.5,
                scene_seed: 7,
            },
            priority: Priority::Batch,
            ..sample_spec()
        };
        let seg = JobSpec {
            id: "s-1".into(),
            kind: JobKind::Segmentation {
                width: 24,
                height: 20,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 8,
            },
            ..sample_spec()
        };
        for spec in [motion, seg] {
            assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
    }

    #[test]
    fn rejects_malformed_and_unsatisfiable_specs() {
        let good = sample_spec();
        // Structural failures.
        assert!(JobSpec::from_json("{").is_err());
        assert!(JobSpec::from_json("{\"type\": \"job_result\"}").is_err());
        let mut no_seed = good.to_value();
        if let Value::Object(map) = &mut no_seed {
            map.remove("seed");
        }
        assert!(JobSpec::from_value(&no_seed).is_err());
        // Semantic failures the generators would panic on.
        let bad = [
            JobSpec {
                id: "has space".into(),
                ..good.clone()
            },
            JobSpec {
                id: "../escape".into(),
                ..good.clone()
            },
            JobSpec {
                tenant: String::new(),
                ..good.clone()
            },
            JobSpec {
                iterations: 0,
                ..good.clone()
            },
            JobSpec {
                threads: 0,
                ..good.clone()
            },
            JobSpec {
                kind: JobKind::Stereo {
                    width: 32,
                    height: 24,
                    num_disparities: 3,
                    num_layers: 2,
                    noise_sigma: 1.0,
                    scene_seed: 1,
                },
                ..good.clone()
            },
            JobSpec {
                kind: JobKind::Motion {
                    width: 24,
                    height: 20,
                    window: 4,
                    num_patches: 2,
                    noise_sigma: 0.5,
                    scene_seed: 1,
                },
                ..good.clone()
            },
            JobSpec {
                kind: JobKind::Segmentation {
                    width: 24,
                    height: 20,
                    num_regions: 1,
                    noise_sigma: 2.0,
                    contrast: 90.0,
                    scene_seed: 1,
                },
                ..good.clone()
            },
        ];
        for spec in bad {
            assert!(
                JobSpec::from_json(&spec.to_json()).is_err(),
                "accepted {spec:?}"
            );
        }
    }

    #[test]
    fn result_round_trips_with_full_range_digest() {
        let result = JobResult {
            id: "stereo-017".into(),
            metric: "bp".into(),
            score: 12.5,
            field_digest: u64::MAX - 12,
            iterations: 40,
            preemptions: 3,
            wait_ms: 1.25,
            latency_ms: 97.0,
            cached: true,
            rejected: false,
            reason: None,
        };
        let back = JobResult::from_json(&result.to_json()).unwrap();
        assert_eq!(back, result);
        assert_eq!(back.field_digest, u64::MAX - 12);
        // Pre-cache documents (no "cached"/"rejected"/"reason" fields)
        // parse as uncached, served results.
        let mut legacy = result.to_value();
        if let Value::Object(map) = &mut legacy {
            map.remove("cached");
            map.remove("rejected");
            map.remove("reason");
        }
        let parsed = JobResult::from_value(&legacy).unwrap();
        assert!(!parsed.cached);
        assert!(!parsed.rejected);
        assert_eq!(parsed.reason, None);
    }

    #[test]
    fn rejected_result_round_trips_with_its_reason() {
        let shed = JobResult {
            id: "shed-1".into(),
            metric: "rejected".into(),
            score: 0.0,
            field_digest: 0,
            iterations: 0,
            preemptions: 0,
            wait_ms: 0.0,
            latency_ms: 0.4,
            cached: false,
            rejected: true,
            reason: Some("batch class full (limit 1)".into()),
        };
        let back = JobResult::from_json(&shed.to_json()).unwrap();
        assert_eq!(back, shed);
        assert!(back.rejected);
        assert_eq!(back.reason.as_deref(), Some("batch class full (limit 1)"));
    }

    #[test]
    fn cost_estimate_is_iterations_times_sites() {
        let spec = sample_spec();
        // Stereo 32×24 at 40 iterations.
        assert_eq!(spec.kind.sites(), 32 * 24);
        assert_eq!(spec.cost_estimate(), 40 * 32 * 24);
        // Cost tracks both knobs the scheduler sheds on.
        let longer = JobSpec {
            iterations: 80,
            ..sample_spec()
        };
        assert_eq!(longer.cost_estimate(), 2 * spec.cost_estimate());
        let bigger = JobSpec {
            kind: JobKind::Segmentation {
                width: 64,
                height: 48,
                num_regions: 3,
                noise_sigma: 2.0,
                contrast: 90.0,
                scene_seed: 1,
            },
            ..sample_spec()
        };
        assert_eq!(bigger.cost_estimate(), 40 * 64 * 48);
    }

    #[test]
    fn digest_ignores_scheduling_identity_but_not_the_chain() {
        let base = sample_spec();
        // Same compute, different scheduling identity/placement: the
        // cache key must collide on purpose.
        let renamed = JobSpec {
            id: "другой".into(), // id is not validated by digest()
            tenant: "globex".into(),
            priority: Priority::Batch,
            threads: 7,
            ..base.clone()
        };
        assert_eq!(base.digest(), renamed.digest());
        assert_eq!(base.scene_digest(), renamed.scene_digest());
        // Any compute-relevant change must move the digest.
        let other_seed = JobSpec {
            seed: base.seed - 1,
            ..base.clone()
        };
        let other_iters = JobSpec {
            iterations: base.iterations + 1,
            ..base.clone()
        };
        let other_scene = JobSpec {
            kind: JobKind::Stereo {
                width: 32,
                height: 24,
                num_disparities: 6,
                num_layers: 2,
                noise_sigma: 1.0,
                scene_seed: 12345,
            },
            ..base.clone()
        };
        for changed in [&other_seed, &other_iters, &other_scene] {
            assert_ne!(base.digest(), changed.digest());
        }
        // The scene digest tracks only the model identity: chain seed
        // and iterations do not move it, the scene does.
        assert_eq!(base.scene_digest(), other_seed.scene_digest());
        assert_eq!(base.scene_digest(), other_iters.scene_digest());
        assert_ne!(base.scene_digest(), other_scene.scene_digest());
    }

    #[test]
    fn digest_is_integer_exact_above_two_to_the_fifty_three() {
        // Seeds differing only below f64 precision must hash apart —
        // the reason the normalized JSON rides minijson's Integer.
        let a = JobSpec {
            seed: (1 << 53) + 1,
            ..sample_spec()
        };
        let b = JobSpec {
            seed: (1 << 53) + 2,
            ..sample_spec()
        };
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_distinguishes_fields_and_is_stable() {
        use mrf::{Grid, LabelField};
        let a = LabelField::from_labels(Grid::new(3, 2), 4, vec![0, 1, 2, 3, 0, 1]);
        let b = LabelField::from_labels(Grid::new(3, 2), 4, vec![0, 1, 2, 3, 0, 2]);
        assert_eq!(field_digest(&a), field_digest(&a));
        assert_ne!(field_digest(&a), field_digest(&b));
    }
}
