//! The frozen workloads: traffic shape, server configuration and
//! offered load. Nothing here reads the clock or the host; only
//! `--seed` (which inputs) and `--seconds` (how many) vary between runs,
//! so a parent commit and a change see identical traffic.

use retrsu_serve::{JobKind, JobSpec, Priority, QueueLimits, ServerConfig};

/// Server worker threads for every workload: the 2 cores the benchmark
/// was sized on. Fixed, not read from the host, so the traffic and the
/// fleet stay the same on every machine.
pub const WORKERS: usize = 2;

/// RSU-G units per worker array (the server's default).
pub const ARRAY_UNITS: u32 = 8;

/// Warm-up jobs per set-up: four per worker, drawn from the workload's
/// own generator with a fixed seed so every run warms up identically.
const WARMUP_JOBS: usize = 4 * WORKERS;
const WARMUP_SEED: u64 = 0x5eed_0a3d;

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: seeded exponential inter-arrival gaps at a fixed rate;
    /// a run sends `jobs_per_s × seconds` jobs.
    Open { jobs_per_s: f64 },
    /// Closed loop: `clients` threads each in a submit → wait cycle; a
    /// run sends `nominal_jobs_per_s × seconds` jobs, so it does fixed
    /// work and its duration is the measurement.
    Closed {
        clients: usize,
        nominal_jobs_per_s: f64,
    },
}

#[derive(Debug, Clone, Copy)]
enum Traffic {
    Mixed,
    Sweep,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub load: Load,
    /// Sweeps per scheduling slice.
    pub quantum: usize,
    pub limits: QueueLimits,
    /// Per-class latency limits for `slo_attainment`, milliseconds.
    pub interactive_slo_ms: f64,
    pub batch_slo_ms: f64,
    traffic: Traffic,
}

/// Every workload, by name.
fn all() -> [Workload; 2] {
    [
        Workload {
            name: "mixed_open",
            load: Load::Open { jobs_per_s: 120.0 },
            quantum: 8,
            // Bounded admission at 16 live jobs per worker per class, four
            // times `bench_serve`'s overload bounds: at this load (about a
            // quarter of capacity) the bound is not reached even through
            // the host's scheduling stalls, so no job is shed.
            limits: QueueLimits {
                max_interactive: 16 * WORKERS,
                max_batch: 16 * WORKERS,
                max_per_tenant: usize::MAX,
            },
            interactive_slo_ms: 8.0,
            batch_slo_ms: 25.0,
            traffic: Traffic::Mixed,
        },
        Workload {
            name: "sweep_closed",
            load: Load::Closed {
                clients: 2,
                nominal_jobs_per_s: 25.0,
            },
            quantum: 64,
            limits: QueueLimits::unbounded(),
            interactive_slo_ms: 200.0,
            batch_slo_ms: 200.0,
            traffic: Traffic::Sweep,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Jobs a run of `seconds` sends.
    pub fn jobs(&self, seconds: u64) -> usize {
        let rate = match self.load {
            Load::Open { jobs_per_s } => jobs_per_s,
            Load::Closed {
                nominal_jobs_per_s, ..
            } => nominal_jobs_per_s,
        };
        ((rate * seconds as f64).round() as usize).max(1)
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: WORKERS,
            array_units: ARRAY_UNITS,
            quantum: self.quantum,
            cache_capacity: 256,
            scene_batch: 4,
            spool_dir: None,
            trace_path: None,
            limits: self.limits,
        }
    }

    /// The measured jobs of a run: `n` specs drawn from `seed`.
    pub fn specs(&self, seed: u64, n: usize) -> Vec<JobSpec> {
        self.generate(seed, n, "job")
    }

    /// The set-up's warm-up jobs, identical on every run.
    pub fn warmup_specs(&self) -> Vec<JobSpec> {
        self.generate(WARMUP_SEED, WARMUP_JOBS, "warm")
    }

    /// Open-loop due times, seconds after the start of the measurement:
    /// cumulative seeded exponential gaps. Empty for a closed loop.
    pub fn arrivals(&self, seed: u64, n: usize) -> Vec<f64> {
        let Load::Open { jobs_per_s } = self.load else {
            return Vec::new();
        };
        let mut rng = Rng::new(seed ^ 0xa221_7a15);
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                let due = t;
                t += -(1.0 - rng.unit()).ln() / jobs_per_s;
                due
            })
            .collect()
    }

    fn generate(&self, seed: u64, n: usize, prefix: &str) -> Vec<JobSpec> {
        let mut rng = Rng::new(seed ^ fnv(self.name));
        let mut gen = Generator::new(self.traffic);
        (0..n)
            .map(|i| {
                let mut spec = gen.next(i, &mut rng);
                spec.id = format!("{prefix}-{i:05}");
                spec
            })
            .collect()
    }
}

/// Tenants every workload spreads its jobs over.
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// One slot of a traffic block: the job's class and whether it repeats
/// an earlier spec.
#[derive(Debug, Clone, Copy)]
struct Slot {
    interactive: bool,
    duplicate: bool,
}

const fn slot(interactive: bool, duplicate: bool) -> Slot {
    Slot {
        interactive,
        duplicate,
    }
}

/// `mixed_open`'s block of 16: 1-in-4 interactive, 3/8 duplicates (1 in
/// 4 interactive, 5 in 12 batch).
const MIXED_BLOCK: [Slot; 16] = [
    slot(true, false),
    slot(true, false),
    slot(true, false),
    slot(true, true),
    slot(false, false),
    slot(false, false),
    slot(false, false),
    slot(false, false),
    slot(false, false),
    slot(false, false),
    slot(false, false),
    slot(false, true),
    slot(false, true),
    slot(false, true),
    slot(false, true),
    slot(false, true),
];

/// Stateful, stratified spec generator. Jobs come in blocks whose class
/// and duplicate shares are exact, in a seeded order; new specs cycle
/// through the applications (and their sizes) evenly per class. So the
/// seed moves scenes, chains, order and arrival gaps, not the traffic's
/// composition, which keeps run-to-run spread down.
struct Generator {
    traffic: Traffic,
    block: Vec<Slot>,
    /// Distinct specs sent so far, per class (interactive, batch), with
    /// the job index that first sent each.
    sent: [Vec<(usize, JobSpec)>; 2],
    /// New specs made so far, per class.
    made: [usize; 2],
}

/// A duplicate repeats a spec first sent between these many jobs ago:
/// old enough to have completed (so it hits the result cache), recent
/// enough to still be among the cache's 256 entries.
const DUPLICATE_AGE: std::ops::Range<usize> = 24..96;

impl Generator {
    fn new(traffic: Traffic) -> Self {
        Generator {
            traffic,
            block: Vec::new(),
            sent: [Vec::new(), Vec::new()],
            made: [0, 0],
        }
    }

    fn next_slot(&mut self, index: usize, rng: &mut Rng) -> Slot {
        let template: &[Slot] = match self.traffic {
            Traffic::Mixed => &MIXED_BLOCK,
            // Client 0 sends interactive-class jobs, client 1 batch; with
            // two clients on two workers no job ever waits for a worker,
            // so the class changes no scheduling decision.
            Traffic::Sweep => return slot(index.is_multiple_of(2), false),
        };
        if self.block.is_empty() {
            self.block = template.to_vec();
            rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("block refilled")
    }

    fn next(&mut self, index: usize, rng: &mut Rng) -> JobSpec {
        let slot = self.next_slot(index, rng);
        let class = usize::from(!slot.interactive);
        let tenant = TENANTS[rng.below(TENANTS.len())].to_string();
        if slot.duplicate {
            let candidates: Vec<&JobSpec> = self.sent[class]
                .iter()
                .filter(|(first, _)| DUPLICATE_AGE.contains(&(index - first)))
                .map(|(_, spec)| spec)
                .collect();
            if !candidates.is_empty() {
                let mut spec = candidates[rng.below(candidates.len())].clone();
                spec.tenant = tenant;
                return spec;
            }
        }
        let n = self.made[class];
        self.made[class] += 1;
        let (kind, iterations) = match self.traffic {
            Traffic::Mixed => (
                mixed_kind(n % 3, rng.seed()),
                if slot.interactive { 8 } else { 24 },
            ),
            Traffic::Sweep => (sweep_kind(n % 3, n / 3, rng.seed()), 32),
        };
        let spec = JobSpec {
            id: String::new(),
            tenant,
            priority: if slot.interactive {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            seed: rng.seed(),
            iterations,
            threads: 1,
            kind,
        };
        let sent = &mut self.sent[class];
        sent.retain(|(first, _)| index - first < DUPLICATE_AGE.end);
        sent.push((index, spec.clone()));
        spec
    }
}

/// Today's serving mix (the `bench_serve` traffic sizes): ≤ 9 labels.
fn mixed_kind(app: usize, scene_seed: u64) -> JobKind {
    match app {
        0 => JobKind::Stereo {
            width: 32,
            height: 24,
            num_disparities: 6,
            num_layers: 2,
            noise_sigma: 1.0,
            scene_seed,
        },
        1 => JobKind::Motion {
            width: 24,
            height: 20,
            window: 3,
            num_patches: 2,
            noise_sigma: 0.5,
            scene_seed,
        },
        _ => JobKind::Segmentation {
            width: 32,
            height: 24,
            num_regions: 4,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed,
        },
    }
}

/// Large label spaces, where the RSU-G race dominates job time: stereo
/// M = 24–48 (the `round`-th stereo job takes the next of 24, 32, 40,
/// 48), motion window 7 (49 labels), segmentation 16 regions. Grids
/// shrink as labels grow, so every job evaluates about 64 k labels per
/// sweep and the latency tail is the host's, not the size mix's.
fn sweep_kind(app: usize, round: usize, scene_seed: u64) -> JobKind {
    match app {
        0 => {
            let (num_disparities, height) = [(24, 48), (32, 36), (40, 29), (48, 24)][round % 4];
            JobKind::Stereo {
                width: 56,
                height,
                num_disparities,
                num_layers: 3,
                noise_sigma: 1.0,
                scene_seed,
            }
        }
        1 => JobKind::Motion {
            width: 36,
            height: 36,
            window: 7,
            num_patches: 3,
            noise_sigma: 0.5,
            scene_seed,
        },
        _ => JobKind::Segmentation {
            width: 80,
            height: 50,
            num_regions: 16,
            noise_sigma: 2.0,
            contrast: 90.0,
            scene_seed,
        },
    }
}

/// Label count of a spec's model.
pub fn labels(kind: &JobKind) -> u32 {
    match *kind {
        JobKind::Stereo {
            num_disparities, ..
        } => num_disparities as u32,
        JobKind::Motion { window, .. } => (window * window) as u32,
        JobKind::Segmentation { num_regions, .. } => num_regions as u32,
    }
}

fn fnv(text: &str) -> u64 {
    retrsu_serve::fnv1a(text.as_bytes())
}

/// SplitMix64: a small seeded generator for the benchmark's own draws.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Seeded Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A 32-bit scene or chain seed.
    fn seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }
}
