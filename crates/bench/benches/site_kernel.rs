//! Site-update kernel microbench: ns per single-site Gibbs update for
//! the naive path (per-pair `DistanceFn` dispatch + per-site heap
//! allocations, the pre-fusion implementation), the fused f64 path
//! (precomputed pairwise table rows + scratch-reusing sampler), and the
//! f32 fast path (`NumericPolicy::Fast`: f32 table rows, fused row-add
//! with min tracking, polynomial `fast_exp_f32` weights), per distance
//! function and label count `M ∈ {2, 8, 16, 64}`.
//!
//! Every variant performs one full checkerboard-free raster pass over a
//! 64×64 field (4096 site updates per iteration) at constant
//! temperature; the field is re-seeded identically per variant so all
//! measure the same label trajectory (naive and fused are bit-identical
//! by construction — see `tests/fused_kernel.rs`; the f32 path is
//! statistically equivalent — see `mrf/tests/numeric_equivalence.rs`).
//!
//! Results are exported to `BENCH_kernel.json` at the workspace root
//! (single-core numbers; host/toolchain provenance recorded so runs are
//! only compared like-for-like).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mrf::{DistanceFn, Label, LabelField, MrfModel, SiteSampler, SoftwareGibbs, TabularMrf};
use rand::{Rng, SeedableRng};
use sampling::{Categorical, Xoshiro256pp};
use std::io::Write as _;
use std::path::Path;

const WIDTH: usize = 64;
const HEIGHT: usize = 64;
const LABEL_COUNTS: [usize; 4] = [2, 8, 16, 64];
const TEMPERATURE: f64 = 1.5;

/// The pre-fusion site update, reproduced verbatim: direct per-pair
/// local energies into a freshly allocated buffer, Boltzmann weights in
/// a second fresh buffer, and a heap-allocating `Categorical` per draw.
fn naive_site_update<M: MrfModel, R: Rng + ?Sized>(
    model: &M,
    field: &LabelField,
    site: usize,
    rng: &mut R,
) -> Label {
    let mut energies = Vec::new();
    model.local_energies_direct(site, field, &mut energies);
    let e_min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
    let weights: Vec<f64> = energies
        .iter()
        .map(|&e| (-(e - e_min) / TEMPERATURE).exp())
        .collect();
    match Categorical::new(&weights) {
        Ok(dist) => dist.sample(rng) as Label,
        Err(_) => field.get(site),
    }
}

fn bench_site_kernel(c: &mut Criterion) {
    let sites = (WIDTH * HEIGHT) as u64;
    for dist in DistanceFn::ALL {
        for labels in LABEL_COUNTS {
            let model = TabularMrf::checkerboard(WIDTH, HEIGHT, labels, 4.0, dist, 0.3);
            let mut group = c.benchmark_group(format!("site_kernel/{dist}/M{labels}"));
            group.throughput(Throughput::Elements(sites));
            group.sample_size(10);

            group.bench_function("naive", |b| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let mut field = LabelField::random(model.grid(), labels, &mut rng);
                b.iter(|| {
                    for site in model.grid().sites() {
                        let new = naive_site_update(&model, &field, site, &mut rng);
                        field.set(site, new);
                    }
                });
            });

            group.bench_function("fused", |b| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let mut field = LabelField::random(model.grid(), labels, &mut rng);
                let mut gibbs = SoftwareGibbs::new();
                let mut energies = Vec::with_capacity(labels);
                b.iter(|| {
                    for site in model.grid().sites() {
                        model.local_energies(site, &field, &mut energies);
                        let new =
                            gibbs.sample_label(&energies, TEMPERATURE, field.get(site), &mut rng);
                        field.set(site, new);
                    }
                });
            });

            group.bench_function("fast", |b| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let mut field = LabelField::random(model.grid(), labels, &mut rng);
                let mut gibbs = SoftwareGibbs::new();
                let mut energies: Vec<f32> = Vec::with_capacity(labels);
                b.iter(|| {
                    for site in model.grid().sites() {
                        let e_min = model.local_energies_f32(site, &field, &mut energies);
                        let new = gibbs.sample_label_f32(
                            &energies,
                            e_min,
                            TEMPERATURE,
                            field.get(site),
                            &mut rng,
                        );
                        field.set(site, new);
                    }
                });
            });
            group.finish();
        }
    }
    export_json(c, sites);
}

/// Writes `BENCH_kernel.json` at the workspace root: one entry per
/// `(distance, M)` pairing the naive and fused ns/site and the speedup.
fn export_json(c: &Criterion, sites: u64) {
    let mut entries = Vec::new();
    for dist in DistanceFn::ALL {
        for labels in LABEL_COUNTS {
            let lookup = |variant: &str| {
                let id = format!("site_kernel/{dist}/M{labels}/{variant}");
                c.results
                    .iter()
                    .find(|(rid, _)| *rid == id)
                    .map(|&(_, ns)| ns / sites as f64)
                    .unwrap_or(f64::NAN)
            };
            let naive = lookup("naive");
            let fused = lookup("fused");
            let fast = lookup("fast");
            entries.push(format!(
                "    {{\"config\": \"{dist}/M{labels}\", \"naive_ns_per_site\": {naive:.2}, \
                 \"fused_ns_per_site\": {fused:.2}, \"fast_ns_per_site\": {fast:.2}, \
                 \"speedup\": {:.3}, \"fast_speedup_vs_fused\": {:.3}}}",
                naive / fused,
                fused / fast
            ));
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"site_kernel\",\n  \"grid\": [{WIDTH}, {HEIGHT}],\n  \
         \"temperature\": {TEMPERATURE},\n  {},\n  \
         \"note\": \"single-core ns per site update; naive = per-pair distance dispatch + \
         allocating sampler, fused = pairwise-table rows + scratch sampler (bit-identical \
         outputs), fast = f32 rows + fused row-add/prefix-sum + polynomial exp \
         (statistically equivalent, gated by mrf/tests/numeric_equivalence.rs)\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        bench::provenance_json_fields(),
        entries.join(",\n")
    );
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root");
    let path = root.join("BENCH_kernel.json");
    let mut f = std::fs::File::create(&path).expect("can create BENCH_kernel.json");
    f.write_all(json.as_bytes())
        .expect("can write BENCH_kernel.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_site_kernel);
criterion_main!(benches);
