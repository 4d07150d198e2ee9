//! Whole-solver benches on a fixed small stereo problem: one annealed
//! MCMC run (software and RSU-G) against the deterministic baselines
//! (ICM, Graph Cuts, loopy BP) — the wall-clock side of the taxonomy
//! table in `baselines.rs`.

use chain::{Chain, Engine, SamplerKind};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrf::{
    alpha_expansion, belief_propagation, IcmSampler, LabelField, MrfModel, NoopObserver, Schedule,
    SweepSolver,
};
use rand::SeedableRng;
use sampling::Xoshiro256pp;
use vision::StereoModel;

fn bench_solvers(c: &mut Criterion) {
    let ds = scenes::StereoSpec {
        width: 32,
        height: 24,
        num_disparities: 8,
        num_layers: 2,
        noise_sigma: 2.0,
    }
    .generate(5);
    let model = StereoModel::new(&ds.left, &ds.right, 8, 0.3, 0.3).expect("valid model");
    let mut group = c.benchmark_group("stereo_solver_32x24_8l");
    group.sample_size(10);

    let mcmc = |sampler: SamplerKind| {
        let mut chain = Chain::new(&model, Schedule::geometric(30.0, 0.9, 0.4), 7);
        chain.step(
            &model,
            &mut Engine::Raster(sampler),
            60,
            None,
            &mut NoopObserver,
        );
        chain.into_field()
    };
    group.bench_function("mcmc_software_60it", |b| {
        b.iter(|| black_box(mcmc(SamplerKind::software())))
    });
    group.bench_function("mcmc_new_rsug_60it", |b| {
        b.iter(|| black_box(mcmc(SamplerKind::new_rsu())))
    });
    group.bench_function("icm_15it", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let mut field = LabelField::random(model.grid(), 8, &mut rng);
            SweepSolver::new(&model).iterations(15).run(
                &mut field,
                &mut IcmSampler::new(),
                &mut rng,
            );
            black_box(field)
        })
    });
    group.bench_function("graph_cuts", |b| {
        b.iter(|| {
            let mut field = LabelField::constant(model.grid(), 8, 0);
            alpha_expansion(&model, &mut field).expect("metric");
            black_box(field)
        })
    });
    group.bench_function("loopy_bp_15it", |b| {
        b.iter(|| {
            let mut field = LabelField::constant(model.grid(), 8, 0);
            belief_propagation(&model, &mut field, 15);
            black_box(field)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
