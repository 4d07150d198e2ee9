//! End-to-end application benches: one full MCMC sweep of a small
//! stereo problem per sampler kind — the simulator-side analogue of the
//! paper's Table II rows.

use chain::app::annealing_schedule;
use chain::{Chain, Engine, SamplerKind};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrf::NoopObserver;
use vision::StereoModel;

fn bench_stereo_sweep(c: &mut Criterion) {
    let ds = scenes::StereoSpec {
        width: 48,
        height: 36,
        num_disparities: 10,
        num_layers: 2,
        noise_sigma: 2.0,
    }
    .generate(3);
    let model = StereoModel::new(&ds.left, &ds.right, 10, 0.3, 0.3).expect("valid model");
    let mut group = c.benchmark_group("stereo_sweep_48x36_10l");
    group.sample_size(20);
    group.throughput(Throughput::Elements((48 * 36 * 10) as u64));
    for kind in [
        SamplerKind::software(),
        SamplerKind::new_rsu(),
        SamplerKind::previous_rsu(),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, kind| {
                b.iter(|| {
                    let mut chain = Chain::new(&model, annealing_schedule(), 7);
                    let mut engine = Engine::Raster(kind.clone());
                    chain.step(&model, &mut engine, 1, None, &mut NoopObserver);
                    black_box(chain.into_field())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stereo_sweep);
criterion_main!(benches);
