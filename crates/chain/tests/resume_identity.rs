//! The [`Chain`] determinism contract on every engine: a chain killed
//! at a sweep boundary, round-tripped through the checkpoint *text*
//! and resumed at a different thread count ends bit-identical to an
//! uninterrupted run — field and every energy-history bit — and
//! stepping in arbitrary chunks never changes the chain.

use chain::{Chain, Engine, SamplerKind};
use mrf::{Checkpoint, DistanceFn, NoopObserver, NumericPolicy, Schedule, TabularMrf};
use proptest::prelude::*;
use rsu::{RsuArray, RsuConfig};

const SWEEPS: usize = 30;
const SEED: u64 = 11;

#[derive(Debug, Clone, Copy)]
enum Config {
    Raster,
    CheckerboardExact,
    CheckerboardFastActive,
    Array,
}

fn model() -> TabularMrf {
    TabularMrf::checkerboard(10, 8, 3, 4.0, DistanceFn::Binary, 0.3)
}

fn schedule() -> Schedule {
    Schedule::geometric(3.0, 0.9, 0.1)
}

/// Steps `chain` to `until` on `config` at `threads` (a fresh array per
/// step for the array engine: array chains depend only on the seed).
fn step(config: Config, chain: &mut Chain, until: usize, threads: usize) {
    let checkerboard = |numeric, active| Engine::Checkerboard {
        sampler: SamplerKind::software(),
        threads,
        numeric,
        active,
    };
    let mut array = RsuArray::new(RsuConfig::new_design(), 4);
    let mut engine = match config {
        Config::Raster => Engine::Raster(SamplerKind::software()),
        Config::CheckerboardExact => checkerboard(NumericPolicy::Exact, false),
        Config::CheckerboardFastActive => checkerboard(NumericPolicy::Fast, true),
        Config::Array => Engine::Array {
            array: &mut array,
            threads,
        },
    };
    assert!(chain.step(&model(), &mut engine, until, None, &mut NoopObserver));
}

fn bits(history: &[f64]) -> Vec<u64> {
    history.iter().map(|e| e.to_bits()).collect()
}

#[test]
fn killed_and_resumed_chains_are_bit_identical_on_every_engine() {
    let model = model();
    let cases = [
        (Config::Raster, 13, 1, 1),
        (Config::CheckerboardExact, 10, 2, 7),
        (Config::CheckerboardFastActive, 10, 2, 7),
        (Config::Array, 6, 1, 3),
    ];
    for (config, kill_at, kill_threads, resume_threads) in cases {
        let mut whole = Chain::new(&model, schedule(), SEED);
        step(config, &mut whole, SWEEPS, 1);

        let mut killed = Chain::new(&model, schedule(), SEED);
        step(config, &mut killed, kill_at, kill_threads);
        let text = killed.checkpoint("t/resume").to_text();
        let checkpoint = Checkpoint::from_text(&text).unwrap();
        assert_eq!(checkpoint.next_iteration, kill_at, "{config:?}");
        assert_eq!(
            checkpoint.rng_state.is_some(),
            matches!(config, Config::Raster),
            "{config:?}: only raster chains carry sequential RNG words"
        );
        assert_eq!(
            checkpoint.active_sites.is_some(),
            matches!(config, Config::CheckerboardFastActive),
            "{config:?}: only active chains carry the worklist"
        );
        let mut resumed = Chain::resume(&checkpoint, schedule());
        step(config, &mut resumed, SWEEPS, resume_threads);

        assert_eq!(resumed.field(), whole.field(), "{config:?}");
        assert_eq!(
            bits(resumed.energy_history()),
            bits(whole.energy_history()),
            "{config:?}"
        );
        let expected_history = if matches!(config, Config::Array) {
            0
        } else {
            SWEEPS
        };
        assert_eq!(whole.energy_history().len(), expected_history, "{config:?}");
    }
}

#[test]
fn a_raised_preempt_flag_stops_at_the_next_sweep_boundary() {
    let model = model();
    let mut chain = Chain::new(&model, schedule(), SEED);
    let flag = std::sync::atomic::AtomicBool::new(true);
    let mut engine = Engine::Raster(SamplerKind::software());
    assert!(!chain.step(&model, &mut engine, SWEEPS, Some(&flag), &mut NoopObserver));
    assert_eq!(chain.next_sweep(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chunk boundaries are invisible: any split of the sweep range
    /// gives the chain a single step produces.
    #[test]
    fn chunked_stepping_equals_one_step(
        chunks in proptest::collection::vec(1usize..9, 1..8),
        which in 0usize..4,
    ) {
        let config = [
            Config::Raster,
            Config::CheckerboardExact,
            Config::CheckerboardFastActive,
            Config::Array,
        ][which];
        let model = model();
        let mut whole = Chain::new(&model, schedule(), SEED);
        step(config, &mut whole, SWEEPS, 2);
        let mut chunked = Chain::new(&model, schedule(), SEED);
        for size in chunks.iter().cycle() {
            if chunked.next_sweep() >= SWEEPS {
                break;
            }
            let until = (chunked.next_sweep() + size).min(SWEEPS);
            step(config, &mut chunked, until, 1 + size % 3);
        }
        prop_assert_eq!(chunked.field(), whole.field());
        prop_assert_eq!(bits(chunked.energy_history()), bits(whole.energy_history()));
    }
}
