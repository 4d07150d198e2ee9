//! Figure 9a: stereo BP across the three datasets, software vs the full
//! new RSU-G design (Energy 8 b, λ 4 b, Time 5 b, Truncation 0.5).
//!
//! `--numeric fast` / `--active` switch the chains to the checkerboard
//! engine's f32 fast path and/or active-site scheduling; quality under
//! those knobs is gated against the f64 oracle (DESIGN §12), not
//! bit-identical to the default run.

use bench::checkpoint::CheckpointCtl;
use bench::{stereo_suite, table, write_csv};
use chain::app::STEREO_ITERATIONS;
use chain::{App, Engine, SamplerKind};
use mrf::NumericPolicy;
use vision::metrics::rms_error;

fn main() {
    let numeric = bench::numeric_from_args();
    let active = bench::active_from_args();
    let mut ckpt = CheckpointCtl::disabled();
    println!("Fig. 9a — stereo BP, software vs new RSU-G (8/4/5 bits, truncation 0.5)\n");
    if numeric == NumericPolicy::Fast || active {
        println!(
            "numeric policy {numeric:?}, active-site scheduling {}: chains run on the \
             checkerboard engine (DESIGN §12 quality gate applies)\n",
            if active { "on" } else { "off" }
        );
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let app = App::stereo(&ds).expect("generated datasets are consistent");
        let mut run = |sampler: SamplerKind| {
            let chain = ckpt.run(
                &format!("fig9a/{name}/{}", sampler.name()),
                &app,
                app.schedule(),
                11,
                &mut Engine::solver(sampler, 1, numeric, active),
                STEREO_ITERATIONS,
            );
            let (_, bp) = app.score(chain.field());
            (
                bp,
                rms_error(chain.field(), &ds.ground_truth, Some(&ds.occlusion)),
            )
        };
        let (sw_bp, sw_rms) = run(SamplerKind::software());
        let (hw_bp, hw_rms) = run(SamplerKind::new_rsu());
        rows.push(vec![
            name.to_owned(),
            format!("{sw_bp:.1}"),
            format!("{hw_bp:.1}"),
            format!("{:+.1}", hw_bp - sw_bp),
            format!("{sw_rms:.2}"),
            format!("{hw_rms:.2}"),
        ]);
        csv.push(format!(
            "{name},{sw_bp:.3},{hw_bp:.3},{sw_rms:.4},{hw_rms:.4}"
        ));
    }
    println!(
        "{}",
        table::render(
            &[
                "dataset",
                "software BP%",
                "new-RSUG BP%",
                "ΔBP",
                "sw RMS",
                "rsu RMS"
            ],
            &rows
        )
    );
    println!("paper shape: differences of only a few BP points (3 / 0.1 / 0.5 in the paper)");
    write_csv(
        "fig9a_stereo",
        "dataset,software_bp,rsug_bp,software_rms,rsug_rms",
        &csv,
    );
}
