//! Figure 9c: motion-estimation endpoint error across the three flow
//! datasets, software vs new RSU-G (49 labels, 7×7 window).

use bench::checkpoint::CheckpointCtl;
use bench::{flow_suite, table, write_csv};
use chain::app::STEREO_ITERATIONS;
use chain::{App, Engine, SamplerKind};
use mrf::NumericPolicy;

fn main() {
    let threads = bench::threads_from_args();
    let mut ckpt = CheckpointCtl::from_args_or_exit("fig9c_motion");
    println!("Fig. 9c — motion estimation EPE, software vs new RSU-G (49 labels)\n");
    if let Some(label) = ckpt.pending_resume() {
        println!("resuming interrupted run {label} (earlier runs are recomputed)\n");
    }
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in flow_suite() {
        let app = App::motion(&ds).expect("generated datasets are consistent");
        let mut run = |sampler: SamplerKind| {
            let chain = ckpt.run(
                &format!("fig9c/{name}/{}", sampler.name()),
                &app,
                app.schedule(),
                21,
                &mut Engine::solver(sampler, threads, NumericPolicy::Exact, false),
                STEREO_ITERATIONS,
            );
            app.score(chain.field()).1
        };
        let sw_epe = run(SamplerKind::software());
        let hw_epe = run(SamplerKind::new_rsu());
        rows.push(vec![
            name.to_owned(),
            format!("{sw_epe:.3}"),
            format!("{hw_epe:.3}"),
            format!("{:+.3}", hw_epe - sw_epe),
        ]);
        csv.push(format!("{name},{sw_epe:.5},{hw_epe:.5}"));
    }
    println!(
        "{}",
        table::render(&["dataset", "software EPE", "new-RSUG EPE", "delta"], &rows)
    );
    println!("paper shape: RSU-G EPE comparable to software on every dataset");
    write_csv("fig9c_motion", "dataset,software_epe,rsug_epe", &csv);
}
