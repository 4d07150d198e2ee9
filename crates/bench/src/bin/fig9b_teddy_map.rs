//! Figure 9b: the teddy-like disparity map produced by the new RSU-G.

use bench::artifacts_dir;
use bench::checkpoint::CheckpointCtl;
use chain::app::STEREO_ITERATIONS;
use chain::{App, Engine, SamplerKind};
use mrf::NumericPolicy;
use vision::image::labels_to_image;
use vision::metrics::rms_error;

fn main() {
    let threads = bench::threads_from_args();
    let mut ckpt = CheckpointCtl::from_args_or_exit("fig9b_teddy_map");
    println!("Fig. 9b — teddy disparity map, new RSU-G\n");
    if let Some(label) = ckpt.pending_resume() {
        println!("resuming interrupted run {label}\n");
    }
    let ds = scenes::stereo_teddy_like(1001);
    let app = App::stereo(&ds).expect("generated datasets are consistent");
    let chain = ckpt.run(
        "fig9b/teddy/new-RSUG",
        &app,
        app.schedule(),
        11,
        &mut Engine::solver(SamplerKind::new_rsu(), threads, NumericPolicy::Exact, false),
        STEREO_ITERATIONS,
    );
    let field = chain.field();
    let path = artifacts_dir().join("fig9b_new_rsug_teddy.pgm");
    labels_to_image(field).save_pgm(&path).expect("write pgm");
    let (_, bp) = app.score(field);
    let rms = rms_error(field, &ds.ground_truth, Some(&ds.occlusion));
    println!("new RSU-G BP {bp:.1} %  RMS {rms:.2}");
    println!("wrote {}", path.display());
    println!("paper shape: visually indistinguishable from the software map of Fig. 4c");
}
