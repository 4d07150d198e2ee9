//! Figure 4: left image, ground-truth disparity, software disparity map
//! and previous-RSU-G disparity map for the teddy-like dataset, written
//! as PGM images.

use bench::{artifacts_dir, solve_stereo};
use chain::SamplerKind;
use vision::image::labels_to_image;

fn main() {
    println!("Fig. 4 — Software vs previous RSU-G disparity maps (teddy-like)\n");
    let ds = scenes::stereo_teddy_like(1001);
    let dir = artifacts_dir();
    ds.left
        .save_pgm(dir.join("fig4a_left.pgm"))
        .expect("write pgm");
    labels_to_image(&ds.ground_truth)
        .save_pgm(dir.join("fig4b_ground_truth.pgm"))
        .expect("write pgm");
    let (sw, sw_bp) = solve_stereo(&ds, SamplerKind::software());
    labels_to_image(&sw)
        .save_pgm(dir.join("fig4c_software.pgm"))
        .expect("write pgm");
    let (prev, prev_bp) = solve_stereo(&ds, SamplerKind::previous_rsu());
    labels_to_image(&prev)
        .save_pgm(dir.join("fig4d_prev_rsug.pgm"))
        .expect("write pgm");
    println!("software BP {sw_bp:.1} %   previous RSU-G BP {prev_bp:.1} %");
    println!(
        "wrote fig4a_left / fig4b_ground_truth / fig4c_software / fig4d_prev_rsug under {}",
        dir.display()
    );
    println!("paper shape: (c) resembles (b); (d) is disparity noise");
}
