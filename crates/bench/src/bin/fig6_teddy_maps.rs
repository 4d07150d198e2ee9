//! Figure 6: teddy-like disparity maps under (a) 7-bit scaled decay
//! rates only, and (b) 4-bit λ with cut-off, scaling and 2^n truncation.

use bench::{artifacts_dir, solve_stereo};
use chain::SamplerKind;
use rsu::{Conversion, RsuConfig};
use vision::image::labels_to_image;

fn main() {
    println!("Fig. 6 — scaled-only vs full-technique teddy disparity maps\n");
    let ds = scenes::stereo_teddy_like(1001);
    let dir = artifacts_dir();
    let scaled_only = SamplerKind::custom(
        RsuConfig::builder()
            .lambda_bits(7)
            .decay_rate_scaling(true)
            .probability_cutoff(false)
            .pow2_lambda(false)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid configuration"),
    );
    let full = SamplerKind::custom(
        RsuConfig::builder()
            .lambda_bits(4)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid configuration"),
    );
    let (a, a_bp) = solve_stereo(&ds, scaled_only);
    let (b, b_bp) = solve_stereo(&ds, full);
    labels_to_image(&a)
        .save_pgm(dir.join("fig6a_scaled_only.pgm"))
        .expect("write pgm");
    labels_to_image(&b)
        .save_pgm(dir.join("fig6b_full_techniques.pgm"))
        .expect("write pgm");
    println!("scaled-only (7-bit λ) BP {a_bp:.1} %");
    println!("full techniques (4-bit λ) BP {b_bp:.1} %");
    println!(
        "wrote fig6a_scaled_only / fig6b_full_techniques under {}",
        dir.display()
    );
    println!("paper shape: (a) visibly degraded (BP ~70 % regime); (b) close to software");
}
