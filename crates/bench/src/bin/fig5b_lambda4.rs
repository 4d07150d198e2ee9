//! Figure 5b: per-dataset stereo BP at `Lambda_bits = 4` with the full
//! techniques (scaling + cut-off + 2^n), against the software baseline.

use bench::{solve_stereo, stereo_suite, table, write_csv};
use chain::SamplerKind;
use rsu::{Conversion, RsuConfig};

fn main() {
    println!("Fig. 5b — per-dataset BP at Lambda_bits = 4 (full techniques)\n");
    // Stage-isolated configuration: time still effectively unconstrained.
    let rsu = SamplerKind::custom(
        RsuConfig::builder()
            .lambda_bits(4)
            .conversion(Conversion::Lut)
            .time_bits(12)
            .truncation(0.02)
            .build()
            .expect("valid configuration"),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let (_, sw_bp) = solve_stereo(&ds, SamplerKind::software());
        let (_, hw_bp) = solve_stereo(&ds, rsu.clone());
        rows.push(vec![
            name.to_owned(),
            format!("{sw_bp:.1}"),
            format!("{hw_bp:.1}"),
            format!("{:+.1}", hw_bp - sw_bp),
        ]);
        csv.push(format!("{name},{sw_bp:.3},{hw_bp:.3}"));
    }
    println!(
        "{}",
        table::render(
            &["dataset", "software BP%", "RSUG(λ=4b) BP%", "delta"],
            &rows
        )
    );
    println!("paper shape: RSU-G within a few BP points of software on every dataset");
    write_csv("fig5b_lambda4", "dataset,software_bp,rsug_bp", &csv);
}
