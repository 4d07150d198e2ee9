//! Figure 3: software-only vs previous RSU-G result quality (BP) across
//! the three stereo datasets.

use bench::{solve_stereo, stereo_suite, table, write_csv};
use chain::SamplerKind;

fn main() {
    println!("Fig. 3 — Software-only vs previous RSU-G stereo quality (bad-pixel %)\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, ds) in stereo_suite() {
        let (_, sw_bp) = solve_stereo(&ds, SamplerKind::software());
        let (_, prev_bp) = solve_stereo(&ds, SamplerKind::previous_rsu());
        rows.push(vec![
            name.to_owned(),
            format!("{}", ds.num_disparities),
            format!("{sw_bp:.1}"),
            format!("{prev_bp:.1}"),
        ]);
        csv.push(format!(
            "{name},{},{sw_bp:.3},{prev_bp:.3}",
            ds.num_disparities
        ));
    }
    println!(
        "{}",
        table::render(
            &["dataset", "labels", "software BP%", "prev-RSUG BP%"],
            &rows
        )
    );
    println!("paper shape: software far below previous RSU-G; previous RSU-G > 90 %");
    write_csv(
        "fig3_prev_vs_software",
        "dataset,labels,software_bp,prev_rsug_bp",
        &csv,
    );
}
