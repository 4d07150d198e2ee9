//! §III-C1 (reported in text, no figure number): stereo BP vs
//! `Energy_bits` — 8 bits suffice, fewer degrade quality.

use bench::{solve_stereo, stereo_suite, table, write_csv};
use chain::SamplerKind;
use rsu::RsuConfig;

const ENERGY_BITS: [u32; 6] = [4, 5, 6, 7, 8, 10];

fn main() {
    println!("§III-C1 — stereo BP vs Energy_bits (λ/time at new-design settings)\n");
    let suite = stereo_suite();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // Software reference line.
    let mut sw_avg = 0.0;
    for (_, ds) in &suite {
        sw_avg += solve_stereo(ds, SamplerKind::software()).1;
    }
    sw_avg /= suite.len() as f64;
    for &bits in &ENERGY_BITS {
        // Keep the energy *range* fixed: fewer bits mean a coarser LSB
        // over the same 0..255 energy span, as a narrower datapath would.
        let lsb = 255.0 / ((1u32 << bits) - 1) as f64;
        let kind = SamplerKind::custom(
            RsuConfig::builder()
                .energy_bits(bits)
                .energy_lsb(lsb)
                .build()
                .expect("valid sweep point"),
        );
        let mut avg = 0.0;
        for (_, ds) in &suite {
            avg += solve_stereo(ds, kind.clone()).1;
        }
        avg /= suite.len() as f64;
        rows.push(vec![
            format!("{bits}"),
            format!("{avg:.1}"),
            format!("{:+.1}", avg - sw_avg),
        ]);
        csv.push(format!("{bits},{avg:.3}"));
    }
    rows.push(vec![
        "float (software)".to_owned(),
        format!("{sw_avg:.1}"),
        "+0.0".to_owned(),
    ]);
    println!(
        "{}",
        table::render(&["Energy_bits", "avg BP%", "vs software"], &rows)
    );
    println!("paper shape: ≥ 8 bits matches software; below 8 bits quality degrades");
    write_csv("fig_energy_bits", "energy_bits,avg_bp", &csv);
}
