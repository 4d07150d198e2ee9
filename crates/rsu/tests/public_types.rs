//! Surface checks on the public data types: the design-point `Debug`
//! form that experiment logs record, and the value semantics of cycle
//! reports.

use rsu::{CycleAccuratePipeline, DesignKind, RsuConfig};

#[test]
fn config_debug_contains_all_design_parameters() {
    // The Debug form is what experiment logs record; it must expose the
    // four paper parameters.
    let s = format!("{:?}", RsuConfig::new_design());
    for needle in [
        "energy_bits: 8",
        "lambda_bits: 4",
        "time_bits: 5",
        "truncation: 0.5",
    ] {
        assert!(s.contains(needle), "missing {needle} in {s}");
    }
}

#[test]
fn cycle_reports_are_value_types() {
    let sim = CycleAccuratePipeline::new(DesignKind::New, RsuConfig::new_design(), 10);
    let a = sim.run(100, 0);
    let b = a; // Copy
    assert_eq!(a, b);
    assert!(a.cycles_per_variable() > 0.0);
}
