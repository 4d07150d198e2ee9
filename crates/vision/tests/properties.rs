//! Property-based tests for the vision metrics and models.

use mrf::{Grid, LabelField, MrfModel};
use proptest::prelude::*;
use rand::SeedableRng;
use sampling::Xoshiro256pp;
use vision::metrics::{
    bad_pixel_percentage, boundary_displacement_error, endpoint_error, global_consistency_error,
    probabilistic_rand_index, rms_error, variation_of_information,
};
use vision::{GrayImage, MotionModel, SegmentModel, StereoModel};

fn arb_field(w: usize, h: usize, k: usize) -> impl Strategy<Value = LabelField> {
    proptest::collection::vec(0..k as u16, w * h)
        .prop_map(move |labels| LabelField::from_labels(Grid::new(w, h), k, labels))
}

proptest! {
    /// VoI is a metric-like divergence: non-negative, zero on identity,
    /// and symmetric.
    #[test]
    fn voi_axioms(a in arb_field(6, 6, 4), b in arb_field(6, 6, 4)) {
        let vab = variation_of_information(&a, &b);
        let vba = variation_of_information(&b, &a);
        prop_assert!(vab >= 0.0);
        prop_assert!((vab - vba).abs() < 1e-9, "symmetry");
        prop_assert!(variation_of_information(&a, &a) < 1e-12);
    }

    /// PRI is in [0, 1], symmetric, and 1 on identical partitions.
    #[test]
    fn pri_axioms(a in arb_field(5, 5, 3), b in arb_field(5, 5, 3)) {
        let p = probabilistic_rand_index(&a, &b);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p - probabilistic_rand_index(&b, &a)).abs() < 1e-12);
        prop_assert!((probabilistic_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// GCE is in [0, 1] and zero on identical partitions.
    #[test]
    fn gce_axioms(a in arb_field(5, 5, 3), b in arb_field(5, 5, 3)) {
        let g = global_consistency_error(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&g));
        prop_assert!(global_consistency_error(&a, &a) < 1e-12);
    }

    /// BDE is non-negative, symmetric and zero on identity.
    #[test]
    fn bde_axioms(a in arb_field(6, 6, 3), b in arb_field(6, 6, 3)) {
        let d = boundary_displacement_error(&a, &b);
        prop_assert!(d >= 0.0);
        prop_assert!((d - boundary_displacement_error(&b, &a)).abs() < 1e-9);
        prop_assert!(boundary_displacement_error(&a, &a) < 1e-12);
    }

    /// BP is within [0, 100], zero on identity, and monotone in the
    /// threshold.
    #[test]
    fn bp_axioms(a in arb_field(5, 5, 8), b in arb_field(5, 5, 8), t in 0.0f64..4.0) {
        let bp = bad_pixel_percentage(&a, &b, None, t);
        prop_assert!((0.0..=100.0).contains(&bp));
        prop_assert!(bad_pixel_percentage(&a, &a, None, t) == 0.0);
        let looser = bad_pixel_percentage(&a, &b, None, t + 1.0);
        prop_assert!(looser <= bp);
    }

    /// RMS is zero on identity and bounded by the maximum label
    /// difference.
    #[test]
    fn rms_axioms(a in arb_field(5, 5, 8), b in arb_field(5, 5, 8)) {
        let r = rms_error(&a, &b, None);
        prop_assert!((0.0..=7.0 + 1e-12).contains(&r));
        prop_assert!(rms_error(&a, &a, None) == 0.0);
    }

    /// EPE is a metric on flow fields: zero on identity, symmetric,
    /// triangle inequality.
    #[test]
    fn epe_axioms(
        a in proptest::collection::vec((-3isize..=3, -3isize..=3), 16),
        b in proptest::collection::vec((-3isize..=3, -3isize..=3), 16),
        c in proptest::collection::vec((-3isize..=3, -3isize..=3), 16),
    ) {
        prop_assert!(endpoint_error(&a, &a) == 0.0);
        prop_assert!((endpoint_error(&a, &b) - endpoint_error(&b, &a)).abs() < 1e-12);
        prop_assert!(
            endpoint_error(&a, &c) <= endpoint_error(&a, &b) + endpoint_error(&b, &c) + 1e-9
        );
    }

    /// Stereo data costs are non-negative and exactly zero at perfect
    /// correspondence.
    #[test]
    fn stereo_costs_nonnegative(shift in 1usize..5, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        use rand::Rng;
        let left = GrayImage::from_fn(24, 6, |_, _| rng.gen_range(0.0..255.0f32));
        let right = left.shifted_left(shift);
        let model = StereoModel::new(&left, &right, 8, 1.0, 0.5).unwrap();
        for site in model.grid().sites() {
            for d in 0..8u16 {
                prop_assert!(model.singleton(site, d) >= 0.0);
            }
        }
        // Perfect correspondence away from the border.
        let site = model.grid().index(20, 3);
        prop_assert!(model.singleton(site, shift as u16) < 1e-6);
    }

    /// Motion label encoding is a bijection over the window.
    #[test]
    fn motion_label_bijection(window_idx in 0usize..3) {
        let window = [3usize, 5, 7][window_idx];
        let img = GrayImage::filled(16, 16, 0.0);
        let model = MotionModel::new(&img, &img, window, 1.0, 1.0).unwrap();
        let mut seen = std::collections::HashSet::new();
        for l in 0..model.num_labels() as u16 {
            let (dx, dy) = model.label_to_flow(l);
            prop_assert_eq!(model.flow_to_label(dx, dy), Some(l));
            seen.insert((dx, dy));
        }
        prop_assert_eq!(seen.len(), window * window);
    }

    /// Segmentation models assign the lowest data cost to the nearest
    /// class mean for every pixel.
    #[test]
    fn segment_cost_prefers_nearest_mean(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        use rand::Rng;
        let img = GrayImage::from_fn(8, 8, |_, _| rng.gen_range(0.0..255.0f32));
        let model = SegmentModel::new(&img, 3, 1.0, 0.0).unwrap();
        let means = model.class_means().to_vec();
        for site in model.grid().sites() {
            let (x, y) = model.grid().coords(site);
            let v = img.get(x, y) as f64;
            let nearest = (0..3)
                .min_by(|&a, &b| {
                    (v - means[a]).abs().partial_cmp(&(v - means[b]).abs()).unwrap()
                })
                .unwrap() as u16;
            let best = (0..3u16)
                .min_by(|&a, &b| {
                    model
                        .singleton(site, a)
                        .partial_cmp(&model.singleton(site, b))
                        .unwrap()
                })
                .unwrap();
            prop_assert_eq!(best, nearest);
        }
    }
}
