//! The three applications of the evaluation — stereo, motion and
//! segmentation — with the energy weights, schedules and iteration
//! budgets every experiment and every served job uses.
//!
//! An [`App`] is an MRF model plus the ground truth needed to score a
//! final field, both built deterministically from a synthetic dataset.
//! Chains run on it through [`ChainModel`](crate::ChainModel); the
//! application only decides the schedule and the score.

use crate::{Chain, ChainModel, Engine};
use mrf::{Grid, LabelField, Schedule, SweepObserver};
use scenes::{FlowDataset, SegmentationDataset, StereoDataset};
use std::sync::atomic::AtomicBool;
use vision::metrics::{bad_pixel_percentage, endpoint_error, variation_of_information};
use vision::{MotionModel, SegmentModel, StereoModel, VisionError};

/// Stereo energy weights used throughout the experiments (best-effort
/// tuned once, like the paper's "best-effort optimization for MCMC
/// algorithm parameters ... applied throughout the evaluation").
pub const STEREO_DATA_WEIGHT: f64 = 0.30;
/// Stereo smoothness weight.
pub const STEREO_SMOOTH_WEIGHT: f64 = 0.3;
/// Motion energy weights (squared distances are larger, so smaller
/// weights).
pub const MOTION_DATA_WEIGHT: f64 = 0.004;
/// Motion smoothness weight.
pub const MOTION_SMOOTH_WEIGHT: f64 = 1.2;
/// Segmentation energy weights.
pub const SEGMENT_DATA_WEIGHT: f64 = 0.004;
/// Segmentation smoothness weight.
pub const SEGMENT_SMOOTH_WEIGHT: f64 = 2.5;

/// The annealing schedule used by the stereo and motion experiments.
pub fn annealing_schedule() -> Schedule {
    Schedule::geometric(40.0, 0.96, 0.4)
}

/// The (milder) schedule used by segmentation, which the paper runs for
/// only 30 iterations.
pub fn segmentation_schedule() -> Schedule {
    Schedule::geometric(4.0, 0.9, 0.3)
}

/// Default iteration budget for stereo/motion runs.
pub const STEREO_ITERATIONS: usize = 220;
/// Default iteration budget for segmentation runs (paper: 30).
pub const SEGMENT_ITERATIONS: usize = 30;

/// An application model with the ground truth that scores it.
pub enum App {
    /// Disparity estimation, scored by bad-pixel percentage
    /// (threshold 1, occlusions counted bad).
    Stereo {
        /// The stereo MRF.
        model: StereoModel,
        /// Ground-truth disparities.
        truth: LabelField,
        /// Occluded pixels of the left view.
        occlusion: Vec<bool>,
    },
    /// Optical flow, scored by average endpoint error.
    Motion {
        /// The motion MRF.
        model: MotionModel,
        /// Ground-truth flow vectors.
        truth: Vec<(isize, isize)>,
    },
    /// Image segmentation, scored by Variation of Information against
    /// the generating partition.
    Segmentation {
        /// The segmentation MRF.
        model: SegmentModel,
        /// The generating partition.
        truth: LabelField,
    },
}

impl App {
    /// The stereo application over a dataset, with the standard weights.
    pub fn stereo(ds: &StereoDataset) -> Result<App, VisionError> {
        Ok(App::Stereo {
            model: StereoModel::new(
                &ds.left,
                &ds.right,
                ds.num_disparities,
                STEREO_DATA_WEIGHT,
                STEREO_SMOOTH_WEIGHT,
            )?,
            truth: ds.ground_truth.clone(),
            occlusion: ds.occlusion.clone(),
        })
    }

    /// The motion application over a dataset, with the standard weights.
    pub fn motion(ds: &FlowDataset) -> Result<App, VisionError> {
        Ok(App::Motion {
            model: MotionModel::new(
                &ds.frame1,
                &ds.frame2,
                ds.window,
                MOTION_DATA_WEIGHT,
                MOTION_SMOOTH_WEIGHT,
            )?,
            truth: ds.ground_truth.clone(),
        })
    }

    /// The segmentation application over a dataset at `num_segments`
    /// labels, with the standard weights.
    pub fn segmentation(ds: &SegmentationDataset, num_segments: usize) -> Result<App, VisionError> {
        Ok(App::Segmentation {
            model: SegmentModel::new(
                &ds.image,
                num_segments,
                SEGMENT_DATA_WEIGHT,
                SEGMENT_SMOOTH_WEIGHT,
            )?,
            truth: ds.ground_truth.clone(),
        })
    }

    /// The application's annealing schedule.
    pub fn schedule(&self) -> Schedule {
        match self {
            App::Segmentation { .. } => segmentation_schedule(),
            _ => annealing_schedule(),
        }
    }

    /// Scores a final field: `(metric name, value)` — stereo `"bp"`,
    /// motion `"epe"`, segmentation `"voi"`; lower is better for all.
    pub fn score(&self, field: &LabelField) -> (&'static str, f64) {
        match self {
            App::Stereo {
                truth, occlusion, ..
            } => (
                "bp",
                bad_pixel_percentage(field, truth, Some(occlusion), 1.0),
            ),
            App::Motion { model, truth } => {
                let flow: Vec<(isize, isize)> = (0..field.grid().len())
                    .map(|site| model.label_to_flow(field.get(site)))
                    .collect();
                ("epe", endpoint_error(&flow, truth))
            }
            App::Segmentation { truth, .. } => ("voi", variation_of_information(field, truth)),
        }
    }
}

impl ChainModel for App {
    fn label_space(&self) -> (Grid, usize) {
        match self {
            App::Stereo { model, .. } => model.label_space(),
            App::Motion { model, .. } => model.label_space(),
            App::Segmentation { model, .. } => model.label_space(),
        }
    }

    fn advance<O: SweepObserver>(
        &self,
        chain: &mut Chain,
        engine: &mut Engine<'_>,
        until: usize,
        preempt: Option<&AtomicBool>,
        observer: &mut O,
    ) -> bool {
        match self {
            App::Stereo { model, .. } => model.advance(chain, engine, until, preempt, observer),
            App::Motion { model, .. } => model.advance(chain, engine, until, preempt, observer),
            App::Segmentation { model, .. } => {
                model.advance(chain, engine, until, preempt, observer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplerKind;
    use mrf::NoopObserver;

    #[test]
    fn small_software_stereo_chain_produces_sane_bp() {
        // A miniature stereo problem: software Gibbs should beat chance
        // comfortably even with a tiny budget.
        let ds = scenes::StereoSpec {
            width: 40,
            height: 30,
            num_disparities: 8,
            num_layers: 2,
            noise_sigma: 1.0,
        }
        .generate(5);
        let app = App::stereo(&ds).unwrap();
        assert_eq!(app.schedule(), annealing_schedule());
        let mut chain = Chain::new(&app, app.schedule(), 1);
        let mut engine = Engine::Raster(SamplerKind::software());
        chain.step(&app, &mut engine, 60, None, &mut NoopObserver);
        let (metric, bp) = app.score(chain.field());
        assert_eq!(metric, "bp");
        assert!(bp < 60.0, "bp {bp}");
    }

    #[test]
    fn segmentation_uses_its_own_schedule_and_scores_voi() {
        let ds = scenes::SegmentationSpec {
            width: 12,
            height: 10,
            num_regions: 3,
            noise_sigma: 2.0,
            contrast: 90.0,
        }
        .generate(4);
        let app = App::segmentation(&ds, 3).unwrap();
        assert_eq!(app.schedule(), segmentation_schedule());
        assert_eq!(app.label_space().1, 3);
        let (metric, voi) = app.score(&ds.ground_truth);
        assert_eq!(metric, "voi");
        assert!(voi.abs() < 1e-12, "the truth scores zero VoI, got {voi}");
    }
}
