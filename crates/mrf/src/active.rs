//! Active-site worklist for sparsity-exploiting sweeps.
//!
//! Late in an annealed run most of the field is frozen: a full sweep
//! recomputes local energies for thousands of sites whose conditional
//! distribution has not changed since the last visit. The classic
//! worklist trick (Mansinghka & Jonas, *Building fast Bayesian
//! computing machines out of intentionally stochastic, digital parts*)
//! re-visits a site only when its conditional could have changed — i.e.
//! when the site itself or one of its lattice neighbours flipped during
//! the previous sweep.
//!
//! # Scheduling contract
//!
//! [`ActiveSet`] maintains two masks: the *current* mask (sites visited
//! this sweep) and the *next* mask (accumulated from this sweep's
//! flips). [`mark_flip`](ActiveSet::mark_flip) records a flip by
//! setting the flipped site and its neighbours in the next mask;
//! [`advance`](ActiveSet::advance) swaps the masks at the sweep
//! boundary. A site outside the current mask is skipped entirely — it
//! keeps its label and consumes no randomness.
//!
//! Skipping sites changes the Markov chain: a skipped site does not
//! re-draw from its unchanged conditional, so its thermal fluctuations
//! are suppressed and a free-running hot chain *self-quenches* — flip
//! rate, worklist size and energy fall together until the field
//! freezes. Active scheduling is therefore an **optimization-mode**
//! accelerator (annealing / MAP search), not an equilibrium sampler,
//! and it is **opt-in**
//! ([`ParallelSweepSolver::active_sites`], on the checkerboard engine
//! only). The
//! `numeric_equivalence` suite gates its annealed solution quality
//! against the full-sweep oracle (bounded mean-energy degradation, not
//! distributional equivalence — see DESIGN §12). What it preserves
//! exactly is determinism: flips are a deterministic function of the
//! chain, so the visited-site sequence is too — bit-identical across
//! thread counts (the engine's per-site RNG streams are counter-based)
//! and across checkpoint/resume (the mask is serialized in the
//! checkpoint).
//!
//! [`ParallelSweepSolver::active_sites`]: crate::ParallelSweepSolver::active_sites

use crate::grid::Grid;

/// Dual-mask worklist driving active-site sweeps.
///
/// # Example
///
/// ```
/// use mrf::{ActiveSet, Grid};
///
/// let grid = Grid::new(3, 3);
/// let mut set = ActiveSet::all_active(grid.len());
/// assert!(set.is_active(4));
/// // One flip at the centre: next sweep visits it and its 4 neighbours.
/// set.mark_flip(&grid, 4);
/// set.advance();
/// assert_eq!(set.active_count(), 5);
/// assert!(set.is_active(4) && set.is_active(1) && set.is_active(3));
/// assert!(!set.is_active(0), "diagonal neighbour is not affected");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    current: Vec<bool>,
    next: Vec<bool>,
}

impl ActiveSet {
    /// A worklist with every site active — the correct initial state:
    /// the first sweep must visit everything.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn all_active(len: usize) -> Self {
        assert!(len > 0, "need at least one site");
        ActiveSet {
            current: vec![true; len],
            next: vec![false; len],
        }
    }

    /// Restores a worklist from a serialized mask (e.g. a checkpoint's
    /// active-site section): `mask` becomes the current sweep's visit
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty.
    pub fn from_mask(mask: Vec<bool>) -> Self {
        assert!(!mask.is_empty(), "need at least one site");
        let next = vec![false; mask.len()];
        ActiveSet {
            current: mask,
            next,
        }
    }

    /// Number of sites tracked.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the worklist tracks no sites (never true after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Whether `site` is visited in the current sweep.
    #[inline]
    pub fn is_active(&self, site: usize) -> bool {
        self.current[site]
    }

    /// Records that `site` flipped during the current sweep: the site
    /// and its lattice neighbours re-enter the worklist for the next
    /// sweep. Idempotent, so marking order never matters.
    #[inline]
    pub fn mark_flip(&mut self, grid: &Grid, site: usize) {
        self.next[site] = true;
        for n in grid.neighbors(site) {
            self.next[n] = true;
        }
    }

    /// Ends the current sweep: the accumulated next mask becomes the
    /// current one and the accumulator is cleared.
    pub fn advance(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.next.iter_mut().for_each(|b| *b = false);
    }

    /// The current sweep's visit mask, row-major (what a checkpoint
    /// serializes).
    pub fn mask(&self) -> &[bool] {
        &self.current
    }

    /// Number of sites the current sweep visits.
    pub fn active_count(&self) -> u64 {
        self.current.iter().filter(|&&b| b).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_active_visits_everything() {
        let set = ActiveSet::all_active(12);
        assert_eq!(set.len(), 12);
        assert_eq!(set.active_count(), 12);
        assert!((0..12).all(|s| set.is_active(s)));
    }

    #[test]
    fn no_flips_drains_the_worklist() {
        let mut set = ActiveSet::all_active(9);
        set.advance();
        assert_eq!(set.active_count(), 0);
    }

    #[test]
    fn flip_reactivates_site_and_neighbors_only() {
        let grid = Grid::new(4, 4);
        let mut set = ActiveSet::all_active(grid.len());
        // Flip at (1,1) = site 5: next = {5, 1, 4, 6, 9}.
        set.mark_flip(&grid, 5);
        set.advance();
        let expect: Vec<usize> = vec![1, 4, 5, 6, 9];
        for site in grid.sites() {
            assert_eq!(set.is_active(site), expect.contains(&site), "site {site}");
        }
    }

    #[test]
    fn corner_flip_clips_to_the_grid() {
        let grid = Grid::new(3, 3);
        let mut set = ActiveSet::all_active(grid.len());
        set.mark_flip(&grid, 0);
        set.advance();
        assert_eq!(set.active_count(), 3); // 0, 1, 3
        assert!(set.is_active(0) && set.is_active(1) && set.is_active(3));
    }

    #[test]
    fn marks_are_idempotent_and_accumulate_across_a_sweep() {
        let grid = Grid::new(3, 1);
        let mut set = ActiveSet::all_active(grid.len());
        set.mark_flip(&grid, 0);
        set.mark_flip(&grid, 0);
        set.mark_flip(&grid, 2);
        set.advance();
        assert_eq!(set.active_count(), 3);
    }

    #[test]
    fn from_mask_round_trips() {
        let mask = vec![true, false, true, false];
        let set = ActiveSet::from_mask(mask.clone());
        assert_eq!(set.mask(), &mask[..]);
        assert_eq!(set.active_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn rejects_empty_mask() {
        ActiveSet::from_mask(Vec::new());
    }
}
