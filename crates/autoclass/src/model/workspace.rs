//! `CycleWorkspace`: every reusable buffer one EM cycle needs, bundled so
//! a whole `BIG_LOOP` search (and the parallel driver's rank bodies) can
//! run `base_cycle` with zero per-cycle heap allocation once warm.
//!
//! Lifecycle: create one workspace per search (or per rank), call
//! [`CycleWorkspace::reset_stats`] at the top of each cycle, and thread the
//! pieces through `update_wts_into` / `SuffStats::accumulate` (or the
//! one-pass `estep_and_stats_into`) / `stats_to_classes_into`. Buffers
//! only ever grow (to the high-water mark of the shapes seen), so
//! steady-state cycles touch no allocator — a property asserted by the
//! counting-allocator test in `tests/alloc_free.rs`.

use crate::model::class::Model;
use crate::model::estep::{EStepScratch, WtsMatrix};
use crate::model::suffstats::{StatLayout, SuffStats};

/// Reusable buffers for one EM cycle (E-step, statistics, M-step, plus a
/// flat scratch for parameter serialization in the parallel driver).
#[derive(Debug, Clone, Default)]
pub struct CycleWorkspace {
    /// The item × class weight matrix, reused across cycles, for the
    /// cycles that keep every weight: the sequential `base_cycle` and the
    /// parallel WtsOnly strategy. The parallel Full cycles never shape it;
    /// their weights live one tile at a time in `estep`.
    pub wts: WtsMatrix,
    /// E-step scratch (class weight sums, the one-tile weight buffer of
    /// `estep_and_stats_into`, per-item tile buffers, MVN gathers), live
    /// only inside one kernel call. The parallel driver lends it through
    /// `mpsim::SpmdComm::with_scratch`, so on the simulator every rank
    /// borrows one host value and this one stays empty.
    pub estep: EStepScratch,
    /// This partition's class weight sums w_j, copied out of the E-step
    /// scratch before its lend ends; the parallel cycle allreduces them
    /// in place.
    pub class_weight_sums: Vec<f64>,
    /// Sufficient statistics, rebuilt only when the model shape changes.
    /// `None` until the first [`reset_stats`](CycleWorkspace::reset_stats).
    pub stats: Option<SuffStats>,
    /// Flat parameter scratch (`classes_to_flat`-style serialization in
    /// the parallel driver's WtsOnly gather and broadcast).
    pub flat: Vec<f64>,
}

impl CycleWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        CycleWorkspace::default()
    }

    /// Prepare the statistics buffer for a cycle with `j` classes:
    /// zero-fill in place when the existing layout still matches the model
    /// shape, rebuild (allocating) only after a shape change such as class
    /// death or a new search trial.
    pub fn reset_stats(&mut self, model: &Model, j: usize) {
        let reusable = self.stats.as_ref().is_some_and(|s| {
            s.layout.j == j
                && s.layout.attr_blocks.len() == model.groups.len()
                && s.layout
                    .attr_blocks
                    .iter()
                    .zip(&model.groups)
                    .all(|(&(_, len), g)| len == g.prior.stat_len())
        });
        if reusable {
            if let Some(s) = self.stats.as_mut() {
                s.data.fill(0.0);
            }
        } else {
            self.stats = Some(SuffStats::zeros(StatLayout::new(model, j)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::dataset::{Dataset, Value};
    use crate::data::schema::{Attribute, Schema};
    use crate::data::stats::GlobalStats;

    fn tiny_model() -> Model {
        let schema = Schema::new(vec![Attribute::real("x", 0.01)]);
        let data =
            Dataset::from_rows(schema.clone(), &[vec![Value::Real(0.0)], vec![Value::Real(1.0)]]);
        let stats = GlobalStats::compute(&data.full_view());
        Model::new(schema, &stats)
    }

    #[test]
    fn reset_stats_reuses_matching_layout() {
        let model = tiny_model();
        let mut ws = CycleWorkspace::new();
        ws.reset_stats(&model, 3);
        let ptr = ws.stats.as_ref().map(|s| s.data.as_ptr());
        if let Some(s) = ws.stats.as_mut() {
            s.data.iter_mut().for_each(|v| *v = 7.0);
        }
        ws.reset_stats(&model, 3);
        let s = ws.stats.as_ref().expect("stats installed");
        assert_eq!(ptr, Some(s.data.as_ptr()), "matching layout must reuse the buffer");
        assert!(s.data.iter().all(|&v| v.abs() < 1e-300), "buffer must be zeroed");
        // Different class count: rebuilt.
        ws.reset_stats(&model, 2);
        assert_eq!(ws.stats.as_ref().map(|s| s.layout.j), Some(2));
    }
}
