//! Cross-commit golden pin for the E/M kernels: one FNV-1a hash over the
//! exact bits of the fused E+M kernel's outputs on a mixed schema, plus
//! the scores of a small parallel search. Any change to the kernels'
//! floating-point arithmetic (a reordered chain, a contracted multiply-add,
//! a different `exp`) moves the hash; a pure performance change must not.
//!
//! The hash was recorded before the kernels were compiled per x86 ISA
//! level and is expected to hold on every instance (baseline, AVX2,
//! AVX-512), in debug and release builds alike.

use autoclass::data::{Attribute, GlobalStats, Schema, Value};
use autoclass::model::{
    init_classes, update_wts_and_stats_into, EStepScratch, StatLayout, SuffStats, WtsMatrix,
    ESTEP_TILE,
};
use autoclass::search::SearchConfig;
use autoclass::{Dataset, Model};
use mpsim::SimOptions;
use pautoclass::{run_search_with, ParallelConfig};

const GOLDEN: u64 = 0xbb29_c6ce_bbbd_af1b;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Every term family the kernels special-case: Normal with missing
/// values, LogNormal, Multinomial without and with a missing level (both
/// with missing values), and a 2-D MultiNormal block with a missing
/// component. `2 · ESTEP_TILE + 37` items, so the last tile is ragged.
fn mixed() -> (Dataset, Model) {
    let schema = Schema::new(vec![
        Attribute::real("x", 0.01),
        Attribute::positive_real("y", 0.01),
        Attribute::discrete("c", 3),
        Attribute::discrete("d", 4),
        Attribute::real("u", 0.01),
        Attribute::real("v", 0.01),
    ]);
    let n = 2 * ESTEP_TILE + 37;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let s = (i as f64 * 0.37).sin();
            let side = if i % 3 == 0 { -3.0 } else { 2.0 };
            let x = if i % 7 == 3 { Value::Missing } else { Value::Real(side + s) };
            let y = Value::Real((0.5 * side + 0.3 * s).exp());
            let c = if i % 11 == 5 { Value::Missing } else { Value::Discrete((i % 3) as u32) };
            let d = if i % 5 == 1 { Value::Missing } else { Value::Discrete((i * 7 % 4) as u32) };
            let u = Value::Real(side + 0.8 * s);
            let v = if i % 13 == 4 { Value::Missing } else { Value::Real(-side + 0.6 * s) };
            vec![x, y, c, d, u, v]
        })
        .collect();
    let data = Dataset::from_rows(schema.clone(), &rows);
    let stats = GlobalStats::compute(&data.full_view());
    let model = Model::with_correlated(schema, &stats, &[vec![4, 5]]).with_missing_levels(&[3]);
    (data, model)
}

fn kernel_outputs(h: &mut Fnv) {
    let (data, model) = mixed();
    let view = data.full_view();
    for j in [1usize, 3, 5, 8] {
        let classes = init_classes(&model, &view, j, 7 + j as u64);
        let mut wts = WtsMatrix::new(0, 0);
        let mut scratch = EStepScratch::default();
        let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
        let mut carry = Vec::new();
        let (e, stat_ops) = update_wts_and_stats_into(
            &model,
            &view,
            &classes,
            &mut wts,
            &mut scratch,
            &mut stats,
            &mut carry,
        );
        h.f64(e.log_likelihood);
        h.f64(e.complete_ll);
        h.word(e.ops);
        h.word(stat_ops);
        scratch.class_weight_sums.iter().for_each(|&w| h.f64(w));
        (0..j).flat_map(|c| wts.class_column(c)).for_each(|&w| h.f64(w));
        stats.data.iter().for_each(|&s| h.f64(s));
    }
}

fn search_scores(h: &mut Fnv) {
    let data = datagen::paper_dataset(2_000, 1);
    let config =
        ParallelConfig { search: SearchConfig::quick(vec![2, 4, 8], 1), ..Default::default() };
    let out =
        run_search_with(&data, &mpsim::presets::zero_cost(4), &config, &SimOptions::default())
            .expect("search runs");
    h.word(out.cycles as u64);
    for c in &out.all {
        h.f64(c.approx.log_likelihood);
        h.f64(c.approx.cs_score);
    }
}

#[test]
fn kernel_bits_match_the_golden_hash() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    kernel_outputs(&mut h);
    search_scores(&mut h);
    assert_eq!(h.0, GOLDEN, "kernel output bits moved: got {:#018x}", h.0);
}
