//! Cross-crate end-to-end tests: the full user workflow from data on disk
//! through parallel clustering to reports and prediction.

use autoclass::data::{read_csv, write_csv, GlobalStats, Value};
use autoclass::predict::{classify, posterior};
use autoclass::report::report;
use autoclass::search::{search, SearchConfig};
use autoclass::Model;
use mpsim::SpmdComm;
use pautoclass::{run_search, ParallelConfig};

#[test]
fn csv_to_clusters_to_report() {
    // Generate → write CSV → read back → cluster → report → predict.
    let (data, _) = datagen::GaussianMixture::well_separated(2, 2, 14.0).generate(800, 3);
    let mut buf = Vec::new();
    write_csv(&data, &mut buf).unwrap();
    let data2 = read_csv(data.schema().clone(), buf.as_slice()).unwrap();
    assert_eq!(data2.len(), data.len());

    let result = search(&data2.full_view(), &SearchConfig::quick(vec![1, 2, 4], 5));
    assert_eq!(result.best.n_classes(), 2);

    let stats = GlobalStats::compute(&data2.full_view());
    let model = Model::new(data2.schema().clone(), &stats);
    let rep = report(&model, &stats, &result.best);
    assert_eq!(rep.classes.len(), 2);
    assert!(rep.to_string().contains("CLASS 1"));

    // Predict a point near the first planted center (at separation 14 on
    // the circle, component 0 sits at (14, 0)).
    let (cls_a, pa) =
        classify(&model, &result.best.classes, &[Value::Real(14.0), Value::Real(0.0)]);
    let (cls_b, pb) =
        classify(&model, &result.best.classes, &[Value::Real(-14.0), Value::Real(0.0)]);
    assert_ne!(cls_a, cls_b);
    assert!(pa > 0.99 && pb > 0.99);
}

#[test]
fn parallel_pipeline_with_missing_data() {
    // The whole parallel pipeline must tolerate missing values.
    let (data, _) = datagen::GaussianMixture::well_separated(3, 2, 15.0).generate(1_500, 9);
    let data = datagen::inject_missing(&data, 0.1, 2);
    let config = ParallelConfig {
        search: SearchConfig::quick(vec![2, 3, 4], 17),
        ..ParallelConfig::default()
    };
    let out = run_search(&data, &mpsim::presets::meiko_cs2(7), &config).unwrap();
    assert_eq!(out.best.n_classes(), 3, "3 planted clusters despite 10% missing");
    // Posterior for an all-missing row must be the mixture proportions.
    let stats = GlobalStats::compute(&data.full_view());
    let model = Model::new(data.schema().clone(), &stats);
    let p = posterior(&model, &out.best.classes, &[Value::Missing, Value::Missing]);
    let pi_sum: f64 = out.best.classes.iter().map(|c| c.pi).sum();
    for (post, class) in p.iter().zip(&out.best.classes) {
        assert!((post - class.pi / pi_sum).abs() < 1e-9);
    }
}

#[test]
fn membership_probabilities_reflect_separation() {
    // Paper §2: well-separated classes → memberships near 0.99;
    // overlapping classes → memberships near 0.5.
    let far = datagen::GaussianMixture::well_separated(2, 1, 20.0);
    let (far_data, _) = far.generate(600, 4);
    // Several tries: a single random start can land both seeds in one
    // blob and converge to the symmetric saddle — the multiple-restart
    // search is AutoClass's own answer to that.
    let config = SearchConfig { tries_per_j: 4, ..SearchConfig::quick(vec![2], 7) };
    let result = search(&far_data.full_view(), &config);
    let stats = GlobalStats::compute(&far_data.full_view());
    let model = Model::new(far_data.schema().clone(), &stats);
    let view = far_data.full_view();
    let mut confident = 0;
    for i in 0..far_data.len() {
        let p = posterior(&model, &result.best.classes, &[Value::Real(view.real_column(0)[i])]);
        if p.iter().any(|&x| x > 0.99) {
            confident += 1;
        }
    }
    assert!(confident as f64 > 0.95 * far_data.len() as f64);

    // Heavily overlapping: two components at ±0.5 with sigma 1.
    let mut overlap = datagen::GaussianMixture::well_separated(2, 1, 0.5);
    overlap.components[0].sigma = 1.0;
    overlap.components[1].sigma = 1.0;
    let (ov_data, _) = overlap.generate(600, 4);
    let result = search(&ov_data.full_view(), &SearchConfig::quick(vec![2], 7));
    if result.best.n_classes() == 2 {
        let stats = GlobalStats::compute(&ov_data.full_view());
        let model = Model::new(ov_data.schema().clone(), &stats);
        let p = posterior(&model, &result.best.classes, &[Value::Real(0.0)]);
        // A point between overlapping classes cannot be confidently
        // assigned.
        assert!(p.iter().all(|&x| x < 0.95), "{p:?}");
    }
}

#[test]
fn rank_failure_is_reported_not_hung() {
    // Failure injection through the whole stack: a panicking rank inside
    // a P-AutoClass-shaped SPMD body must surface as an error.
    let spec = mpsim::presets::zero_cost(4);
    let r = mpsim::run_spmd_default(&spec, |comm| {
        if comm.rank() == 2 {
            panic!("injected fault");
        }
        let mut buf = vec![1.0; 8];
        comm.allreduce_f64s(&mut buf, mpsim::ReduceOp::Sum);
    });
    match r {
        Err(mpsim::SimError::RankPanicked { rank, message }) => {
            assert_eq!(rank, 2);
            assert!(message.contains("injected fault"));
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
}

#[test]
fn kmeans_and_autoclass_agree_on_separated_blobs() {
    // Baseline sanity: on trivially separable data, both algorithms find
    // the same structure.
    let (data, labels) = datagen::GaussianMixture::well_separated(4, 2, 25.0).generate(2_000, 6);
    let ac = search(&data.full_view(), &SearchConfig::quick(vec![4], 3));
    assert_eq!(ac.best.n_classes(), 4);

    let (km, assign) = kmeans::kmeans_seq(
        &data.full_view(),
        &kmeans::KMeansConfig { k: 4, seed: 3, ..Default::default() },
    );
    assert!(km.converged);
    // Each k-means cluster should be dominated by one planted label.
    for c in 0..4 {
        let members: Vec<usize> =
            assign.iter().enumerate().filter(|&(_, &a)| a == c).map(|(i, _)| labels[i]).collect();
        if members.is_empty() {
            continue;
        }
        let mut counts = [0usize; 4];
        for &l in &members {
            counts[l] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max as f64 > 0.95 * members.len() as f64);
    }
}

#[test]
fn lognormal_attributes_cluster_end_to_end() {
    // PositiveReal attributes flow through the LogNormal term: priors on
    // the ln scale, Jacobian in the density, same Allreduce machinery.
    let lm = datagen::LogNormalMixture {
        medians: vec![vec![1.0, 50.0], vec![200.0, 2.0]],
        ln_sigma: 0.25,
        error: 0.05,
    };
    let (data, truth) = lm.generate(1_200, 31);
    let config =
        ParallelConfig { search: SearchConfig::quick(vec![2, 4], 9), ..ParallelConfig::default() };
    let out = run_search(&data, &mpsim::presets::meiko_cs2(5), &config).unwrap();
    assert_eq!(out.best.n_classes(), 2, "two planted log-normal components");

    // Posterior assignment should track the planted labels (up to class
    // relabeling).
    let stats = GlobalStats::compute(&data.full_view());
    let model = Model::new(data.schema().clone(), &stats);
    let view = data.full_view();
    let mut agree = [[0usize; 2]; 2];
    for i in 0..data.len() {
        let row = vec![Value::Real(view.real_column(0)[i]), Value::Real(view.real_column(1)[i])];
        let (cls, _) = classify(&model, &out.best.classes, &row);
        agree[cls.min(1)][truth[i]] += 1;
    }
    let diag = agree[0][0] + agree[1][1];
    let anti = agree[0][1] + agree[1][0];
    let best = diag.max(anti);
    assert!(best as f64 > 0.97 * data.len() as f64, "agreement {best}/{}", data.len());
}
