//! A malformed `Partitioning` is one typed error from every entry point,
//! on both backends, before any rank starts — never a panic on every
//! rank. The fleet entry points, which block-partition each fleet
//! themselves, reject any partitioning but `Block` the same way.

use autoclass::search::SearchConfig;
use mpsim::{presets, SimOptions};
use pautoclass::{
    run_fixed_j, run_search_fleet_ft, run_search_fleet_native, run_search_fleet_with,
    run_search_ft, run_search_ft_native, run_search_native, run_search_with, FleetConfig, FtConfig,
    NativeOptions, ParallelConfig, PartitionError, Partitioning, RunError,
};

const P: usize = 4;

fn config(partition: Partitioning) -> ParallelConfig {
    ParallelConfig {
        search: SearchConfig::quick(vec![2], 3),
        partition,
        ..ParallelConfig::default()
    }
}

/// Every search entry point on both backends, run on `partition` at P = 4.
fn run_all(partition: Partitioning) -> Vec<(&'static str, RunError)> {
    let data = datagen::paper_dataset(200, 1);
    let machine = presets::meiko_cs2(P);
    let cfg = config(partition);
    let ft = FtConfig::default();
    let (sim, native) = (SimOptions::default(), NativeOptions::default());
    let results = [
        ("run_search_with", run_search_with(&data, &machine, &cfg, &sim).err()),
        ("run_search_native", run_search_native(&data, &machine, &cfg, &native).err()),
        ("run_fixed_j", run_fixed_j(&data, &machine, 2, 1, 7, &cfg).err()),
        ("run_search_ft", run_search_ft(&data, &machine, &cfg, &ft, &sim).err()),
        ("run_search_ft_native", run_search_ft_native(&data, &machine, &cfg, &ft, &native).err()),
    ];
    results
        .into_iter()
        .map(|(name, err)| {
            (name, err.unwrap_or_else(|| panic!("{name} accepted the partitioning")))
        })
        .collect()
}

fn assert_all_reject(partition: Partitioning, want: impl Fn(&PartitionError) -> bool) {
    for (name, err) in run_all(partition) {
        match &err {
            RunError::Partition(e) if want(e) => {
                assert!(err.to_string().contains("invalid data partitioning"), "{name}: {err}");
            }
            other => panic!("{name}: expected the partition error, got {other:?}"),
        }
    }
}

#[test]
fn too_few_weights_name_the_count_against_p() {
    let want = PartitionError::WeightCount { weights: 2, p: P };
    assert!(want.to_string().contains("2 partition weight(s) for 4 ranks"), "{want}");
    assert_all_reject(Partitioning::Weighted(vec![1.0, 1.0]), |e| *e == want);
}

#[test]
fn negative_weight_names_its_rank() {
    let weights = vec![1.0, 1.0, -0.5, 1.0];
    let want = PartitionError::BadWeight { rank: 2, weight: -0.5 };
    assert!(want.to_string().contains("weight -0.5 of rank 2"), "{want}");
    assert_all_reject(Partitioning::Weighted(weights), |e| *e == want);
}

#[test]
fn nan_and_infinite_weights_name_their_rank() {
    assert_all_reject(
        Partitioning::Weighted(vec![1.0, f64::NAN, 1.0, 1.0]),
        |e| matches!(e, PartitionError::BadWeight { rank: 1, weight } if weight.is_nan()),
    );
    let want = PartitionError::BadWeight { rank: 3, weight: f64::INFINITY };
    assert_all_reject(Partitioning::Weighted(vec![1.0, 1.0, 1.0, f64::INFINITY]), |e| *e == want);
}

#[test]
fn all_zero_weights_are_rejected() {
    assert_all_reject(Partitioning::Weighted(vec![0.0; P]), |e| {
        *e == PartitionError::NoPositiveWeight
    });
}

#[test]
fn valid_weights_pass_validation() {
    assert_eq!(Partitioning::Block.validate(P), Ok(()));
    assert_eq!(Partitioning::Weighted(vec![0.5, 1.0, 0.0, 2.0]).validate(P), Ok(()));
}

#[test]
fn fleet_entry_points_reject_weighted_partitioning() {
    let data = datagen::paper_dataset(200, 1);
    let machine = presets::meiko_cs2(P);
    // A well-formed weighted partitioning: only the fleet cannot honour it.
    let cfg = config(Partitioning::Weighted(vec![1.0, 2.0, 1.0, 2.0]));
    let fc = FleetConfig { groups: 2, ..FleetConfig::default() };
    let (sim, native) = (SimOptions::default(), NativeOptions::default());
    let results = [
        ("run_search_fleet_with", run_search_fleet_with(&data, &machine, &cfg, &fc, &sim).err()),
        (
            "run_search_fleet_native",
            run_search_fleet_native(&data, &machine, &cfg, &fc, &native).err(),
        ),
        (
            "run_search_fleet_ft",
            run_search_fleet_ft(&data, &machine, &cfg, &fc, &FtConfig::default(), &sim).err(),
        ),
    ];
    for (name, err) in results {
        assert_eq!(err, Some(RunError::Partition(PartitionError::BlockOnly)), "{name}");
    }
    // The same fleet search on Block partitioning runs.
    let block = config(Partitioning::Block);
    assert!(run_search_fleet_with(&data, &machine, &block, &fc, &sim).is_ok());
}
