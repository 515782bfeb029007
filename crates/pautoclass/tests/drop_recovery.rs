//! A message dropped inside a collective is recovered like any other
//! fault: the run names the sender as a failed peer, and a restart from
//! the last checkpoint reproduces the fault-free search bit for bit,
//! wherever in the search the drop lands.

use autoclass::model::classes_to_flat;
use autoclass::search::SearchConfig;
use mpsim::{
    presets, AllreduceAlgo, FaultAction, FaultKind, FaultPlan, FaultSpec, FaultTrigger, SimError,
    SimOptions,
};
use pautoclass::{
    run_search_ft, Exchange, FtConfig, ParallelConfig, ParallelOutcome, RecoveryPolicy, Strategy,
};

fn result_bits(o: &ParallelOutcome) -> (u64, Vec<u64>) {
    let flat = classes_to_flat(&o.best.classes);
    (o.best.score().to_bits(), flat.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn a_drop_inside_a_ring_allreduce_is_recovered_bit_identically() {
    let data = datagen::paper_dataset(240, 7);
    let mut machine = presets::meiko_cs2(4);
    machine.allreduce = AllreduceAlgo::Ring;
    let cfg = ParallelConfig {
        search: SearchConfig::quick(vec![3], 11),
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let ftc = FtConfig {
        checkpoint_every: 4,
        policy: RecoveryPolicy::RestartFromCheckpoint,
        max_restarts: 1,
        ..FtConfig::default()
    };
    let baseline = run_search_ft(&data, &machine, &cfg, &ftc, &SimOptions::default()).unwrap();
    // Rank 1 sends to rank 2 once per ring round, every message of one
    // allreduce with the same tag.
    for seq in [1, 5, 20, 40, 80] {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            action: FaultAction::Drop { dst: 2 },
            trigger: FaultTrigger::AtSendSeq(seq),
        }]);
        let opts = SimOptions { fault: Some(plan), ..SimOptions::default() };
        let out = run_search_ft(&data, &machine, &cfg, &ftc, &opts)
            .unwrap_or_else(|e| panic!("drop at send {seq}: not recovered: {e}"));
        assert_eq!(out.attempts, 2, "drop at send {seq}");
        assert!(
            matches!(out.faults[..], [SimError::PeerFailed { peer: 1, kind: FaultKind::Drop, .. }]),
            "drop at send {seq}: {:?}",
            out.faults
        );
        assert_eq!(result_bits(&out.outcome), result_bits(&baseline.outcome), "drop at send {seq}");
        assert_eq!(out.outcome.cycles, baseline.outcome.cycles, "drop at send {seq}");
    }
}
