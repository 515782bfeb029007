//! The rendezvous against the wire: a collective plan run at one
//! rendezvous must book, member by member, exactly what the same plan
//! books when each member walks its program over `Comm`'s point-to-point
//! messages (`schedule::exchange`, the native backend's way) — with every layer
//! on: event recording, a replay log, the verifier, and a fault plan
//! injecting each fault kind at every send of its culprit.
//!
//! Each case must end the same way on both paths: `Ok` with identical
//! result bits, `RankStats` and events, or `Err` with an identical
//! `SimError`, `fired_count` and culprit replay ring up to the collective
//! the fault hit. Past that collective a culprit that lives on (a drop's
//! sender, a late or corrupt message's sender) may log more on the wire,
//! where it can run into the next collective's messages, than at the
//! rendezvous, where the next collective waits for every member. And
//! when the run aborts (a timeout or a corrupt payload), the wire stops
//! the culprit wherever the scheduler's run order finds it, so its ring
//! may be cut short of the rendezvous's, which books every receive that
//! does not wait on the failed member. The replay charge, the entries
//! the culprit received before its faulted send, is the same on both.
//!
//! The one other allowed difference is a drop that the wire gets wrong:
//! when the culprit sends its victim a later message with the same tag in
//! the same collective, the victim's receive takes that message in the
//! dropped one's place. The rendezvous then names the drop itself.

use crate::collectives::ReduceOp;
use crate::comm::Comm;
use crate::cost::{presets, AllreduceAlgo, MachineSpec};
use crate::engine::{run_spmd, SimOptions, SpmdOutput};
use crate::error::SimError;
use crate::fault::{FaultAction, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use crate::replay::{ReplayEntry, ReplayLog};
use crate::schedule::{self, Buf, Collective, PlanKey, Seating};
use crate::trace::EventKind;
use crate::traits::{Communicator, SpmdComm};
use crate::verify::{CollFingerprint, VerifyOptions};

/// The world communicator with its collectives run as messages
/// ([`schedule::exchange`], the native backend's way), over `Comm`'s
/// point-to-point.
struct Wire<'a>(&'a mut Comm);

impl SpmdComm for Wire<'_> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn work(&mut self, ops: u64) {
        self.0.work(ops);
    }
    fn enter_phase(&mut self, name: &'static str) {
        self.0.enter_phase(name);
    }
    fn exit_phase(&mut self) {
        self.0.exit_phase();
    }
}

impl Collective for Wire<'_> {
    fn mismatch(&self, detail: String) -> ! {
        self.0.mismatch(detail)
    }
    fn coll_enter(&mut self, fp: CollFingerprint) -> u64 {
        self.0.coll_enter(fp)
    }
    fn check_replicated(&mut self, label: &str, buf: &[f64]) {
        self.0.check_replicated(label, buf);
    }
    fn run_plan(&mut self, key: PlanKey, tag: u64, op: ReduceOp, buf: &mut Buf<'_>) {
        let at = Seating::world(self.0.coll_seq(), self.0.rank(), tag);
        schedule::exchange(self.0, at, key, op, buf);
    }
    fn default_allreduce(&self, len: usize) -> (AllreduceAlgo, usize) {
        self.0.default_allreduce(len)
    }
}

/// The collective under test.
#[derive(Debug, Clone, Copy)]
enum Coll {
    Barrier,
    Broadcast,
    Gather,
    Allgather,
    Allreduce(AllreduceAlgo),
}

const COLLS: [Coll; 9] = [
    Coll::Barrier,
    Coll::Broadcast,
    Coll::Gather,
    Coll::Allgather,
    Coll::Allreduce(AllreduceAlgo::Linear),
    Coll::Allreduce(AllreduceAlgo::RecursiveDoubling),
    Coll::Allreduce(AllreduceAlgo::Ring),
    Coll::Allreduce(AllreduceAlgo::Rabenseifner),
    Coll::Allreduce(AllreduceAlgo::Hierarchical),
];

/// Elements per buffer: not a multiple of any P tested, so chunks are
/// ragged.
const LEN: usize = 7;

/// The rank whose sends the faults hit.
const CULPRIT: usize = 1;

/// Run `coll` on `c`, returning the bits it leaves in the caller's hands.
fn run<C: SpmdComm>(c: &mut C, coll: Coll, node_size: usize, salt: usize) -> Vec<u64> {
    let (me, p) = (c.rank(), c.size());
    let mine: Vec<f64> = (0..LEN).map(|i| 0.5 + ((me * 31 + i * 7 + salt) % 17) as f64).collect();
    let out = match coll {
        Coll::Barrier => {
            schedule::barrier(c);
            Vec::new()
        }
        Coll::Broadcast => {
            let mut buf = mine;
            schedule::broadcast(c, p - 1, &mut buf);
            buf
        }
        Coll::Gather => schedule::gather(c, p / 2, &mine[..1 + me % 3]).unwrap_or_default(),
        Coll::Allgather => schedule::allgather(c, &mine[..1 + me % 2]).concat(),
        Coll::Allreduce(algo) => {
            let mut buf = mine;
            schedule::allreduce(c, &mut buf, ReduceOp::Sum, algo, node_size);
            buf
        }
    };
    out.iter().map(|x| x.to_bits()).collect()
}

/// Two rounds of rank-dependent compute and `coll`, the second inside a
/// phase span; on the wire or at the rendezvous.
fn program(c: &mut Comm, coll: Coll, wire: bool) -> Vec<u64> {
    let node_size = c.machine().topology.node_size();
    let me = c.rank() as u64;
    let mut out = Vec::new();
    for round in 0..2 {
        c.work(100 + 37 * (me % 5) + 11 * round as u64);
        if round == 1 {
            c.enter_phase("second");
        }
        out.extend(if wire {
            run(&mut Wire(c), coll, node_size, round)
        } else {
            run(c, coll, node_size, round)
        });
        c.exit_phase();
    }
    out
}

/// Every layer on: events, the verifier, a replay log large enough never
/// to evict, and `fault` when given.
fn options(fault: Option<FaultPlan>) -> (SimOptions, ReplayLog) {
    let log = ReplayLog::new(1 << 12);
    let opts = SimOptions {
        record_events: true,
        verify: VerifyOptions::all(),
        fault,
        replay: Some(log.clone()),
        ..SimOptions::default()
    };
    (opts, log)
}

type Run = (Result<SpmdOutput<Vec<u64>>, SimError>, usize, ReplayLog);

fn run_case(spec: &MachineSpec, coll: Coll, wire: bool, fault: Option<&FaultSpec>) -> Run {
    let plan = fault.map(|f| match f.action {
        FaultAction::Delay { secs, .. } if secs > 1.0 => {
            FaultPlan::new(vec![*f]).with_virtual_timeout(1.0)
        }
        _ => FaultPlan::new(vec![*f]),
    });
    let (opts, log) = options(plan.clone());
    let res = run_spmd(spec, &opts, |c| program(c, coll, wire));
    (res, plan.map_or(0, |p| p.fired_count()), log)
}

/// Compare one case's two runs for a fault on a message tagged `tag`;
/// `shifts` marks a drop the wire gets wrong.
fn compare(what: &str, wire: Run, meet: Run, tag: u64, shifts: bool) {
    match (wire.0, meet.0) {
        (Ok(w), Ok(m)) => {
            assert!(!shifts, "{what}: a shifting drop completed");
            assert_eq!(w.per_rank, m.per_rank, "{what}: results");
            assert_eq!(w.ranks, m.ranks, "{what}: rank stats");
            assert_eq!(w.events, m.events, "{what}: events");
        }
        (Err(we), Err(me)) if !shifts => {
            assert_eq!(we, me, "{what}: errors");
            assert_eq!(wire.1, meet.1, "{what}: fired faults");
            let (culprit, sent) =
                me.fault_origin().unwrap_or_else(|| panic!("{what}: untyped {me:?}"));
            let upto = |log: &ReplayLog| -> Vec<ReplayEntry> {
                log.snapshot(culprit).into_iter().filter(|e| e.tag <= tag).collect()
            };
            let (w, m) = (upto(&wire.2), upto(&meet.2));
            if matches!(me, SimError::Timeout { .. } | SimError::PayloadCorrupt { .. }) {
                assert!(m.starts_with(&w), "{what}: ring {w:?} is not a prefix of {m:?}");
            } else {
                assert_eq!(w, m, "{what}: ring");
            }
            assert_eq!(wire.2.evicted(culprit), 0, "{what}: the ring evicted");
            // What a replay charges is fixed by the culprit's program.
            let charge = |log: &ReplayLog| log.len_within(culprit, sent);
            assert_eq!(charge(&wire.2), charge(&meet.2), "{what}: replay charge");
        }
        (_, Err(SimError::PeerFailed { peer, kind: FaultKind::Drop, .. })) if shifts => {
            assert_eq!(peer, CULPRIT, "{what}");
        }
        (w, m) => panic!("{what}: wire {:?} != rendezvous {:?}", w.err(), m.err()),
    }
}

/// Rank 1's first allgather send at P = 3 leaves 10 s late against a 1 s
/// timeout. The abort reaches the live culprit where the run order puts
/// it, so its ring differs between the wire and the rendezvous; its
/// replay charge does not, and a rerun repeats it.
#[test]
fn a_live_culprits_replay_charge_is_fixed_by_its_program() {
    let spec = presets::meiko_cs2(3);
    let clean = run_case(&spec, Coll::Allgather, false, None).0;
    let events = &clean.unwrap_or_else(|e| panic!("{e}")).events[CULPRIT];
    let dst = events.iter().find(|e| e.kind == EventKind::Send).map_or(0, |e| e.peer);
    let action = FaultAction::Delay { dst, secs: 10.0 };
    let late = FaultSpec { rank: CULPRIT, action, trigger: FaultTrigger::AtSendSeq(1) };
    let charge = |wire| {
        let (res, _, log) = run_case(&spec, Coll::Allgather, wire, Some(&late));
        let timeout = res.err().filter(|e| matches!(e, SimError::Timeout { .. }));
        let (culprit, sent) = timeout.and_then(|e| e.fault_origin()).expect("a timeout");
        (log.snapshot(culprit).len(), log.len_within(culprit, sent))
    };
    let (wire, meet) = (charge(true), charge(false));
    assert_ne!(wire.0, meet.0, "the rings no longer differ: the case tests nothing");
    assert_eq!(wire.1, meet.1, "replay charge");
    assert_eq!((charge(true), charge(false)), (wire, meet), "rerun");
}

#[test]
fn the_rendezvous_books_what_the_wire_books_under_every_fault() {
    let machines: Vec<MachineSpec> = [2, 3, 5]
        .map(presets::meiko_cs2)
        .into_iter()
        .chain([presets::hier_cluster(8, 4)])
        .collect();
    for spec in &machines {
        for coll in COLLS {
            let what = format!("{coll:?} at P={}", spec.p);
            // Fault-free, every layer on: both paths complete alike.
            let clean = run_case(spec, coll, true, None);
            let sends: Vec<(usize, u64)> = {
                let out = clean.0.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
                let culprit = &out.events[CULPRIT];
                culprit
                    .iter()
                    .filter(|e| e.kind == EventKind::Send)
                    .map(|e| (e.peer, e.tag))
                    .collect()
            };
            compare(&what, clean, run_case(spec, coll, false, None), u64::MAX, false);
            // Every fault at every send of the culprit; a crash also just
            // past its last send.
            for (k, &(dst, tag)) in sends.iter().enumerate() {
                let seq = k as u64 + 1;
                let shifts = sends[k + 1..].contains(&(dst, tag));
                let actions = [
                    (FaultAction::Crash, false),
                    (FaultAction::Drop { dst }, shifts),
                    (FaultAction::Delay { dst, secs: 1e-3 }, false),
                    (FaultAction::Delay { dst, secs: 10.0 }, false),
                    (FaultAction::Corrupt { dst, byte: 3 + k, mask: 0x10 }, false),
                    (FaultAction::DegradeLink { dst, factor: 50.0 }, false),
                ];
                for (action, shifts) in actions {
                    let f =
                        FaultSpec { rank: CULPRIT, action, trigger: FaultTrigger::AtSendSeq(seq) };
                    let what = format!("{what}, {action:?} at send {seq}");
                    let wire = run_case(spec, coll, true, Some(&f));
                    compare(&what, wire, run_case(spec, coll, false, Some(&f)), tag, shifts);
                }
            }
            let seq = sends.len() as u64 + 1;
            let f = FaultSpec {
                rank: CULPRIT,
                action: FaultAction::Crash,
                trigger: FaultTrigger::AtSendSeq(seq),
            };
            let what = format!("{what}, crash at send {seq}");
            let wire = run_case(spec, coll, true, Some(&f));
            compare(&what, wire, run_case(spec, coll, false, Some(&f)), u64::MAX, false);
        }
    }
}
