//! Fleet-parallel model search: the second parallelism axis.
//!
//! The ordinary search ([`crate::run_search`]) parallelizes *within* one
//! candidate model — all P ranks cooperate on one EM run at a time. This
//! module adds parallelism *across* candidates: the machine is split into
//! G sub-fleets (contiguous rank blocks over disjoint sub-communicators),
//! each running an independent sub-search that draws candidates (J values
//! × restart tries) from the shared schedule.
//!
//! The search proceeds in BSP rounds. Each round a fleet runs up to
//! [`FleetConfig::round_cycles`] EM cycles of its current candidate on its
//! own sub-communicator (`"fleet"` phase), then the fleets swap per-fleet
//! report slots (`"dedup"` phase): one allreduce among the G fleet leaders,
//! then a broadcast from each leader down its fleet. Because only the
//! owning leader writes a slot and every other contribution is `+0.0` — a
//! bitwise identity for IEEE doubles away from `-0.0` — the exchange is
//! bit-exact transport regardless of the allreduce algorithm. Every rank
//! computes every rank's fleet from the rank blocks and passes that color
//! table to [`Group::split`], so forming the fleet and leader
//! sub-communicators moves no message: the control plane's cost grows
//! with G and the fleet size, never with P, and a single fleet (G = 1)
//! exchanges nothing at all. The replicated reports drive three decisions
//! every rank makes identically, with no further coordination:
//!
//! * **Duplicate elimination** — a fleet whose running candidate matches
//!   the convergence fingerprint (class count, log likelihood, heaviest
//!   weights) of an earlier-scheduled finished candidate abandons it
//!   mid-flight instead of burning cycles converging into the same basin.
//! * **Work stealing** — a fleet whose queue runs dry takes the tail
//!   candidate of the largest remaining queue, so an unlucky fleet of
//!   slow-converging candidates doesn't serialize the search.
//! * **Termination** — the round loop ends when every candidate is done.
//!
//! The final `"consensus"` stage gathers each fleet's completed
//! candidates from the fleet leaders to the first leader, replays the
//! *serial* duplicate-elimination chain in schedule order, score-sorts,
//! and broadcasts the surviving list back, so every rank returns the
//! identical result (a single fleet's list is already on every rank, so
//! each rank replays it locally). Given the same candidate set (duplicate
//! abandonment disabled) the selected model is **bit-identical** to the
//! serial search's on a machine of one fleet's size — see the equivalence
//! tests below.
//! [`Consensus::Ensemble`] additionally has the top models vote out a
//! consensus labeling with an agreement score.
//!
//! Fault tolerance ([`run_search_fleet_ft`]) is the world's supervisor
//! (`crate::recover`) running this search, with the round-boundary
//! `FleetCheckpoint` as its image.

use std::collections::VecDeque;

use autoclass::data::{block_partition, block_range, Dataset};
use autoclass::model::{
    classes_from_flat_into, classes_to_flat, derive_seed, update_wts_into, Approximation,
    ClassParams, CycleWorkspace, EStepScratch, Model, WtsMatrix,
};
use autoclass::search::Classification;
use mpsim::{
    run_spmd, CommError, Communicator, Group, MachineSpec, RankStats, ReduceOp, RunStats,
    SimOptions, SpmdComm, RECOVERY_PHASE,
};
use shmcomm::{run_native, NativeOptions};

use crate::checkpoint::{frame, put_f64, put_f64s, put_u64, unframe, CheckpointError};
use crate::config::{
    Consensus, FleetConfig, FtConfig, ParallelConfig, Partitioning, RecoveryPolicy,
};
use crate::driver::{blocking_cycle, build_model};
use crate::error::{PartitionError, RunError};
use crate::recover::{supervise_sim, FtOutcome, Supervised};
use crate::run::{
    best_first, keep_unique, CheckpointStore, ParallelOutcome, Try, WorldSearch, FUSED,
};

/// Counters of the fleet scheduler, identical on every rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Number of fleets the search actually ran with (after clamping).
    pub groups: usize,
    /// BSP rounds executed.
    pub rounds: usize,
    /// Candidates completed (converged, cycle-capped, or abandoned).
    pub candidates: usize,
    /// Candidates abandoned mid-flight as cross-fleet duplicates.
    pub dedup_hits: usize,
    /// EM cycles the abandoned candidates would still have been entitled
    /// to (`max_cycles − cycles run`): an upper bound on the work saved.
    pub dedup_saved_cycles: usize,
    /// Queued candidates stolen by an idle fleet.
    pub steals: usize,
    /// The ensemble summary, when [`Consensus::Ensemble`] was configured
    /// and at least two models were retained.
    pub ensemble: Option<EnsembleSummary>,
}

/// Result of the ensemble consensus vote.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSummary {
    /// Models that voted (the configured count clamped to the retained
    /// list).
    pub voters: usize,
    /// Mean fraction of voters agreeing with the per-item majority label,
    /// in `[1/voters, 1.0]`.
    pub agreement: f64,
    /// FNV-1a hash of the consensus labeling (items in dataset order) —
    /// a compact cross-backend comparison handle.
    pub label_hash: u64,
}

/// Result of a fleet-parallel search.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The search result, shaped exactly like the serial search's.
    pub outcome: ParallelOutcome,
    /// The fleet scheduler's counters.
    pub fleet: FleetStats,
}

/// Result of a fault-tolerant fleet search: [`FleetOutcome`] plus the
/// supervisor's recovery record.
pub type FleetFtOutcome = FtOutcome<FleetOutcome>;

/// Convergence fingerprint of a completed candidate, broadcast to every
/// fleet through the round exchange. Deliberately small: class count, the
/// converged log likelihood, and the four heaviest class weights — the
/// same features [`autoclass::search::is_duplicate`] leads with.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    idx: usize,
    n_classes: usize,
    ll: f64,
    weights: [f64; 4],
}

/// The scheduler state every rank replicates — and, taken at a round
/// boundary with every fleet's retained list, the fleet search's
/// checkpoint image. A candidate running when the image is taken is
/// re-queued at the front of its fleet's queue: on resume it restarts
/// from cycle 0, which reproduces the same converged numbers (the EM is
/// deterministic in the candidate's seed).
#[derive(Debug, Clone, Default, PartialEq)]
struct FleetCheckpoint {
    /// Per fleet, the schedule indices still to run, in order.
    queues: Vec<VecDeque<usize>>,
    /// The converged candidates, for duplicate abandonment.
    fingerprints: Vec<Fingerprint>,
    total_cycles: usize,
    /// The scheduler's counters so far (`groups` and `ensemble` are set
    /// only in the final result).
    stats: FleetStats,
    /// Per fleet, the serialized retained classifications (the record
    /// format the consensus gather uses); filled only in an image.
    retained_raw: Vec<Vec<f64>>,
}

/// First eight bytes of a fleet image (`b"PACFLET1"`), so a fleet image
/// and a [`crate::SearchCheckpoint`] can never be read as each other.
const FLEET_MAGIC: u64 = u64::from_le_bytes(*b"PACFLET1");

impl FleetCheckpoint {
    /// Serialize in the checkpoint frame, under [`FLEET_MAGIC`].
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_u64(&mut w, self.queues.len() as u64);
        for q in &self.queues {
            put_u64(&mut w, q.len() as u64);
            q.iter().for_each(|&k| put_u64(&mut w, k as u64));
        }
        put_u64(&mut w, self.fingerprints.len() as u64);
        for fp in &self.fingerprints {
            put_u64(&mut w, fp.idx as u64);
            put_u64(&mut w, fp.n_classes as u64);
            put_f64(&mut w, fp.ll);
            fp.weights.iter().for_each(|&x| put_f64(&mut w, x));
        }
        let s = &self.stats;
        for n in [self.total_cycles, s.rounds, s.candidates, s.dedup_hits, s.dedup_saved_cycles] {
            put_u64(&mut w, n as u64);
        }
        put_u64(&mut w, s.steals as u64);
        put_u64(&mut w, self.retained_raw.len() as u64);
        self.retained_raw.iter().for_each(|raw| put_f64s(&mut w, raw));
        frame(FLEET_MAGIC, &w)
    }

    /// Decode and validate fleet image bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = unframe(bytes, FLEET_MAGIC)?;
        let mut ck = FleetCheckpoint::default();
        for _ in 0..r.u64("fleet count")? {
            let n = r.u64("queue length")?;
            ck.queues.push((0..n).map(|_| r.usize("queued index")).collect::<Result<_, _>>()?);
        }
        for _ in 0..r.u64("fingerprint count")? {
            let (idx, n_classes) = (r.usize("fingerprint")?, r.usize("fingerprint")?);
            let (ll, weights) = (r.f64("fingerprint")?, r.f64x4("fingerprint")?);
            ck.fingerprints.push(Fingerprint { idx, n_classes, ll, weights });
        }
        let s = &mut ck.stats;
        for n in [&mut ck.total_cycles, &mut s.rounds, &mut s.candidates, &mut s.dedup_hits] {
            *n = r.usize("scheduler counter")?;
        }
        s.dedup_saved_cycles = r.usize("scheduler counter")?;
        s.steals = r.usize("scheduler counter")?;
        for _ in 0..r.u64("retained list count")? {
            ck.retained_raw.push(r.f64s("retained records")?);
        }
        r.done()?;
        Ok(ck)
    }
}

/// Per-fleet report slot in the round exchange:
/// `[idx+1, converged, abandoned, cycles, n_classes, ll, w0, w1, w2, w3]`
/// (all zeros when the fleet finished nothing this round).
const SLOT_LEN: usize = 10;

/// A candidate suspended across rounds on the ranks of its fleet: its
/// schedule index and its try.
struct Running {
    idx: usize,
    cur: Try,
}

/// How a candidate's burst ended this round.
#[derive(Clone, Copy, PartialEq)]
enum BurstEnd {
    /// Budget exhausted; the candidate stays suspended.
    Suspended,
    /// Converged (or hit the cycle cap with `false`).
    Finished { converged: bool },
    /// Matched an earlier candidate's fingerprint and was abandoned.
    Abandoned,
}

/// Append one classification as a self-describing record:
/// `[body_len, idx, j_initial, j, cycles, converged, seed_hi, seed_lo,
/// log_prior, approx×4, flat parameters…]`. The parameters travel as
/// their exact bit patterns (`classes_to_flat` round-trips bitwise), so
/// decoding on another rank reconstructs the classification exactly.
fn push_record(out: &mut Vec<f64>, idx: usize, c: &Classification) {
    let flat = classes_to_flat(&c.classes);
    out.push((12 + flat.len()) as f64);
    out.push(idx as f64);
    out.push(c.j_initial as f64);
    out.push(c.classes.len() as f64);
    out.push(c.cycles as f64);
    out.push(f64::from(u8::from(c.converged)));
    out.push((c.seed >> 32) as f64);
    out.push((c.seed & 0xFFFF_FFFF) as f64);
    out.push(c.log_prior);
    out.push(c.approx.log_likelihood);
    out.push(c.approx.complete_ll);
    out.push(c.approx.complete_marginal);
    out.push(c.approx.cs_score);
    out.extend_from_slice(&flat);
}

fn serialize_retained(retained: &[(usize, Classification)]) -> Vec<f64> {
    let mut out = Vec::new();
    for (idx, c) in retained {
        push_record(&mut out, *idx, c);
    }
    out
}

/// A wire flag: slot and record fields carry exactly +0.0 or a small
/// positive integer written as `x as f64`, so the bit pattern of zero is
/// the exact discriminant (no tolerance needed or wanted).
fn wire_flag(x: f64) -> bool {
    x.to_bits() != 0
}

/// Decode a concatenation of [`push_record`] records. The model supplies
/// only the parameter layout (schema-derived), so any rank's model
/// instance decodes any fleet's records.
fn parse_records(buf: &[f64], model: &Model) -> Vec<(usize, Classification)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < buf.len() {
        let body = buf[i] as usize;
        i += 1;
        if body < 12 || i + body > buf.len() {
            break; // malformed tail; decode what framed cleanly
        }
        let rec = &buf[i..i + body];
        i += body;
        let j = rec[2] as usize;
        let mut classes = Vec::new();
        classes_from_flat_into(model, j, &rec[12..], &mut classes);
        out.push((
            rec[0] as usize,
            Classification {
                classes,
                j_initial: rec[1] as usize,
                approx: Approximation {
                    log_likelihood: rec[8],
                    complete_ll: rec[9],
                    complete_marginal: rec[10],
                    cs_score: rec[11],
                },
                log_prior: rec[7],
                cycles: rec[3] as usize,
                converged: wire_flag(rec[4]),
                seed: ((rec[5] as u64) << 32) | (rec[6] as u64),
            },
        ));
    }
    out
}

/// Does the running candidate look like it is converging into `fp`'s
/// basin? Same features and tolerances as the sequential
/// [`autoclass::search::is_duplicate`]: class count, relative log
/// likelihood, heaviest weights.
fn matches_fingerprint(fp: &Fingerprint, run: &Try) -> bool {
    if fp.n_classes != run.tail.classes.len() {
        return false;
    }
    let ll = run.approx.log_likelihood;
    if !ll.is_finite() || (fp.ll - ll).abs() > 1e-4 * ll.abs().max(1.0) {
        return false;
    }
    let mut w: Vec<f64> = run.tail.classes.iter().map(|c| c.weight).collect();
    w.sort_by(|a, b| b.total_cmp(a));
    for (k, fw) in fp.weights.iter().enumerate() {
        let rw = w.get(k).copied().unwrap_or(0.0);
        if (fw - rw).abs() > 0.01 * rw.abs().max(1.0) {
            return false;
        }
    }
    true
}

fn top4_weights(classes: &[ClassParams]) -> [f64; 4] {
    let mut w: Vec<f64> = classes.iter().map(|c| c.weight).collect();
    w.sort_by(|a, b| b.total_cmp(a));
    let mut out = [0.0; 4];
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = w.get(k).copied().unwrap_or(0.0);
    }
    out
}

/// The fleet search over a (possibly already shrunk) world group. `sub`
/// is the communicator of every participating rank; `orig_p` is the
/// unshrunk machine size, so fleet membership stays anchored to the
/// original contiguous rank blocks — after a shrink only the culprit's
/// fleet loses a member, the others keep their exact membership.
#[allow(clippy::too_many_arguments)]
fn fleet_core<W: Communicator>(
    sub: &mut Group<'_, W>,
    orig_p: usize,
    data: &Dataset,
    config: &ParallelConfig,
    fc: &FleetConfig,
    checkpoints: Option<(usize, &CheckpointStore)>,
    resume: Option<&FleetCheckpoint>,
) -> (Vec<Classification>, usize, FleetStats) {
    let sc = &config.search;
    let g = fc.groups.clamp(1, sub.size());
    let round_cycles = fc.round_cycles.max(1);
    let blocks = block_partition(orig_p, g);
    // Every rank's fleet, by group rank, and whether it leads that fleet
    // (its lowest member): the color tables of the fleet and leader splits
    // below, which every rank derives alike from the blocks. A fleet can
    // be empty after a shrink; its queue is then drained by the other
    // fleets' stealing.
    let fleet_of: Vec<u32> = sub
        .members()
        .iter()
        .map(|r| {
            blocks
                .iter()
                .position(|b| b.contains(r))
                // lint:allow(unwrap): the blocks partition 0..orig_p exhaustively
                .expect("every rank belongs to one fleet block") as u32
        })
        .collect();
    let leads: Vec<bool> =
        (0..fleet_of.len()).map(|r| r == 0 || fleet_of[r - 1] != fleet_of[r]).collect();
    let my_fleet = fleet_of[sub.rank()] as usize;
    let am_leader = leads[sub.rank()];
    let fleet_sizes: Vec<usize> =
        (0..g).map(|f| fleet_of.iter().filter(|&&x| x as usize == f).count()).collect();

    // ---- Per-fleet setup: partition, model --------------------------
    // After a shrink this rebuilds the fleets on the survivors, which is
    // recovery cost as a whole, as in the plain shrink path; otherwise it
    // stays in the caller's `"search"` phase, with the model's allreduce
    // under `"allreduce"` as on the world.
    let (setup, span) = if sub.size() < orig_p {
        (RECOVERY_PHASE, RECOVERY_PHASE)
    } else {
        ("search", "allreduce")
    };
    sub.enter_phase(setup);
    let mut fleet = sub.split(|r| fleet_of[r]);
    let part = block_range(data.len(), fleet.size(), fleet.rank());
    let view = data.view(part.start, part.end);
    let model = build_model(&mut fleet, &view, &config.correlated_blocks, span);
    drop(fleet);
    sub.exit_phase();

    // ---- Replicated scheduler state ---------------------------------
    let mut st = match resume {
        Some(ck) => ck.clone(),
        None => {
            // Deal the schedule round-robin so every fleet starts with a
            // mix of small and large J.
            let mut queues = vec![VecDeque::new(); g];
            for k in 0..sc.start_j_list.len() * sc.tries_per_j {
                queues[k % g].push_back(k);
            }
            FleetCheckpoint { queues, ..FleetCheckpoint::default() }
        }
    };
    // A shrink that leaves fewer survivors than the image has fleets
    // resumes with fewer fleets: fold each dropped fleet's queue and
    // retained records, in order, into surviving fleet `f % g`, so no
    // candidate is lost.
    let mut retained_raw = std::mem::take(&mut st.retained_raw);
    for f in g..st.queues.len() {
        let queue = std::mem::take(&mut st.queues[f]);
        st.queues[f % g].extend(queue);
    }
    for f in g..retained_raw.len() {
        let records = std::mem::take(&mut retained_raw[f]);
        retained_raw[f % g].extend(records);
    }
    st.queues.resize(g, VecDeque::new());
    let mut my_retained: Vec<(usize, Classification)> =
        retained_raw.get(my_fleet).map_or_else(Vec::new, |raw| parse_records(raw, &model));

    let mut in_progress: Vec<Option<usize>> = vec![None; g];
    let mut my_running: Option<Running> = None;
    let mut ws = CycleWorkspace::new();
    let mut rounds_since_ckpt = 0usize;

    loop {
        // ---- Assignment + stealing (replicated decision) ------------
        for f in 0..g {
            if fleet_sizes[f] == 0 || in_progress[f].is_some() {
                continue;
            }
            if let Some(k) = st.queues[f].pop_front() {
                in_progress[f] = Some(k);
                continue;
            }
            // Steal the tail of the largest queue (ties: lowest donor
            // index) — the tail is the donor's farthest-out candidate.
            let donor = (0..g)
                .filter(|&d| d != f && !st.queues[d].is_empty())
                .max_by_key(|&d| (st.queues[d].len(), std::cmp::Reverse(d)));
            if let Some(d) = donor {
                if let Some(k) = st.queues[d].pop_back() {
                    in_progress[f] = Some(k);
                    st.stats.steals += 1;
                }
            }
        }
        if in_progress.iter().all(Option::is_none) {
            break; // queues drained and every fleet idle: search done
        }
        st.stats.rounds += 1;

        // ---- EM burst on my fleet's sub-communicator ----------------
        let mut end: Option<BurstEnd> = None;
        sub.enter_phase("fleet");
        {
            let mut fleet = sub.split(|r| fleet_of[r]);
            if let Some(k) = in_progress[my_fleet] {
                if my_running.is_none() {
                    let ji = k / sc.tries_per_j;
                    let seed = derive_seed(sc.seed, k as u64);
                    let cur = Try::begin(&mut fleet, &model, &view, sc.start_j_list[ji], seed);
                    my_running = Some(Running { idx: k, cur });
                }
                // lint:allow(unwrap): installed above when absent
                let run = my_running.as_mut().expect("running candidate installed");
                let mut burst = 0usize;
                while burst < round_cycles && run.cur.cycles < sc.max_cycles {
                    // Duplicate probe: earlier-scheduled converged
                    // candidates only, so the abandonment relation is
                    // acyclic and schedule-deterministic.
                    if fc.dedup_every > 0
                        && run.cur.cycles > 0
                        && run.cur.cycles.is_multiple_of(fc.dedup_every)
                        && st
                            .fingerprints
                            .iter()
                            .any(|fp| fp.idx < run.idx && matches_fingerprint(fp, &run.cur))
                    {
                        end = Some(BurstEnd::Abandoned);
                        break;
                    }
                    burst += 1;
                    if run.cur.step(sc, |tail| {
                        blocking_cycle(&mut fleet, &model, &view, tail, &mut ws, FUSED)
                    }) {
                        end = Some(BurstEnd::Finished { converged: true });
                        break;
                    }
                }
                if end.is_none() {
                    end = Some(if run.cur.cycles >= sc.max_cycles {
                        BurstEnd::Finished { converged: false }
                    } else {
                        BurstEnd::Suspended
                    });
                }
            }
        }
        sub.exit_phase();

        // ---- Finalize a completed candidate locally -----------------
        // (slot := what the fleet leader will publish this round)
        let mut slot = [0.0; SLOT_LEN];
        match end {
            Some(BurstEnd::Finished { converged: did_converge }) => {
                // lint:allow(unwrap): Finished is only set while running
                let run = my_running.take().expect("finished candidate was running");
                let c = run.cur.finish(&model, did_converge);
                slot = [
                    (run.idx + 1) as f64,
                    f64::from(u8::from(did_converge)),
                    0.0,
                    c.cycles as f64,
                    c.classes.len() as f64,
                    c.approx.log_likelihood,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                ];
                slot[6..10].copy_from_slice(&top4_weights(&c.classes));
                my_retained.push((run.idx, c));
            }
            Some(BurstEnd::Abandoned) => {
                // lint:allow(unwrap): Abandoned is only set while running
                let run = my_running.take().expect("abandoned candidate was running");
                slot[0] = (run.idx + 1) as f64;
                slot[2] = 1.0;
                slot[3] = run.cur.cycles as f64;
            }
            Some(BurstEnd::Suspended) | None => {}
        }

        // ---- Round exchange: leaders only, then down each fleet ------
        // Every member already holds its own fleet's slot: the burst is
        // replicated within the fleet. The other fleets' slots travel
        // through one allreduce among the G leaders, where only the
        // owning leader writes a slot and the rest contribute +0.0 (a
        // bitwise identity, so the combined buffer equals the leaders'
        // bits whatever the algorithm), then one broadcast from each
        // leader down its fleet. A single fleet has nothing to exchange.
        sub.enter_phase("dedup");
        let mut slots = vec![0.0; g * SLOT_LEN];
        slots[my_fleet * SLOT_LEN..(my_fleet + 1) * SLOT_LEN].copy_from_slice(&slot);
        if g > 1 {
            let mut leaders = sub.split(|r| u32::from(!leads[r]));
            if am_leader {
                // lint:allow(blocking-collective): one batched slot exchange per BSP round IS the protocol
                leaders.allreduce_f64s(&mut slots, ReduceOp::Sum);
            }
            drop(leaders);
            let mut fleet = sub.split(|r| fleet_of[r]);
            // lint:allow(blocking-collective): the same exchange, down the fleet
            fleet.broadcast_f64s(0, &mut slots);
        }
        for f in 0..g {
            let s = &slots[f * SLOT_LEN..(f + 1) * SLOT_LEN];
            if !wire_flag(s[0]) {
                continue;
            }
            let idx = s[0] as usize - 1;
            in_progress[f] = None;
            st.stats.candidates += 1;
            st.total_cycles += s[3] as usize;
            if wire_flag(s[2]) {
                st.stats.dedup_hits += 1;
                st.stats.dedup_saved_cycles += sc.max_cycles.saturating_sub(s[3] as usize);
            } else if wire_flag(s[1]) {
                st.fingerprints.push(Fingerprint {
                    idx,
                    n_classes: s[4] as usize,
                    ll: s[5],
                    weights: [s[6], s[7], s[8], s[9]],
                });
            }
        }
        sub.exit_phase();

        // ---- Round-boundary checkpoint (fault-tolerant runs only) ---
        rounds_since_ckpt += 1;
        if let Some((every, store)) = checkpoints {
            if every > 0 && rounds_since_ckpt >= every {
                rounds_since_ckpt = 0;
                publish_fleet_checkpoint(
                    sub,
                    store,
                    &st,
                    &in_progress,
                    &my_retained,
                    my_fleet,
                    &leads,
                );
            }
        }
    }

    // ---- Consensus: gather, replay serial dedup, broadcast back -----
    // The leaders hold their fleets' retained lists and gather them to the
    // first leader, group rank 0. A single fleet's list is replicated on
    // every rank, so each rank computes the consensus itself.
    sub.enter_phase("consensus");
    let payload = if am_leader || g == 1 { serialize_retained(&my_retained) } else { Vec::new() };
    sub.work(8 * payload.len() as u64);
    let gathered = if g == 1 {
        Some(payload)
    } else {
        let mut leaders = sub.split(|r| u32::from(!leads[r]));
        if am_leader {
            leaders.gather_f64s(0, &payload)
        } else {
            None
        }
    };
    let mut buf: Vec<f64> = if let Some(buf) = gathered {
        let mut cands = parse_records(&buf, &model);
        cands.sort_by_key(|(idx, _)| *idx);
        // Replay the sequential search's duplicate-elimination chain in
        // schedule order: with abandonment disabled this retains exactly
        // the classifications the serial search would, bit for bit.
        let mut all: Vec<Classification> = Vec::new();
        for (_, c) in cands {
            keep_unique(&mut all, c);
        }
        best_first(&mut all, sc.max_stored);
        let mut out = Vec::new();
        for (i, c) in all.iter().enumerate() {
            push_record(&mut out, i, c);
        }
        out
    } else {
        Vec::new()
    };
    if g > 1 {
        let mut len = [buf.len() as f64];
        sub.broadcast_f64s(0, &mut len);
        buf.resize(len[0] as usize, 0.0);
        sub.broadcast_f64s(0, &mut buf);
    }
    let all: Vec<Classification> =
        parse_records(&buf, &model).into_iter().map(|(_, c)| c).collect();

    let ensemble = match fc.consensus {
        Consensus::Ensemble { voters } if voters >= 2 && all.len() >= 2 => {
            Some(ensemble_stage(sub, data, &model, &all, voters))
        }
        _ => None,
    };
    sub.exit_phase();

    (all, st.total_cycles, FleetStats { groups: g, ensemble, ..st.stats })
}

/// Snapshot the replicated scheduler state `st` plus every fleet's
/// retained list into the supervisor's store: the leaders (`leads`, by
/// group rank) gather their serialized lists to the first leader, which
/// assembles, encodes and publishes the image.
fn publish_fleet_checkpoint<W: Communicator>(
    sub: &mut Group<'_, W>,
    store: &CheckpointStore,
    st: &FleetCheckpoint,
    in_progress: &[Option<usize>],
    my_retained: &[(usize, Classification)],
    my_fleet: usize,
    leads: &[bool],
) {
    sub.enter_phase("checkpoint");
    let is_leader = leads[sub.rank()];
    let mut payload = Vec::new();
    if is_leader {
        let records = serialize_retained(my_retained);
        payload.push(my_fleet as f64);
        payload.push(records.len() as f64);
        payload.extend_from_slice(&records);
    }
    sub.work(8 * payload.len() as u64);
    let mut leaders = sub.split(|r| u32::from(!leads[r]));
    let gathered = if is_leader { leaders.gather_f64s(0, &payload) } else { None };
    drop(leaders);
    if let Some(buf) = gathered {
        let mut ck = st.clone();
        ck.retained_raw = vec![Vec::new(); ck.queues.len()];
        let mut i = 0usize;
        while i + 2 <= buf.len() {
            let (f, n) = (buf[i] as usize, buf[i + 1] as usize);
            i += 2;
            if f < ck.retained_raw.len() && i + n <= buf.len() {
                ck.retained_raw[f] = buf[i..i + n].to_vec();
            }
            i += n;
        }
        // Running candidates restart from cycle 0 on resume: re-queue
        // them at the front of their fleet's queue.
        for (q, k) in ck.queues.iter_mut().zip(in_progress) {
            if let Some(k) = k {
                q.push_front(*k);
            }
        }
        // lint:allow(unwrap): mutex poisoning only follows another panic
        *store.lock().expect("checkpoint store lock") = Some(ck.to_bytes());
    }
    sub.exit_phase();
}

/// The ensemble consensus vote: the top `voters` models each label every
/// item (over a fresh world-wide block partition), labels are aligned to
/// the best model's classes through allreduced confusion matrices, and a
/// per-item majority vote yields the consensus labeling. Every rank
/// computes the identical alignment (the confusion counts are exact
/// integer sums); the labeling hash travels root → all so the summary is
/// replicated.
fn ensemble_stage<W: Communicator>(
    sub: &mut Group<'_, W>,
    data: &Dataset,
    model: &Model,
    all: &[Classification],
    voters: usize,
) -> EnsembleSummary {
    let v = voters.min(all.len());
    let part = block_range(data.len(), sub.size(), sub.rank());
    let view = data.view(part.start, part.end);
    let n_local = view.len();

    // Per-voter hard labels for the local block.
    let mut wts = WtsMatrix::default();
    let mut scratch = EStepScratch::default();
    let mut labels: Vec<Vec<usize>> = Vec::with_capacity(v);
    let mut best = Vec::with_capacity(n_local);
    for c in all.iter().take(v) {
        let e = sub.with_scratch(&mut scratch, |scratch| {
            update_wts_into(model, &view, &c.classes, &mut wts, scratch)
        });
        sub.work(e.ops);
        // A running argmax down the class columns; the strict `>` keeps
        // the lowest class on a tie.
        let mut lab = vec![0usize; n_local];
        best.clear();
        best.extend_from_slice(wts.class_column(0));
        for ci in 1..wts.n_classes() {
            for ((l, b), &w) in lab.iter_mut().zip(&mut best).zip(wts.class_column(ci)) {
                if w > *b {
                    *b = w;
                    *l = ci;
                }
            }
        }
        labels.push(lab);
    }

    // Align every voter to voter 0 by a greedy match on the global
    // confusion matrix (largest co-occurrence first).
    let j0 = all[0].classes.len();
    let mut max_label = j0;
    for vi in 1..v {
        let jv = all[vi].classes.len();
        let mut conf = vec![0.0; j0 * jv];
        for i in 0..n_local {
            conf[labels[0][i] * jv + labels[vi][i]] += 1.0;
        }
        // lint:allow(blocking-collective): one whole confusion matrix per voter pair, already batched
        sub.allreduce_f64s(&mut conf, ReduceOp::Sum);
        let map = greedy_align(&conf, j0, jv, &mut max_label);
        for l in &mut labels[vi] {
            *l = map[*l];
        }
    }

    // Majority vote with the lowest label winning ties; agreement is the
    // mean fraction of voters on the winning label.
    let mut counts = vec![0usize; max_label];
    let mut agree_local = 0.0f64;
    let winners: Vec<f64> = (0..n_local)
        .map(|i| {
            counts.iter_mut().for_each(|c| *c = 0);
            for lab in &labels {
                counts[lab[i]] += 1;
            }
            let mut win = 0usize;
            for (l, &c) in counts.iter().enumerate() {
                if c > counts[win] {
                    win = l;
                }
            }
            agree_local += counts[win] as f64 / v as f64;
            win as f64
        })
        .collect();
    let agreement = sub.allreduce_scalar(agree_local, ReduceOp::Sum) / data.len().max(1) as f64;

    // Hash the full labeling on the root and replicate the digest.
    let gathered = sub.gather_f64s(0, &winners);
    let mut hbuf = [0.0f64; 2];
    if let Some(lab) = gathered {
        let bytes: Vec<u8> = lab.iter().flat_map(|l| (*l as u64).to_le_bytes()).collect();
        let h = mpsim::payload::checksum(&bytes);
        hbuf = [(h >> 32) as f64, (h & 0xFFFF_FFFF) as f64];
    }
    sub.broadcast_f64s(0, &mut hbuf);
    let label_hash = ((hbuf[0] as u64) << 32) | (hbuf[1] as u64);
    EnsembleSummary { voters: v, agreement, label_hash }
}

/// Greedy confusion-matrix alignment: repeatedly map the (row, col) pair
/// with the largest count (ties: lowest row, then lowest col), then
/// strike both. Unmatched columns get fresh labels past the reference
/// model's range.
fn greedy_align(conf: &[f64], j0: usize, jv: usize, max_label: &mut usize) -> Vec<usize> {
    let mut map = vec![usize::MAX; jv];
    let mut row_used = vec![false; j0];
    let mut col_used = vec![false; jv];
    for _ in 0..j0.min(jv) {
        let mut best: Option<(usize, usize)> = None;
        for a in 0..j0 {
            if row_used[a] {
                continue;
            }
            for b in 0..jv {
                if col_used[b] {
                    continue;
                }
                if best.is_none_or(|(ba, bb)| conf[a * jv + b] > conf[ba * jv + bb]) {
                    best = Some((a, b));
                }
            }
        }
        let Some((a, b)) = best else { break };
        map[b] = a;
        row_used[a] = true;
        col_used[b] = true;
    }
    for m in &mut map {
        if *m == usize::MAX {
            *m = *max_label;
            *max_label += 1;
        }
    }
    *max_label = (*max_label).max(j0);
    map
}

/// The fleet search as the supervisor runs it: the search of
/// [`run_search_fleet`] on the whole machine, or on the survivors' group
/// after a shrink, with [`FleetCheckpoint`] as its image.
struct FleetSearch<'a> {
    data: &'a Dataset,
    config: &'a ParallelConfig,
    fc: &'a FleetConfig,
}

impl Supervised for FleetSearch<'_> {
    type Image = FleetCheckpoint;
    type Found = (Vec<Classification>, usize, FleetStats);
    type Outcome = FleetOutcome;

    fn decode(bytes: &[u8]) -> Result<FleetCheckpoint, CheckpointError> {
        FleetCheckpoint::from_bytes(bytes)
    }

    fn groups(&self) -> usize {
        self.fc.groups
    }

    /// Wrap the whole machine in a single group (so the fleet splits are
    /// the nested splits both backends implement identically) and run
    /// the core.
    fn on_world<C: Communicator>(
        &self,
        comm: &mut C,
        checkpoints: Option<(usize, &CheckpointStore)>,
        resume: Option<&FleetCheckpoint>,
    ) -> Self::Found {
        comm.enter_phase("search");
        let p = comm.size();
        let (data, config, fc) = (self.data, self.config, self.fc);
        let r = fleet_core(&mut comm.split(|_| 0), p, data, config, fc, checkpoints, resume);
        comm.exit_phase();
        r
    }

    /// Fleet blocks stay anchored to the original ranks (`orig_p`), so
    /// only the culprit's fleet shrinks.
    fn on_survivors<W: Communicator>(
        &self,
        sub: &mut Group<'_, W>,
        orig_p: usize,
        checkpoints: Option<(usize, &CheckpointStore)>,
        resume: Option<&FleetCheckpoint>,
    ) -> Self::Found {
        sub.enter_phase("search");
        let r = fleet_core(sub, orig_p, self.data, self.config, self.fc, checkpoints, resume);
        sub.exit_phase();
        r
    }

    fn outcome(
        (all, cycles, fleet): Self::Found,
        elapsed: f64,
        ranks: Vec<RankStats>,
        stats: RunStats,
    ) -> Result<FleetOutcome, RunError> {
        let outcome = WorldSearch::outcome((all, cycles), elapsed, ranks, stats)?;
        Ok(FleetOutcome { outcome, fleet })
    }
}

/// Run the fleet-parallel model search on the given simulated machine.
///
/// With [`FleetConfig::dedup_every`] `= 0` and fleets whose size is a
/// power of two, the selected model is bit-identical to
/// [`crate::run_search`] on a machine of one fleet's size (fused
/// exchange, recursive-doubling allreduce) — the fleets change *where*
/// candidates run, not their numbers.
///
/// # Errors
/// Same contract as [`crate::run_search`], except that any partitioning
/// but [`Partitioning::Block`] is [`RunError::Partition`].
pub fn run_search_fleet(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    fc: &FleetConfig,
) -> Result<FleetOutcome, RunError> {
    run_search_fleet_with(data, machine, config, fc, &SimOptions::default())
}

/// Every fleet block-partitions its own data, so a fleet entry point
/// rejects any other [`crate::Partitioning`] instead of ignoring it.
fn block_only(config: &ParallelConfig) -> Result<(), PartitionError> {
    match config.partition {
        Partitioning::Block => Ok(()),
        Partitioning::Weighted(_) => Err(PartitionError::BlockOnly),
    }
}

/// [`run_search_fleet`] with explicit engine options.
///
/// # Errors
/// Same contract as [`run_search_fleet`].
pub fn run_search_fleet_with(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    fc: &FleetConfig,
    opts: &SimOptions,
) -> Result<FleetOutcome, RunError> {
    block_only(config)?;
    let search = FleetSearch { data, config, fc };
    let out = run_spmd(machine, opts, |comm| search.on_world(comm, None, None))?;
    let Some(found) = out.per_rank.into_iter().next() else {
        return Err(RunError::EmptySearch);
    };
    FleetSearch::outcome(found, out.elapsed, out.ranks, out.stats)
}

/// [`run_search_fleet`] on real cores: same rank body, wall-clock time,
/// bitwise-identical classifications.
///
/// # Errors
/// Same contract as [`crate::run_search_native`], except that any
/// partitioning but [`Partitioning::Block`] is [`RunError::Partition`].
pub fn run_search_fleet_native(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    fc: &FleetConfig,
    opts: &NativeOptions,
) -> Result<FleetOutcome, RunError> {
    block_only(config)?;
    let search = FleetSearch { data, config, fc };
    let out = run_native(machine, opts, |comm| search.on_world(comm, None, None))?;
    let Some(found) = out.per_rank.into_iter().next() else {
        return Err(RunError::EmptySearch);
    };
    FleetSearch::outcome(found, out.elapsed, out.ranks, out.stats)
}

/// Run the fleet search under [`crate::run_search_ft`]'s supervisor, with
/// the round image as the checkpoint (every [`FtConfig::checkpoint_every`]
/// BSP rounds): completed candidates and the scheduler state survive, and
/// a candidate in flight restarts from cycle 0, which reproduces its
/// numbers exactly. A shrink shrinks only the culprit's fleet; a
/// promotion takes the culprit's own fleet's spare first and keeps every
/// fleet boundary, so the result stays bitwise identical.
///
/// # Errors
/// Same contract as [`crate::run_search_ft`], except that any
/// partitioning but [`Partitioning::Block`] is [`RunError::Partition`],
/// and that [`RecoveryPolicy::LocalReplay`], as the policy or as the
/// fallback of [`RecoveryPolicy::PromoteSpare`], is refused up front with
/// a typed `CommError::Unsupported`: the fleet search keeps no replay
/// log and would otherwise turn it into a full restart.
pub fn run_search_fleet_ft(
    data: &Dataset,
    machine: &MachineSpec,
    config: &ParallelConfig,
    fc: &FleetConfig,
    ft: &FtConfig,
    opts: &SimOptions,
) -> Result<FleetFtOutcome, RunError> {
    block_only(config)?;
    let replays = match ft.policy {
        RecoveryPolicy::LocalReplay => true,
        RecoveryPolicy::PromoteSpare => matches!(ft.standby.fallback, RecoveryPolicy::LocalReplay),
        _ => false,
    };
    if replays {
        return Err(RunError::Comm(CommError::Unsupported {
            what: "RecoveryPolicy::LocalReplay in the fleet search".into(),
            backend: "simulated",
        }));
    }
    supervise_sim(&FleetSearch { data, config, fc }, machine, ft, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchCheckpoint;

    #[test]
    fn fleet_images_round_trip_and_never_read_as_search_images() {
        let fp = Fingerprint { idx: 0, n_classes: 2, ll: -12.5, weights: [0.75, 0.25, 0.0, 0.0] };
        let ck = FleetCheckpoint {
            queues: vec![VecDeque::from([3, 1]), VecDeque::new()],
            fingerprints: vec![fp],
            total_cycles: 17,
            stats: FleetStats {
                rounds: 4,
                candidates: 2,
                dedup_hits: 1,
                dedup_saved_cycles: 9,
                steals: 1,
                ..FleetStats::default()
            },
            retained_raw: vec![vec![1.0, f64::NEG_INFINITY], vec![]],
        };
        let bytes = ck.to_bytes();
        assert_eq!(FleetCheckpoint::from_bytes(&bytes), Ok(ck));
        // Each image carries its own magic in the shared frame.
        assert!(matches!(
            SearchCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
        let search = SearchCheckpoint {
            ji: 0,
            try_idx: 0,
            cycle: 0,
            j_current: 0,
            seed: 0,
            prev_ll: 0.0,
            approx: [0.0; 4],
            total_cycles: 0,
            classes_flat: Vec::new(),
            best: Vec::new(),
        };
        assert!(matches!(
            FleetCheckpoint::from_bytes(&search.to_bytes()),
            Err(CheckpointError::BadMagic { .. })
        ));
        // Any payload flip fails the frame's checksum; a cut fails its length.
        for pos in 32..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(matches!(
                FleetCheckpoint::from_bytes(&bad),
                Err(CheckpointError::ChecksumMismatch { .. })
            ));
        }
        assert!(matches!(
            FleetCheckpoint::from_bytes(&bytes[..bytes.len() - 8]),
            Err(CheckpointError::LengthMismatch { .. })
        ));
    }
}
