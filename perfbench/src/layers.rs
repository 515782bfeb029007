//! Per-layer figures for the traced run. Each layer is timed from the
//! benchmark's side, through its public functions, and named after its
//! module:
//!
//! * `autoclass::model` — the E/M-step kernels on rank 0's partition;
//! * `mpsim::collectives` — an allreduce probe at the workload's P;
//! * `mpsim::engine` — SPMD launch and per-rank-cycle host cost;
//! * `pautoclass::driver` — the EM cycle's phase buckets;
//! * `pautoclass::run`, `pautoclass::fleet`, `pautoclass::{recover,
//!   checkpoint}` — the search, the fleet control plane and fault
//!   tolerance, read from the ops' own outputs.
//!
//! A workload that does not run a layer reports 0 for that layer's
//! figures.

use std::hint::black_box;
use std::time::{Duration, Instant};

use autoclass::data::{Dataset, GlobalStats};
use autoclass::model::{
    classes_to_flat, init_classes, stats_to_classes_into, update_wts_and_stats_into,
    update_wts_into, EStepScratch, Model, StatLayout, SuffStats, WtsMatrix,
};
use mpsim::{predicted_allreduce_cost, run_spmd, Engine, ReduceOp, SimOptions};
use pautoclass::{
    from_shards, to_shards, CkptClassification, ParallelOutcome, RecoveryPolicy, SearchCheckpoint,
};

use crate::measure::{median, per_call, Tracer};
use crate::workload::{Op, OpOut, Refs, Workload};

/// Kernel batch length: long enough that timer resolution is noise.
const KERNEL_BATCH: Duration = Duration::from_millis(4);
/// Host time the allreduce probe aims for beyond its launch cost.
const COLL_TARGET_S: f64 = 0.05;

/// Named figures, in the order they are produced.
pub type Figures = Vec<(String, f64)>;

/// Per-call kernel times at one class count on rank 0's partition.
struct KernelAt {
    j: usize,
    estep_s: f64,
    accumulate_s: f64,
    fused_s: f64,
    derive_s: f64,
    estep_ops: u64,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub workload: &'a Workload,
    pub data: &'a Dataset,
    /// The traced pass.
    pub pass: &'a [OpOut],
    pub refs: &'a Refs,
    /// Median untraced host seconds of a pass's simulated ops.
    pub sim_host_s: f64,
    /// The traced passes' median `sim_host_s` against the untraced one,
    /// minus one.
    pub trace_overhead_frac: f64,
}

/// Probe every layer and derive the per-layer figures.
pub fn per_layer(inp: &LayerInputs<'_>, tracer: &mut Tracer, op: usize) -> Result<Figures, String> {
    let w = inp.workload;
    let mut fig: Figures = Vec::new();
    let mut put = |name: &str, v: f64| fig.push((name.to_string(), v));

    // ---- autoclass::model ------------------------------------------
    let parts = w.config.partition.ranges(inp.data.len(), w.p);
    let rank0 = parts.first().ok_or("no partitions")?;
    let view = inp.data.view(rank0.start, rank0.end);
    let n0 = view.len().max(1);
    let model = Model::new(inp.data.schema().clone(), &GlobalStats::compute(&inp.data.full_view()));
    let kernels: Vec<KernelAt> = tracer
        .span("autoclass::model", op, |t| {
            w.config
                .search
                .start_j_list
                .iter()
                .map(|&j| kernel_at(&model, &view, j, w.config.search.seed, t, op))
                .collect()
        })
        .0;
    let jn = kernels.len() as f64;
    let rate = |f: fn(&KernelAt) -> f64| n0 as f64 * jn / kernels.iter().map(f).sum::<f64>();
    put("kernel.estep_items_per_s", rate(|k| k.estep_s));
    put("kernel.accumulate_items_per_s", rate(|k| k.accumulate_s));
    put("kernel.fused_items_per_s", rate(|k| k.fused_s));
    put("kernel.mstep_us", kernels.iter().map(|k| k.derive_s).sum::<f64>() / jn * 1e6);
    put("kernel.estep_ops", kernels.iter().map(|k| k.estep_ops as f64).sum());
    // Computed, not measured: one E-step reads the partition's values
    // and writes its weight matrix, 8 bytes per double.
    let attrs = inp.data.schema().len();
    put("kernel.bytes_computed", kernels.iter().map(|k| (n0 * (attrs + k.j) * 8) as f64).sum());
    // Kernel host time of the pass's simulated ops, estimated as the
    // per-call times scaled to every item and rank of every cycle run.
    let n_scale = inp.data.len() as f64 / n0 as f64;
    let tries = w.config.search.tries_per_j as f64;
    let cycles = w.config.search.max_cycles as f64;
    let mut kernel_host_s = 0.0;
    for o in sim_ops(inp.pass) {
        let ranks_per_candidate = (w.p / groups(o.op)).max(1) as f64;
        for k in &kernels {
            let per_cycle =
                n_scale * (k.estep_s + k.accumulate_s) + ranks_per_candidate * k.derive_s;
            kernel_host_s += tries * cycles * per_cycle;
        }
    }
    put("kernel.host_s", kernel_host_s);
    put("kernel.host_share", kernel_host_s / inp.sim_host_s);

    // ---- mpsim::collectives / mpsim::engine --------------------------
    let machine = w.machine(w.p);
    let jmax = w.config.search.start_j_list.iter().copied().max().unwrap_or(1);
    // The fused exchange's message: the statistics plus two scalars.
    let len = StatLayout::new(&model, jmax).len() + 2;
    let coop = SimOptions { engine: Engine::Cooperative, ..SimOptions::default() };
    let launch = |t: &mut Tracer| {
        let runs: Vec<f64> = (0..3)
            .map(|_| t.span("mpsim::run_spmd(empty)", op, |_| run_spmd(&machine, &coop, |_| ())).1)
            .collect();
        median(&runs)
    };
    let (launch_s, _) = tracer.span("mpsim::engine", op, launch);
    let allreduce = |reps: usize| {
        let t = Instant::now();
        let out = run_spmd(&machine, &coop, |comm| {
            let mut buf = vec![0.0; len];
            for _ in 0..reps {
                comm.allreduce_f64s(&mut buf, ReduceOp::Sum);
            }
        });
        out.map(|o| (o, t.elapsed().as_secs_f64())).map_err(|e| format!("allreduce probe: {e}"))
    };
    let mut reps = 4usize;
    while reps < 4096 && allreduce(reps)?.1 - launch_s < COLL_TARGET_S {
        reps *= 2;
    }
    let (probe, probe_s) = tracer
        .span("mpsim::collectives", op, |t| {
            let mut runs = Vec::new();
            for _ in 0..3 {
                runs.push(t.span("mpsim::Comm::allreduce_f64s", op, |_| allreduce(reps)).0?);
            }
            let secs = median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
            let out = runs.pop().ok_or("no probe run")?.0;
            Ok::<_, String>((out, secs))
        })
        .0?;
    let allreduce_host_s = (probe_s - launch_s).max(0.0) / reps as f64;
    let virtual_per = probe.elapsed / reps as f64;
    let predicted = predicted_allreduce_cost(machine.allreduce, w.p, len, &machine.network);
    put("coll.allreduce_host_us", allreduce_host_s * 1e6);
    put(
        "coll.allreduce_pred_err",
        (virtual_per - predicted).abs() / predicted.max(f64::MIN_POSITIVE),
    );
    put("coll.msgs_per_allreduce", probe.stats.total_msgs as f64 / reps as f64);
    put("coll.bytes_per_allreduce", probe.stats.total_bytes as f64 / reps as f64);
    let world_collectives: f64 = sim_ops(inp.pass)
        .filter_map(|o| outcome(o))
        .map(|out| out.ranks.first().map_or(0.0, |r| r.collectives as f64))
        .sum();
    let coll_host_s = allreduce_host_s * world_collectives;
    put("coll.host_s", coll_host_s);

    let launches: f64 = sim_ops(inp.pass)
        .map(|o| o.result.as_ref().ok().and_then(|d| d.ft).map_or(1.0, |f| f.attempts as f64))
        .sum();
    let rank_cycles: f64 = sim_ops(inp.pass)
        .filter_map(|o| {
            outcome(o).map(|out| (w.p / groups(o.op)).max(1) as f64 * out.cycles as f64)
        })
        .sum();
    put("engine.launch_s", launch_s);
    put("engine.host_us_per_rank_cycle", (inp.sim_host_s - kernel_host_s) / rank_cycles * 1e6);
    put("engine.mailbox_high_water", probe.mailbox_high_water as f64);
    put(
        "sim.unattributed_share",
        1.0 - (kernel_host_s + coll_host_s + launch_s * launches) / inp.sim_host_s,
    );

    // ---- pautoclass::driver ----------------------------------------
    let main = sim_ops(inp.pass).find_map(outcome).ok_or("no simulated op succeeded")?;
    let r0 = main.ranks.first().ok_or("no rank statistics")?;
    let share = |name: &str| r0.phase(name).map_or(0.0, |p| p.total()) / main.elapsed;
    put("cycle.estep_share", share("estep"));
    put("cycle.mstep_share", share("mstep"));
    put("cycle.allreduce_share", share("allreduce"));
    put("cycle.idle_share", r0.idle / main.elapsed);
    let native = inp.pass.iter().find(|o| o.op.is_native()).and_then(outcome);
    let native_r0 = native.and_then(|n| n.ranks.first().map(|r| (r, n.elapsed)));
    let (nc, nm, ni) =
        native_r0.map_or((0.0, 0.0, 0.0), |(r, e)| (r.compute / e, r.comm / e, r.idle / e));
    put("cycle.native_compute_share", nc);
    put("cycle.native_comm_share", nm);
    put("cycle.native_idle_share", ni);

    // ---- pautoclass::run --------------------------------------------
    put("search.cycles", main.cycles as f64);
    put("search.candidates", w.candidates() as f64);

    // ---- pautoclass::fleet ------------------------------------------
    let fleet_op = |g: usize| inp.pass.iter().find(|o| matches!(o.op, Op::Fleet(x) if x == g));
    let g1 = fleet_op(1).and_then(outcome);
    let g8 = fleet_op(8).and_then(|o| o.result.as_ref().ok());
    let stats = g8.and_then(|d| d.fleet.as_ref());
    put("fleet.rounds", stats.map_or(0.0, |s| s.rounds as f64));
    put("fleet.steals", stats.map_or(0.0, |s| s.steals as f64));
    put("fleet.dedup_hits", stats.map_or(0.0, |s| s.dedup_hits as f64));
    let serial_s = inp.refs.serial_elapsed();
    put("fleet.g1_over_serial", g1.zip(serial_s).map_or(0.0, |(g, s)| g.elapsed / s));
    put("fleet.g8_speedup_vs_serial", g8.zip(serial_s).map_or(0.0, |(g, s)| s / g.out.elapsed));

    // ---- pautoclass::{recover, checkpoint} --------------------------
    let ft = inp.pass.iter().find(|o| matches!(o.op, Op::Ft)).and_then(outcome);
    let plain = inp.pass.iter().find(|o| matches!(o.op, Op::Search)).and_then(outcome);
    let ckpt_s = ft.map_or(0.0, |f| {
        f.ranks.iter().filter_map(|r| r.phase("checkpoint")).map(|p| p.total()).fold(0.0, f64::max)
    });
    put("ft.checkpoint_share", ft.map_or(0.0, |f| ckpt_s / f.elapsed));
    put("ft.ckpt_overhead", ft.zip(plain).map_or(0.0, |(f, p)| f.elapsed / p.elapsed));
    let (bytes, encode_s, decode_s) =
        tracer.span("pautoclass::checkpoint", op, |_| checkpoint_codec(main, w.p)).0?;
    put("ft.checkpoint_bytes", bytes as f64);
    put("ft.ckpt_encode_us", encode_s * 1e6);
    put("ft.ckpt_decode_us", decode_s * 1e6);
    let recovery = |policy: Option<RecoveryPolicy>| {
        inp.pass
            .iter()
            .filter(move |o| match o.op {
                Op::FtCrash(p) => policy.is_none_or(|want| want == p),
                _ => false,
            })
            .filter_map(|o| o.result.as_ref().ok().and_then(|d| d.ft))
    };
    put("ft.attempts", recovery(None).map(|f| f.attempts).sum::<usize>() as f64);
    for (key, policy) in [
        ("ft.recovery_share.restart", RecoveryPolicy::RestartFromCheckpoint),
        ("ft.recovery_share.promote", RecoveryPolicy::PromoteSpare),
        ("ft.recovery_share.replay", RecoveryPolicy::LocalReplay),
    ] {
        let rec = recovery(Some(policy)).next();
        put(key, rec.zip(ft).map_or(0.0, |(r, f)| r.recovery_time / f.elapsed));
    }

    put("trace_overhead_frac", inp.trace_overhead_frac);
    Ok(fig)
}

/// Exact (virtual-time) figures of a pass: deterministic for a given
/// seed, so they are compared bit for bit across runs rather than timed.
pub fn exact(w: &Workload, pass: &[OpOut], refs: Option<&Refs>) -> Figures {
    let mut fig: Figures = Vec::new();
    let mut virtual_s = 0.0;
    for o in sim_ops(pass) {
        if let Some(out) = outcome(o) {
            fig.push((format!("virtual_s.{}", o.label), out.elapsed));
            virtual_s += out.elapsed;
        }
    }
    fig.insert(0, ("virtual_s".into(), virtual_s));
    if let Some(main) = sim_ops(pass).find_map(outcome) {
        fig.push(("cycle.virtual_s".into(), main.elapsed / main.cycles.max(1) as f64));
        fig.push(("search.virtual_s_per_candidate".into(), main.elapsed / w.candidates() as f64));
    }
    if let Some(g8) = pass.iter().find(|o| matches!(o.op, Op::Fleet(8))).and_then(outcome) {
        fig.push(("fleet.cands_per_vs".into(), w.candidates() as f64 / g8.elapsed));
    }
    if let Some(serial) = refs.and_then(Refs::serial_elapsed) {
        fig.push(("fleet.serial_virtual_s".into(), serial));
    }
    let recovery: f64 = pass
        .iter()
        .filter_map(|o| o.result.as_ref().ok().and_then(|d| d.ft))
        .map(|f| f.recovery_time)
        .sum();
    if pass.iter().any(|o| matches!(o.op, Op::FtCrash(_))) {
        fig.push(("ft.recovery_virtual_s".into(), recovery));
    }
    fig
}

fn sim_ops(pass: &[OpOut]) -> impl Iterator<Item = &OpOut> {
    pass.iter().filter(|o| !o.op.is_native())
}

fn outcome(o: &OpOut) -> Option<&ParallelOutcome> {
    o.result.as_ref().ok().map(|d| &d.out)
}

fn groups(op: Op) -> usize {
    match op {
        Op::Fleet(g) => g,
        _ => 1,
    }
}

fn kernel_at(
    model: &Model,
    view: &autoclass::data::DataView<'_>,
    j: usize,
    seed: u64,
    t: &mut Tracer,
    op: usize,
) -> KernelAt {
    let classes = init_classes(model, view, j, seed);
    let mut wts = WtsMatrix::new(0, 0);
    let mut scratch = EStepScratch::default();
    let estep_ops = update_wts_into(model, view, &classes, &mut wts, &mut scratch).ops;
    let estep_s = t
        .span("autoclass::model::update_wts_into", op, |_| {
            per_call(KERNEL_BATCH, || {
                black_box(update_wts_into(model, view, &classes, &mut wts, &mut scratch));
            })
        })
        .0;
    let mut stats = SuffStats::zeros(StatLayout::new(model, j));
    let accumulate_s = t
        .span("autoclass::model::SuffStats::accumulate", op, |_| {
            per_call(KERNEL_BATCH, || {
                stats.data.fill(0.0);
                black_box(stats.accumulate(model, view, &wts));
            })
        })
        .0;
    let mut derived = classes.clone();
    let derive_s = t
        .span("autoclass::model::stats_to_classes_into", op, |_| {
            per_call(KERNEL_BATCH, || {
                black_box(stats_to_classes_into(model, &stats, &mut derived));
            })
        })
        .0;
    let mut carry = Vec::new();
    let fused_s = t
        .span("autoclass::model::update_wts_and_stats_into", op, |_| {
            per_call(KERNEL_BATCH, || {
                stats.data.fill(0.0);
                black_box(update_wts_and_stats_into(
                    model,
                    view,
                    &classes,
                    &mut wts,
                    &mut scratch,
                    &mut stats,
                    &mut carry,
                ));
            })
        })
        .0;
    KernelAt { j, estep_s, accumulate_s, fused_s, derive_s, estep_ops }
}

/// Encode a checkpoint of the run's stored classifications into `p`
/// shards and decode it back. Returns (image bytes, encode s, decode s);
/// a round trip that changes the checkpoint is an error.
fn checkpoint_codec(out: &ParallelOutcome, p: usize) -> Result<(usize, f64, f64), String> {
    let ck = SearchCheckpoint {
        ji: 0,
        try_idx: 0,
        cycle: out.best.cycles,
        j_current: out.best.classes.len(),
        seed: out.best.seed,
        prev_ll: out.best.approx.log_likelihood,
        approx: [
            out.best.approx.log_likelihood,
            out.best.approx.complete_ll,
            out.best.approx.complete_marginal,
            out.best.approx.cs_score,
        ],
        total_cycles: out.cycles,
        classes_flat: classes_to_flat(&out.best.classes),
        best: out.all.iter().map(CkptClassification::from_classification).collect(),
    };
    let bytes = ck.to_bytes().len();
    let encode_s = per_call(KERNEL_BATCH, || {
        black_box(to_shards(&ck.to_bytes(), p));
    });
    let shards = to_shards(&ck.to_bytes(), p);
    let decode_s = per_call(KERNEL_BATCH, || {
        let bytes = from_shards(&shards).ok();
        black_box(bytes.as_deref().map(SearchCheckpoint::from_bytes));
    });
    let back = from_shards(&shards)
        .map_err(|e| e.to_string())
        .and_then(|b| SearchCheckpoint::from_bytes(&b).map_err(|e| e.to_string()))
        .map_err(|e| format!("checkpoint round trip: {e}"))?;
    if back != ck {
        return Err("checkpoint round trip changed the checkpoint".into());
    }
    Ok((bytes, encode_s, decode_s))
}
