//! The paper-figure and ablation sections of `cargo xtask report`.
//!
//! Each section runs one experiment of EXPERIMENTS.md, renders its table
//! as text, and returns the gates it checked by name. Fig 6 and Fig 7 are
//! one section because they read the same grid of runs. Every value is
//! virtual time on the simulated Meiko CS-2 unless a column says "host";
//! `--smoke` shrinks each workload to CI size without changing its shape.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

use autoclass::search::{search, SearchConfig};
use mpsim::{
    presets, run_spmd_default, AllreduceAlgo, Communicator, MachineSpec, SimOptions, SpmdComm,
};
use pautoclass::{
    run_fixed_j, run_search, run_search_fleet_with, run_search_with, Exchange, FleetConfig,
    ParallelConfig, Partitioning, Strategy,
};

/// One rendered section: its tables as printed and the gates it checked.
pub struct Section {
    pub text: String,
    pub gates: Vec<(&'static str, bool)>,
}

/// Every section's gates in report order, the fault-tolerance sections
/// of [`crate::faultmatrix`] last: the schema `report --check` asserts on.
pub const GATES: [&str; 28] = [
    "fig7_at_most_linear",
    "fig7_gain_grows_with_size",
    "fig8_scaleup_flat",
    "fig8_j16_costs_more",
    "profile_base_cycle_dominates",
    "strategy_pipelined_ll_bitwise",
    "strategy_pipelined_no_slower",
    "strategy_full_beats_wtsonly",
    "collectives_recdbl_wins_small",
    "collectives_ring_wins_large",
    "imbalance_weighted_recovers",
    "seq_linear",
    "fleet_no_worse_ll",
    "candidates_scale_with_g",
    "faults_abort_names_correct_culprit",
    "faults_restart_bit_identical",
    "faults_shrink_survivors_ok",
    "faults_benign_faults_absorbed",
    "faults_ksweep_bit_identical",
    "faults_seeded_recovered_bit_identical",
    "faults_deterministic",
    "standby_promote_preserves_p",
    "standby_promote_bit_identical",
    "standby_promote_native_bit_identical",
    "standby_replay_strictly_cheaper_than_restart",
    "standby_shard_corruption_detected",
    "standby_exhausted_fallback_deterministic",
    "standby_deterministic",
];

/// The dataset seed every paper-workload section uses.
const DATA_SEED: u64 = 0xDA7A;

/// Timed cycles of every fixed-J measurement.
const CYCLES: usize = 3;

/// [`CYCLES`] fixed-J base cycles (seed 7), timed in virtual seconds.
fn fixed_j(
    data: &autoclass::data::Dataset,
    machine: &MachineSpec,
    j: usize,
    config: &ParallelConfig,
) -> Result<pautoclass::CycleTiming, String> {
    run_fixed_j(data, machine, j, CYCLES, 7, config)
        .map_err(|e| format!("fixed-J run at P={}: {e}", machine.p))
}

/// Format seconds as the paper's `h.mm.ss` axis labels.
fn fmt_hms(secs: f64) -> String {
    let total = secs.round().max(0.0) as u64;
    format!("{}.{:02}.{:02}", total / 3600, (total % 3600) / 60, total % 60)
}

/// A labeled grid: one row per label, one column per processor count.
fn grid_table(
    out: &mut String,
    title: &str,
    labels: &[String],
    procs: &[usize],
    cells: &[Vec<String>],
) {
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:>12}", "tuples\\procs");
    for p in procs {
        let _ = write!(out, "{p:>10}");
    }
    let _ = writeln!(out);
    for (label, row) in labels.iter().zip(cells) {
        let _ = write!(out, "{label:>12}");
        for cell in row {
            let _ = write!(out, "{cell:>10}");
        }
        let _ = writeln!(out);
    }
}

/// The dataset sizes of the paper's Figures 6–7 (tuples of two reals).
const PAPER_SIZES: [usize; 7] = [5_000, 10_000, 20_000, 40_000, 60_000, 80_000, 100_000];

/// Fig 6 (elapsed times) and Fig 7 (speedup T1/TP) from one grid of full
/// searches. The default search shortens the paper's `start_j_list` and
/// caps the cycles so the grid runs in seconds; `full` restores
/// `2,4,8,16,24,50,64`.
pub fn fig6_fig7(smoke: bool, full: bool) -> Result<Section, String> {
    let (sizes, procs): (&[usize], Vec<usize>) =
        if smoke { (&[1_000, 4_000], vec![1, 2, 4]) } else { (&PAPER_SIZES, (1..=10).collect()) };
    let search = SearchConfig {
        start_j_list: if full { vec![2, 4, 8, 16, 24, 50, 64] } else { vec![2, 4, 8, 16] },
        tries_per_j: 1,
        max_cycles: if full { 20 } else { 10 },
        rel_delta_ll: 0.0,     // fixed cycle count: comparable times
        min_class_weight: 0.0, // no class death: stable J per run
        seed: 0xF16,
        max_stored: 4,
    };
    let config = ParallelConfig { search, ..ParallelConfig::default() };
    let mut elapsed: Vec<Vec<f64>> = Vec::new();
    for &n in sizes {
        let data = datagen::paper_dataset(n, DATA_SEED);
        let mut row = Vec::new();
        for &p in &procs {
            let out = run_search(&data, &presets::meiko_cs2(p), &config)
                .map_err(|e| format!("grid n={n} P={p}: {e}"))?;
            row.push(out.elapsed);
        }
        elapsed.push(row);
    }

    let mut labels: Vec<String> = sizes.iter().map(usize::to_string).collect();
    let cells = |f: &dyn Fn(f64, f64) -> String| -> Vec<Vec<String>> {
        elapsed.iter().map(|row| row.iter().map(|&t| f(row[0], t)).collect()).collect()
    };
    let mut text = String::new();
    let title = "Fig 6 — average elapsed times [h.mm.ss, virtual] of P-AutoClass";
    grid_table(&mut text, title, &labels, &procs, &cells(&|_, t| fmt_hms(t)));
    let _ = writeln!(text);
    grid_table(
        &mut text,
        "(same data, seconds)",
        &labels,
        &procs,
        &cells(&|_, t| format!("{t:.1}")),
    );
    let _ = writeln!(text);
    let mut speedups = cells(&|t1, t| format!("{:.2}", t1 / t));
    speedups.push(procs.iter().map(|p| format!("{p:.2}")).collect());
    labels.push("linear".to_string());
    let title = "Fig 7 — speedup T1/TP of P-AutoClass (last row: linear)";
    grid_table(&mut text, title, &labels, &procs, &speedups);

    // The paper's in-text observation: where each size's speedup peaks.
    let _ = writeln!(text, "\noptimal processor count per dataset size:");
    for (row, &n) in elapsed.iter().zip(sizes) {
        let best = (0..row.len()).min_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap_or(0);
        let _ = writeln!(text, "  {n:>7} tuples -> {} procs", procs[best]);
    }

    // Gates: no run beats linear speedup, and the gain at the largest P
    // grows with dataset size (the paper's reading of both figures).
    let last = procs.len() - 1;
    let at_most_linear =
        elapsed.iter().all(|row| row.iter().zip(&procs).all(|(&t, &p)| row[0] / t <= p as f64));
    let gain_grows = elapsed.windows(2).all(|w| w[0][0] / w[0][last] < w[1][0] / w[1][last]);
    Ok(Section {
        text,
        gates: vec![
            ("fig7_at_most_linear", at_most_linear),
            ("fig7_gain_grows_with_size", gain_grows),
        ],
    })
}

/// Fig 8: scaleup — seconds per base cycle with a fixed number of tuples
/// per processor, grouping into 8 and 16 clusters.
pub fn fig8(smoke: bool) -> Result<Section, String> {
    let per_proc = 10_000;
    let procs: Vec<usize> = if smoke { vec![1, 2, 4] } else { (1..=10).collect() };
    let config = ParallelConfig::default();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig 8 — seconds per base_cycle iteration (virtual), {per_proc} tuples/processor"
    );
    let _ = writeln!(
        text,
        "{:>6} {:>12} {:>12} {:>12}",
        "procs", "tuples", "8 clusters", "16 clusters"
    );
    let mut rows = Vec::new();
    for &p in &procs {
        let n = per_proc * p;
        let data = datagen::paper_dataset(n, DATA_SEED);
        let machine = presets::meiko_cs2(p);
        let t8 = fixed_j(&data, &machine, 8, &config)?.per_cycle;
        let t16 = fixed_j(&data, &machine, 16, &config)?.per_cycle;
        let _ = writeln!(text, "{p:>6} {n:>12} {t8:>12.4} {t16:>12.4}");
        rows.push((t8, t16));
    }
    // Gates: the curve is nearly flat (the paper's scaleup claim) and
    // twice the classes costs more at every P.
    let (b8, b16) = rows[0];
    let flat = rows.iter().all(|&(t8, t16)| t8 <= 1.15 * b8 && t16 <= 1.15 * b16);
    let j_costs = rows.iter().all(|&(t8, t16)| t16 > t8);
    Ok(Section { text, gates: vec![("fig8_scaleup_flat", flat), ("fig8_j16_costs_more", j_costs)] })
}

/// T-profile (§3.1): where sequential AutoClass spends its host time —
/// the paper measured `base_cycle` at ~99.5 %.
pub fn profile(smoke: bool) -> Result<Section, String> {
    // The paper's profiling dataset had 14K tuples.
    let tuples = if smoke { 2_000 } else { 14_000 };
    let data = datagen::paper_dataset(tuples, DATA_SEED);
    let config = SearchConfig {
        start_j_list: vec![2, 4, 8, 16],
        tries_per_j: 1,
        max_cycles: 30,
        ..SearchConfig::default()
    };
    let result = search(&data.full_view(), &config);
    let p = result.profile;
    let total = p.total();
    let mut text = String::new();
    let _ =
        writeln!(text, "T-profile — sequential AutoClass phase breakdown ({tuples} tuples, host)");
    let _ = writeln!(text, "{:>22} {:>10} {:>8}", "phase", "seconds", "share");
    for (name, secs) in [
        ("initialization", p.init),
        ("update_wts", p.wts),
        ("update_parameters", p.params),
        ("update_approximations", p.approx),
        ("other", p.other),
        ("total", total),
    ] {
        let _ = writeln!(text, "{name:>22} {secs:>10.3} {:>7.2}%", 100.0 * secs / total);
    }
    let share = p.base_cycle_fraction();
    let _ = writeln!(
        text,
        "\nbase_cycle share: {:.2}% over {} cycles (paper: ~99.5%)",
        100.0 * share,
        p.cycles
    );
    let _ = writeln!(
        text,
        "best classification: {} classes, CS score {:.1}",
        result.best.n_classes(),
        result.best.score()
    );
    Ok(Section { text, gates: vec![("profile_base_cycle_dominates", share > 0.95)] })
}

/// A-strategy (§5 and the overlap ablation): seconds per base cycle of
/// the paper's per-term exchange, the fused exchange, the pipelined
/// (non-blocking) exchange, and the Miller & Guo wts-only prototype.
pub fn strategy(smoke: bool) -> Result<Section, String> {
    let (tuples, procs): (usize, &[usize]) =
        if smoke { (2_000, &[1, 2, 4]) } else { (20_000, &[1, 2, 4, 6, 8, 10]) };
    let j = 16;
    let data = datagen::paper_dataset(tuples, DATA_SEED);
    let strategies = [
        ("per-term", Strategy::Full { exchange: Exchange::PerTerm }),
        ("fused", Strategy::Full { exchange: Exchange::Fused }),
        ("pipelined", Strategy::Full { exchange: Exchange::Pipelined }),
        ("wts-only", Strategy::WtsOnly),
    ];
    let mut text = String::new();
    let _ = writeln!(text, "A-strategy — seconds per base_cycle (virtual), {tuples} tuples, J={j}");
    let _ = write!(text, "{:>6}", "procs");
    for (name, _) in &strategies {
        let _ = write!(text, "{name:>15}");
    }
    let _ = writeln!(text, "{:>15}", "hidden");
    let (mut ll_bitwise, mut no_slower, mut beats_wtsonly) = (true, true, true);
    for &p in procs {
        let machine = presets::meiko_cs2(p);
        let mut t = Vec::new();
        for (_, strategy) in strategies {
            let config = ParallelConfig { strategy, ..ParallelConfig::default() };
            t.push(fixed_j(&data, &machine, j, &config)?);
        }
        // Wire time the pipelined cycle overlapped with compute, per cycle.
        let hidden = t[2].ranks.iter().map(|r| r.hidden_comm).fold(0.0, f64::max) / CYCLES as f64;
        let _ = write!(text, "{p:>6}");
        for timing in &t {
            let _ = write!(text, "{:>15.4}", timing.per_cycle);
        }
        let _ = writeln!(text, "{hidden:>15.4}");
        ll_bitwise &= t[2].log_likelihood.to_bits() == t[1].log_likelihood.to_bits();
        no_slower &= p < 4 || t[2].per_cycle <= t[1].per_cycle;
        beats_wtsonly &= p == 1 || t[1].per_cycle < t[3].per_cycle;
    }
    Ok(Section {
        text,
        gates: vec![
            ("strategy_pipelined_ll_bitwise", ll_bitwise),
            ("strategy_pipelined_no_slower", no_slower),
            ("strategy_full_beats_wtsonly", beats_wtsonly),
        ],
    })
}

/// A-collectives: virtual seconds per Allreduce by algorithm and message
/// size at P = 10. Already CI-sized, so `--smoke` runs it unchanged.
pub fn collectives() -> Result<Section, String> {
    let p = 10;
    let algos = [
        ("linear", AllreduceAlgo::Linear),
        ("rec-doubling", AllreduceAlgo::RecursiveDoubling),
        ("ring", AllreduceAlgo::Ring),
        ("rabenseifner", AllreduceAlgo::Rabenseifner),
        ("auto", AllreduceAlgo::Auto),
    ];
    let sizes: [usize; 6] = [8, 64, 512, 4_096, 32_768, 262_144];
    let mut text = String::new();
    let _ = writeln!(text, "A-collectives — virtual seconds per Allreduce, P={p}");
    let _ = write!(text, "{:>10}", "doubles");
    for (name, _) in &algos {
        let _ = write!(text, "{name:>14}");
    }
    let _ = writeln!(text);
    let spec = presets::meiko_cs2(p);
    let mut rows = Vec::new();
    for n in sizes {
        let _ = write!(text, "{n:>10}");
        let mut row = Vec::new();
        for (_, algo) in algos {
            let out = run_spmd_default(&spec, |c| {
                let mut buf = vec![c.rank() as f64; n];
                c.allreduce_f64s_with(&mut buf, mpsim::ReduceOp::Sum, algo);
            })
            .map_err(|e| format!("allreduce n={n}: {e}"))?;
            let _ = write!(text, "{:>14.6}", out.elapsed);
            row.push(out.elapsed);
        }
        let _ = writeln!(text);
        rows.push(row);
    }
    // Gates: O(log P) latency wins small messages, bandwidth-optimal ring
    // wins large ones (columns: linear, rec-doubling, ring).
    let (small, large) = (&rows[0], &rows[rows.len() - 1]);
    Ok(Section {
        text,
        gates: vec![
            ("collectives_recdbl_wins_small", small[1] < small[0]),
            ("collectives_ring_wins_large", large[2] < large[0]),
        ],
    })
}

/// A-imbalance: one rank at half speed under equal blocks, then under
/// speed-proportional blocks.
pub fn imbalance(smoke: bool) -> Result<Section, String> {
    let (tuples, p) = if smoke { (4_000, 4) } else { (40_000, 8) };
    let j = 16;
    let mut speeds = vec![1.0; p];
    speeds[0] = 0.5;
    let slow = presets::meiko_cs2(p).with_rank_speeds(speeds.clone());
    let configs = [
        ("homogeneous + block", presets::meiko_cs2(p), Partitioning::Block),
        ("slow rank 0 + block", slow.clone(), Partitioning::Block),
        ("slow rank 0 + weighted", slow, Partitioning::Weighted(speeds)),
    ];
    let data = datagen::paper_dataset(tuples, DATA_SEED);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "A-imbalance — seconds per base_cycle (virtual), {tuples} tuples, P={p}, J={j}"
    );
    let _ = writeln!(text, "{:>26} {:>12} {:>16}", "configuration", "s/cycle", "vs homogeneous");
    let mut t = Vec::new();
    for (name, machine, partition) in configs {
        let config = ParallelConfig { partition, ..ParallelConfig::default() };
        let s = fixed_j(&data, &machine, j, &config)?.per_cycle;
        let _ =
            writeln!(text, "{name:>26} {s:>12.4} {:>15.1}%", 100.0 * s / t.first().unwrap_or(&s));
        t.push(s);
    }
    // Gate: the slow node drags equal blocks; weighting recovers most of it.
    let recovers = t[1] > t[0] && t[2] < t[1];
    Ok(Section { text, gates: vec![("imbalance_weighted_recovers", recovers)] })
}

/// A-seq (§3): sequential (P = 1) time per base cycle grows linearly
/// with dataset size. Host time is shown next to the virtual clock.
pub fn seq(smoke: bool) -> Result<Section, String> {
    let sizes: &[usize] =
        if smoke { &[1_000, 2_000, 4_000] } else { &[5_000, 10_000, 20_000, 40_000, 80_000] };
    let machine = presets::meiko_cs2(1);
    let config = ParallelConfig::default();
    let mut text = String::new();
    let _ = writeln!(text, "A-seq — sequential (P=1) time per base_cycle vs dataset size");
    let _ = writeln!(
        text,
        "{:>10} {:>16} {:>16} {:>12}",
        "tuples", "virtual s/cycle", "host s/cycle", "virt/tuple"
    );
    let mut per_tuple = Vec::new();
    for &n in sizes {
        let data = datagen::paper_dataset(n, DATA_SEED);
        let host0 = Instant::now();
        let t = fixed_j(&data, &machine, 16, &config)?.per_cycle;
        let host = host0.elapsed().as_secs_f64() / CYCLES as f64;
        let _ = writeln!(text, "{n:>10} {t:>16.4} {host:>16.4} {:>12.3e}", t / n as f64);
        per_tuple.push(t / n as f64);
    }
    // Gate: virtual seconds per tuple are flat to 1 %.
    let (lo, hi) =
        per_tuple.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    Ok(Section { text, gates: vec![("seq_linear", hi <= 1.01 * lo)] })
}

/// F-ensemble: the fleet-parallel model search (G concurrent
/// sub-searches) against the serial search, at P × G.
pub fn fleet(smoke: bool) -> Result<Section, String> {
    // The bit-identity claims are pinned to recursive doubling + fused.
    let machine = |p: usize| {
        let mut m = presets::meiko_cs2(p);
        m.allreduce = AllreduceAlgo::RecursiveDoubling;
        m
    };
    let (n, max_cycles, ps): (usize, usize, &[usize]) =
        if smoke { (768, 4, &[8, 64]) } else { (1_536, 10, &[8, 64, 256]) };
    let gs: [usize; 4] = [1, 2, 4, 8];
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![2, 3, 4, 5],
            tries_per_j: 2,
            max_cycles,
            rel_delta_ll: 1e-4,
            min_class_weight: 1.0,
            seed: 33,
            max_stored: 4,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let data = datagen::paper_dataset(n, 5);
    // Each fleet computes at P/G ranks, so its trajectory is the serial
    // search's on a machine of the fleet's size: run the serial search at
    // every size the table needs.
    let sizes: BTreeSet<usize> = ps.iter().flat_map(|&p| gs.map(|g| p / g)).collect();
    let mut serial = BTreeMap::new();
    for p in sizes {
        let out = run_search_with(&data, &machine(p), &config, &SimOptions::default())
            .map_err(|e| format!("serial P={p}: {e}"))?;
        serial.insert(p, (out.elapsed, out.best.approx.log_likelihood));
    }
    let mut text = String::new();
    let _ = writeln!(text, "F-ensemble — fleet search vs serial, {n} tuples (virtual)");
    let _ = writeln!(
        text,
        "{:>5} {:>3} {:>10} {:>11} {:>13} {:>10} {:>15} {:>7}",
        "P", "G", "virtual_s", "candidates", "cands/vs", "vs serial", "best_ll", "steals"
    );
    let (mut no_worse, mut rate) = (true, BTreeMap::new());
    for &p in ps {
        for g in gs {
            let fc = FleetConfig { groups: g, ..FleetConfig::default() };
            let out =
                run_search_fleet_with(&data, &machine(p), &config, &fc, &SimOptions::default())
                    .map_err(|e| format!("fleet P={p} G={g}: {e}"))?;
            let (t, ll) = (out.outcome.elapsed, out.outcome.best.approx.log_likelihood);
            // With abandonment off the fleet replays the serial dedup chain
            // at its own size, so "no worse" is exact bit equality.
            no_worse &= ll.to_bits() == serial[&(p / g)].1.to_bits();
            let cands = out.fleet.candidates;
            rate.insert((p, g), cands as f64 / t);
            let _ = writeln!(
                text,
                "{p:>5} {g:>3} {t:>10.6} {cands:>11} {:>13.3} {:>10.3} {ll:>15.6} {:>7}",
                cands as f64 / t,
                serial[&p].0 / t,
                out.fleet.steals
            );
        }
    }
    // The second axis must pay off where the first saturates.
    let scales = rate.get(&(64, 8)) > rate.get(&(64, 1));
    Ok(Section {
        text,
        gates: vec![("fleet_no_worse_ll", no_worse), ("candidates_scale_with_g", scales)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_formatting() {
        assert_eq!(fmt_hms(0.0), "0.00.00");
        assert_eq!(fmt_hms(61.0), "0.01.01");
        assert_eq!(fmt_hms(3723.4), "1.02.03");
        assert_eq!(fmt_hms(-5.0), "0.00.00");
    }
}
