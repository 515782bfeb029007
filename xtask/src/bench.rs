//! `cargo xtask bench` — the repeatable benchmark harness behind
//! `BENCH_2.json`.
//!
//! Two measurements, both run in a single process so the comparison is
//! apples-to-apples:
//!
//! 1. **E-step kernels** (host wall time): the retained pre-blocking
//!    reference `update_wts_naive` versus the cache-blocked fused
//!    `update_wts_into` with a reused workspace, reported as items/s
//!    (items × classes per second). The harness also proves the two
//!    kernels numerically equivalent (final-rounding ulps) and their op
//!    accounting consistent with `estep_ops`, so the virtual-time model
//!    is unaffected by the optimization.
//! 2. **Virtual cycle times** (simulated seconds): `run_fixed_j` per
//!    strategy × P on the calibrated Meiko CS-2 model, plus a
//!    `full_fused_auto` row with the size-adaptive allreduce selector.
//!
//! A second artifact, `BENCH_4.json`, holds the communication-overlap
//! ablation: per-cycle virtual time and hidden (overlapped) communication
//! for the blocking per-term exchange, the blocking fused exchange, and
//! the non-blocking pipelined cycle, gated on (a) the fused single-pass
//! E+M kernel being *bitwise* equal to the two-pass form and (b) the
//! pipelined cycle being no slower than blocking Fused at P ≥ 4 with the
//! identical log likelihood.
//!
//! A third artifact, `BENCH_7.json` (written by `--native`), measures the
//! same three E-step kernels on **real silicon**: wall-clock items/s at
//! P ∈ {1,2,4,8} OS threads through the `shmcomm` native backend, plus a
//! sim-vs-native speedup-ratio table for the fused-exchange EM cycle —
//! how the LogGP-predicted scaling curve compares to what this host
//! actually delivers.
//!
//! A fourth artifact, `BENCH_9.json` (written by `--ensemble`), measures
//! the fleet-parallel model search — G concurrent sub-searches over split
//! communicators — against the serial search at P ∈ {8,64,256} ×
//! G ∈ {1,2,4,8}: candidates per virtual second, duplicate-elimination
//! hits, work steals, and the ensemble-consensus agreement, gated on the
//! fleet winner being bitwise the serial winner when the schedules are
//! identical and never worse elsewhere, and on a single fleet costing
//! within 5% of the serial search's virtual time at every P.
//!
//! Flags: `--smoke` (small sizes for CI), `--native` (run the native
//! wall-clock benchmark instead, default output `BENCH_7.json`),
//! `--ensemble` (run the fleet-search benchmark instead, default output
//! `BENCH_9.json`), `--out PATH` (default `BENCH_2.json` in the repo
//! root), `--out4 PATH` (default `BENCH_4.json`), `--check PATH`
//! (validate an existing results file of any of the four schemas instead
//! of benchmarking).

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use autoclass::data::{block_partition, GlobalStats};
use autoclass::model::{
    estep_ops, init_classes, update_wts_and_stats_into, update_wts_into, update_wts_naive, Model,
    StatLayout, SuffStats,
};
use autoclass::model::{EStepScratch, WtsMatrix};
use autoclass::search::SearchConfig;
use mpsim::{presets, AllreduceAlgo, MachineSpec, SimOptions};
use pautoclass::driver::{build_model, init_classes_parallel, parallel_base_cycle};
use pautoclass::{
    run_fixed_j, run_search_fleet_with, run_search_with, Consensus, Exchange, FleetConfig,
    ParallelConfig, Partitioning, Strategy,
};
use shmcomm::{run_native, NativeOptions};

pub fn bench(args: &[String]) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    if let Some(path) = flag_value("--check") {
        return check(Path::new(path));
    }
    let root = crate::repo_root();
    if args.iter().any(|a| a == "--ensemble") {
        let out_path =
            flag_value("--out").map(Into::into).unwrap_or_else(|| root.join("BENCH_9.json"));
        let json = match run_ensemble_benchmarks(smoke) {
            Ok(j) => j,
            Err(msg) => {
                eprintln!("xtask bench --ensemble: {msg}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("xtask bench --ensemble: cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask bench --ensemble: wrote {}", out_path.display());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--native") {
        let out_path =
            flag_value("--out").map(Into::into).unwrap_or_else(|| root.join("BENCH_7.json"));
        let json = match run_native_benchmarks(smoke) {
            Ok(j) => j,
            Err(msg) => {
                eprintln!("xtask bench --native: {msg}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("xtask bench --native: cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask bench --native: wrote {}", out_path.display());
        return ExitCode::SUCCESS;
    }
    let default_out = root.join("BENCH_2.json");
    let out_path = flag_value("--out").map(Into::into).unwrap_or(default_out);
    let default_out4 = root.join("BENCH_4.json");
    let out4_path = flag_value("--out4").map(Into::into).unwrap_or(default_out4);

    let json = match run_benchmarks(smoke) {
        Ok(j) => j,
        Err(msg) => {
            eprintln!("xtask bench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("xtask bench: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("xtask bench: wrote {}", out_path.display());

    let json4 = match run_overlap_benchmarks(smoke) {
        Ok(j) => j,
        Err(msg) => {
            eprintln!("xtask bench (overlap): {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out4_path, &json4) {
        eprintln!("xtask bench: cannot write {}: {e}", out4_path.display());
        return ExitCode::FAILURE;
    }
    println!("xtask bench: wrote {}", out4_path.display());
    ExitCode::SUCCESS
}

/// One strategy row of the virtual-cycle table.
struct CycleRow {
    strategy: &'static str,
    allreduce: &'static str,
    p: usize,
    per_cycle_s: f64,
    log_likelihood: f64,
}

fn run_benchmarks(smoke: bool) -> Result<String, String> {
    // ---- E-step kernel comparison (host time) -----------------------
    let (n, j, reps) = if smoke { (2_000, 8, 3) } else { (150_000, 16, 5) };
    eprintln!("xtask bench: estep kernels n={n} j={j} reps={reps}");
    let data = datagen::paper_dataset(n, 1);
    let view = data.full_view();
    let gstats = GlobalStats::compute(&view);
    let model = Model::new(data.schema().clone(), &gstats);
    let classes = init_classes(&model, &view, j, 7);

    let mut wts_a = WtsMatrix::new(0, 0);
    let mut wts_b = WtsMatrix::new(0, 0);
    let mut scratch = EStepScratch::default();

    // Correctness first: the blocked kernel must reproduce the reference
    // to final-rounding precision (phase 2 uses one `fast_exp` + multiply
    // where the reference calls libm `exp` twice, so agreement is a few
    // ulps, not bitwise), and both must report the op count the
    // virtual-time model charges for an E-step of these dimensions.
    let ref_out = update_wts_naive(&model, &view, &classes, &mut wts_a);
    let blk_out = update_wts_into(&model, &view, &classes, &mut wts_b, &mut scratch);
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-300);
    let mut max_rel_err = rel(ref_out.log_likelihood, blk_out.log_likelihood)
        .max(rel(ref_out.complete_ll, blk_out.complete_ll));
    for (a, b) in ref_out.class_weight_sums.iter().zip(&scratch.class_weight_sums) {
        max_rel_err = max_rel_err.max(rel(*a, *b));
    }
    for c in 0..j {
        for (a, b) in wts_a.class_column(c).iter().zip(wts_b.class_column(c)) {
            if a.abs().max(b.abs()) > 1e-100 {
                max_rel_err = max_rel_err.max(rel(*a, *b));
            }
        }
    }
    let kernels_match = max_rel_err < 1e-11;
    if !kernels_match {
        return Err(format!(
            "blocked E-step diverged from the naive reference: max rel err {max_rel_err:e}"
        ));
    }
    let expected_ops = estep_ops(n, j, model.n_attrs());
    let estep_ops_match = ref_out.ops == expected_ops && blk_out.ops == expected_ops;
    if !estep_ops_match {
        return Err(format!(
            "op accounting drifted: naive={} blocked={} estep_ops={}",
            ref_out.ops, blk_out.ops, expected_ops
        ));
    }

    // Throughput: best-of-reps wall time per kernel (both warmed above).
    let time_best = |mut f: Box<dyn FnMut() + '_>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let naive_s = time_best(Box::new(|| {
        update_wts_naive(&model, &view, &classes, &mut wts_a);
    }));
    let blocked_s = time_best(Box::new(|| {
        update_wts_into(&model, &view, &classes, &mut wts_b, &mut scratch);
    }));
    let elems = (n * j) as f64;
    let naive_items_per_s = elems / naive_s;
    let blocked_items_per_s = elems / blocked_s;
    let speedup = naive_s / blocked_s;
    eprintln!(
        "xtask bench: naive {naive_items_per_s:.3e} items/s, \
         blocked {blocked_items_per_s:.3e} items/s ({speedup:.2}x)"
    );

    // ---- Virtual cycle times (simulated seconds) --------------------
    let (cn, cj, cycles) = if smoke { (800, 8, 2) } else { (5_000, 8, 5) };
    eprintln!("xtask bench: virtual cycles n={cn} j={cj} cycles={cycles}");
    let cdata = datagen::paper_dataset(cn, 2);
    let mk_config = |strategy: Strategy| ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![cj],
            tries_per_j: 1,
            max_cycles: cycles,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 42,
            max_stored: 1,
        },
        strategy,
        partition: Partitioning::Block,
        correlated_blocks: Vec::new(),
    };
    type SeriesRow = (&'static str, &'static str, Strategy, fn(usize) -> MachineSpec);
    let series: [SeriesRow; 4] = [
        ("full_fused", "linear", Strategy::Full { exchange: Exchange::Fused }, presets::meiko_cs2),
        (
            "full_perterm",
            "linear",
            Strategy::Full { exchange: Exchange::PerTerm },
            presets::meiko_cs2,
        ),
        ("wts_only", "linear", Strategy::WtsOnly, presets::meiko_cs2),
        ("full_fused_auto", "auto", Strategy::Full { exchange: Exchange::Fused }, |p| {
            let mut spec = presets::meiko_cs2(p);
            spec.allreduce = AllreduceAlgo::Auto;
            spec
        }),
    ];
    let mut rows: Vec<CycleRow> = Vec::new();
    for (strategy_name, allreduce, strategy, machine) in series {
        for p in [1usize, 2, 4, 8] {
            let spec = machine(p);
            let cfg = mk_config(strategy);
            let timing = run_fixed_j(&cdata, &spec, cj, cycles, 42, &cfg)
                .map_err(|e| format!("{strategy_name} P={p}: {e}"))?;
            rows.push(CycleRow {
                strategy: strategy_name,
                allreduce,
                p,
                per_cycle_s: timing.per_cycle,
                log_likelihood: timing.log_likelihood,
            });
        }
    }

    // ---- Hand-formatted JSON ----------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"estep\": {\n");
    let _ = writeln!(out, "    \"n\": {n},");
    let _ = writeln!(out, "    \"j\": {j},");
    let _ = writeln!(out, "    \"reps\": {reps},");
    let _ = writeln!(out, "    \"naive_items_per_s\": {naive_items_per_s:.1},");
    let _ = writeln!(out, "    \"blocked_items_per_s\": {blocked_items_per_s:.1},");
    let _ = writeln!(out, "    \"speedup\": {speedup:.3},");
    let _ = writeln!(out, "    \"kernels_match\": {kernels_match},");
    let _ = writeln!(out, "    \"max_rel_err\": {max_rel_err:e},");
    let _ = writeln!(out, "    \"estep_ops_match\": {estep_ops_match}");
    out.push_str("  },\n");
    out.push_str("  \"cycles\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"strategy\": \"{}\", \"allreduce\": \"{}\", \"p\": {}, \
             \"per_cycle_s\": {:.6}, \"log_likelihood\": {:.6}}}{comma}",
            r.strategy, r.allreduce, r.p, r.per_cycle_s, r.log_likelihood
        );
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

/// The communication-overlap ablation behind `BENCH_4.json`.
fn run_overlap_benchmarks(smoke: bool) -> Result<String, String> {
    // ---- fused E+M kernel: bitwise equivalence (correctness gate) ----
    let (kn, kj) = if smoke { (1_500, 6) } else { (20_000, 12) };
    eprintln!("xtask bench: fused E+M kernel n={kn} j={kj}");
    let kdata = datagen::paper_dataset(kn, 3);
    let kview = kdata.full_view();
    let kgstats = GlobalStats::compute(&kview);
    let kmodel = Model::new(kdata.schema().clone(), &kgstats);
    let kclasses = init_classes(&kmodel, &kview, kj, 11);

    let mut wts_two = WtsMatrix::new(0, 0);
    let mut wts_fused = WtsMatrix::new(0, 0);
    let mut scratch_two = EStepScratch::default();
    let mut scratch_fused = EStepScratch::default();
    let layout = StatLayout::new(&kmodel, kj);
    let mut stats_two = SuffStats::zeros(layout.clone());
    let mut stats_fused = SuffStats::zeros(layout);
    let mut carry = Vec::new();

    let two_e = update_wts_into(&kmodel, &kview, &kclasses, &mut wts_two, &mut scratch_two);
    let two_ops = stats_two.accumulate(&kmodel, &kview, &wts_two);
    let (fused_e, fused_ops) = update_wts_and_stats_into(
        &kmodel,
        &kview,
        &kclasses,
        &mut wts_fused,
        &mut scratch_fused,
        &mut stats_fused,
        &mut carry,
    );
    let mut kernels_match = two_e.log_likelihood.to_bits() == fused_e.log_likelihood.to_bits()
        && two_e.complete_ll.to_bits() == fused_e.complete_ll.to_bits()
        && stats_two.data.len() == stats_fused.data.len();
    for (a, b) in stats_two.data.iter().zip(&stats_fused.data) {
        kernels_match &= a.to_bits() == b.to_bits();
    }
    for c in 0..kj {
        for (a, b) in wts_two.class_column(c).iter().zip(wts_fused.class_column(c)) {
            kernels_match &= a.to_bits() == b.to_bits();
        }
    }
    if !kernels_match {
        return Err("fused E+M kernel diverged bitwise from the two-pass form".to_string());
    }
    let stat_ops_match = two_ops == fused_ops;
    if !stat_ops_match {
        return Err(format!(
            "statistics op accounting drifted: two-pass={two_ops} fused={fused_ops}"
        ));
    }

    // ---- overlap ablation: virtual cycle times on the Meiko model ----
    let (cn, cj, cycles) = if smoke { (800, 8, 2) } else { (5_000, 8, 5) };
    eprintln!("xtask bench: overlap ablation n={cn} j={cj} cycles={cycles}");
    let cdata = datagen::paper_dataset(cn, 2);
    let mk_config = |exchange: Exchange| ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![cj],
            tries_per_j: 1,
            max_cycles: cycles,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 42,
            max_stored: 1,
        },
        strategy: Strategy::Full { exchange },
        partition: Partitioning::Block,
        correlated_blocks: Vec::new(),
    };
    struct OverlapRow {
        exchange: &'static str,
        p: usize,
        per_cycle_s: f64,
        hidden_s: f64,
        log_likelihood: f64,
    }
    let exchanges: [(&'static str, Exchange); 3] = [
        ("perterm", Exchange::PerTerm),
        ("fused", Exchange::Fused),
        ("pipelined", Exchange::Pipelined),
    ];
    let mut rows: Vec<OverlapRow> = Vec::new();
    for (name, exchange) in exchanges {
        for p in [1usize, 2, 4, 8] {
            let spec = presets::meiko_cs2(p);
            let timing = run_fixed_j(&cdata, &spec, cj, cycles, 42, &mk_config(exchange))
                .map_err(|e| format!("{name} P={p}: {e}"))?;
            let hidden_s = timing.ranks.iter().map(|r| r.hidden_comm).fold(0.0, f64::max);
            rows.push(OverlapRow {
                exchange: name,
                p,
                per_cycle_s: timing.per_cycle,
                hidden_s,
                log_likelihood: timing.log_likelihood,
            });
        }
    }
    // Gates: at every P ≥ 4 the pipelined cycle is no slower than blocking
    // Fused, and at every P its log likelihood is bitwise identical.
    let mut overlap_ok = true;
    let mut ll_match = true;
    for r in rows.iter().filter(|r| r.exchange == "pipelined") {
        let fused =
            rows.iter().find(|f| f.exchange == "fused" && f.p == r.p).ok_or("missing fused row")?;
        if r.p >= 4 && r.per_cycle_s > fused.per_cycle_s {
            overlap_ok = false;
        }
        ll_match &= r.log_likelihood.to_bits() == fused.log_likelihood.to_bits();
    }
    if !overlap_ok {
        return Err("pipelined cycle slower than blocking Fused at P >= 4".to_string());
    }
    if !ll_match {
        return Err("pipelined log likelihood diverged from blocking Fused".to_string());
    }

    // ---- Hand-formatted JSON ----------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"kind\": \"overlap\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"fused_kernel\": {\n");
    let _ = writeln!(out, "    \"n\": {kn},");
    let _ = writeln!(out, "    \"j\": {kj},");
    let _ = writeln!(out, "    \"kernels_match\": {kernels_match},");
    let _ = writeln!(out, "    \"stat_ops_match\": {stat_ops_match}");
    out.push_str("  },\n");
    out.push_str("  \"gates\": {\n");
    let _ = writeln!(out, "    \"overlap_ok\": {overlap_ok},");
    let _ = writeln!(out, "    \"ll_bitwise_equal\": {ll_match}");
    out.push_str("  },\n");
    out.push_str("  \"cycles\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"exchange\": \"{}\", \"p\": {}, \"per_cycle_s\": {:.6}, \
             \"hidden_s\": {:.6}, \"log_likelihood\": {:.6}}}{comma}",
            r.exchange, r.p, r.per_cycle_s, r.hidden_s, r.log_likelihood
        );
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

/// The native wall-clock benchmark behind `BENCH_7.json`: the three
/// E-step kernels timed on P real OS threads through the `shmcomm`
/// backend, and the fused-exchange EM cycle's measured speedup curve
/// against the simulator's LogGP-predicted one.
fn run_native_benchmarks(smoke: bool) -> Result<String, String> {
    let ps: [usize; 4] = [1, 2, 4, 8];
    let host_threads = std::thread::available_parallelism().map_or(0, usize::from);

    // ---- kernel throughput on real threads --------------------------
    let (n, j, reps) = if smoke { (2_000, 8, 3) } else { (40_000, 16, 5) };
    eprintln!("xtask bench --native: kernels n={n} j={j} reps={reps} host_threads={host_threads}");
    let data = datagen::paper_dataset(n, 1);
    let gstats = GlobalStats::compute(&data.full_view());
    let model = Model::new(data.schema().clone(), &gstats);
    let classes = init_classes(&model, &data.full_view(), j, 7);

    struct KernelRow {
        kernel: &'static str,
        p: usize,
        items_per_s: f64,
    }
    let kernels: [&'static str; 3] = ["naive", "blocked", "fused"];
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    for kernel in kernels {
        for p in ps {
            let machine = presets::meiko_cs2(p);
            let parts = block_partition(data.len(), p);
            let out = run_native(&machine, &NativeOptions::default(), |comm| {
                let part = &parts[comm.rank()];
                let view = data.view(part.start, part.end);
                let mut wts = WtsMatrix::new(0, 0);
                let mut scratch = EStepScratch::default();
                let mut stats = SuffStats::zeros(StatLayout::new(&model, j));
                let mut carry = Vec::new();
                let mut best = f64::INFINITY;
                for _ in 0..reps {
                    // Every rank starts each repetition together, so the
                    // measured window is the collective kernel pass.
                    comm.barrier();
                    let t0 = comm.now();
                    match kernel {
                        "naive" => {
                            update_wts_naive(&model, &view, &classes, &mut wts);
                        }
                        "blocked" => {
                            update_wts_into(&model, &view, &classes, &mut wts, &mut scratch);
                        }
                        _ => {
                            update_wts_and_stats_into(
                                &model,
                                &view,
                                &classes,
                                &mut wts,
                                &mut scratch,
                                &mut stats,
                                &mut carry,
                            );
                        }
                    }
                    // Close the window with a barrier so the measurement
                    // covers the whole collective pass — not just this
                    // rank's slice, which on an oversubscribed host would
                    // overstate throughput by ~P.
                    comm.barrier();
                    best = best.min(comm.now() - t0);
                }
                best
            })
            .map_err(|e| format!("{kernel} P={p}: {e}"))?;
            // The slowest rank bounds collective throughput.
            let worst = out.per_rank.iter().copied().fold(0.0, f64::max);
            if !(worst.is_finite() && worst > 0.0) {
                return Err(format!("{kernel} P={p}: degenerate kernel time {worst}"));
            }
            kernel_rows.push(KernelRow { kernel, p, items_per_s: (n * j) as f64 / worst });
        }
    }
    for r in &kernel_rows {
        eprintln!("xtask bench --native: {} P={} {:.3e} items/s", r.kernel, r.p, r.items_per_s);
    }

    // ---- sim-vs-native speedup of the fused-exchange EM cycle -------
    let (cn, cj, cycles) = if smoke { (800, 8, 2) } else { (5_000, 8, 5) };
    eprintln!("xtask bench --native: fused cycles n={cn} j={cj} cycles={cycles}");
    let cdata = datagen::paper_dataset(cn, 2);
    let cfg = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![cj],
            tries_per_j: 1,
            max_cycles: cycles,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            seed: 42,
            max_stored: 1,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        partition: Partitioning::Block,
        correlated_blocks: Vec::new(),
    };
    struct SpeedupRow {
        p: usize,
        sim_per_cycle_s: f64,
        native_per_cycle_s: f64,
    }
    let mut speedup_rows: Vec<SpeedupRow> = Vec::new();
    for p in ps {
        let spec = presets::meiko_cs2(p);
        let sim = run_fixed_j(&cdata, &spec, cj, cycles, 42, &cfg)
            .map_err(|e| format!("sim cycles P={p}: {e}"))?;
        let parts = block_partition(cdata.len(), p);
        let out = run_native(&spec, &NativeOptions::default(), |comm| {
            comm.enter_phase("search");
            let part = &parts[comm.rank()];
            let view = cdata.view(part.start, part.end);
            let cmodel = build_model(comm, &view, &cfg.correlated_blocks);
            let mut cls = Vec::new();
            init_classes_parallel(comm, &cmodel, &view, cj, 42, &mut cls);
            let mut ws = autoclass::model::CycleWorkspace::new();
            comm.barrier();
            let t0 = comm.now();
            for _ in 0..cycles {
                parallel_base_cycle(comm, &cmodel, &view, &mut cls, &mut ws, cfg.strategy);
            }
            let dt = comm.now() - t0;
            comm.exit_phase();
            dt
        })
        .map_err(|e| format!("native cycles P={p}: {e}"))?;
        let native_elapsed = out.per_rank.iter().copied().fold(0.0, f64::max);
        speedup_rows.push(SpeedupRow {
            p,
            sim_per_cycle_s: sim.per_cycle,
            native_per_cycle_s: native_elapsed / cycles.max(1) as f64,
        });
    }
    let sim1 = speedup_rows[0].sim_per_cycle_s;
    let nat1 = speedup_rows[0].native_per_cycle_s;
    for r in &speedup_rows {
        let (ss, ns) = (sim1 / r.sim_per_cycle_s, nat1 / r.native_per_cycle_s);
        if !(ss.is_finite() && ss > 0.0 && ns.is_finite() && ns > 0.0) {
            return Err(format!("P={}: degenerate speedup (sim {ss:.3}, native {ns:.3})", r.p));
        }
    }

    // ---- Hand-formatted JSON ----------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"kind\": \"native\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    out.push_str("  \"gates\": {\n");
    // Enforced above; recorded so --check can assert on the artifact.
    let _ = writeln!(out, "    \"kernels_finite\": true,");
    let _ = writeln!(out, "    \"speedups_finite\": true");
    out.push_str("  },\n");
    out.push_str("  \"kernels\": [\n");
    for (i, r) in kernel_rows.iter().enumerate() {
        let comma = if i + 1 < kernel_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"p\": {}, \"items_per_s\": {:.1}}}{comma}",
            r.kernel, r.p, r.items_per_s
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedup_ratio\": [\n");
    for (i, r) in speedup_rows.iter().enumerate() {
        let comma = if i + 1 < speedup_rows.len() { "," } else { "" };
        let (ss, ns) = (sim1 / r.sim_per_cycle_s, nat1 / r.native_per_cycle_s);
        let _ = writeln!(
            out,
            "    {{\"p\": {}, \"sim_per_cycle_s\": {:.9}, \"native_per_cycle_s\": {:.9}, \
             \"sim_speedup\": {ss:.3}, \"native_speedup\": {ns:.3}, \"ratio\": {:.3}}}{comma}",
            r.p,
            r.sim_per_cycle_s,
            r.native_per_cycle_s,
            ns / ss
        );
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

/// The fleet-parallel search benchmark behind `BENCH_9.json`: the serial
/// search versus the fleet search (G concurrent sub-searches over split
/// communicators) at P ∈ {8, 64, 256} × G ∈ {1, 2, 4, 8}, gated on
/// (a) the fleet winner being *bitwise* the serial winner when the
/// schedules are identical, (b) the fleet's best log likelihood never
/// being worse than the serial search's at any (P, G), (c) duplicate
/// elimination actually firing in the overlapping-schedule scenario, and
/// (d) candidates/s growing with G at P = 64, and (e) G = 1 finishing
/// within 5% of the serial search's virtual time at every P (the fleet
/// control plane costs nothing without a second fleet), plus an
/// ensemble-consensus row recording the co-association vote.
fn run_ensemble_benchmarks(smoke: bool) -> Result<String, String> {
    // The equivalence claims are pinned to the deterministic pair the
    // group collectives mirror: recursive-doubling + fused exchange.
    let rd_machine = |p: usize| {
        let mut m = presets::meiko_cs2(p);
        m.allreduce = AllreduceAlgo::RecursiveDoubling;
        m
    };

    // ---- bitwise parity: fleet winner == serial winner --------------
    // Two fleets of four versus the serial search on a machine of one
    // fleet's size: same candidate schedule, same numbers, same bits.
    let pdata = datagen::paper_dataset(if smoke { 240 } else { 360 }, 11);
    let pcfg = ParallelConfig {
        search: SearchConfig::quick(vec![3, 5], 7),
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let serial_ref = run_search_with(&pdata, &rd_machine(4), &pcfg, &SimOptions::default())
        .map_err(|e| format!("parity serial p=4: {e}"))?;
    let fleet_ref = run_search_fleet_with(
        &pdata,
        &rd_machine(8),
        &pcfg,
        &FleetConfig { groups: 2, ..FleetConfig::default() },
        &SimOptions::default(),
    )
    .map_err(|e| format!("parity fleet p=8 g=2: {e}"))?;
    let fleet_bitwise_best_model = fleet_ref.outcome.best.approx.log_likelihood.to_bits()
        == serial_ref.best.approx.log_likelihood.to_bits()
        && fleet_ref.outcome.best.seed == serial_ref.best.seed
        && fleet_ref.outcome.cycles == serial_ref.cycles;
    if !fleet_bitwise_best_model {
        return Err("fleet winner diverged bitwise from the serial search".to_string());
    }
    eprintln!("xtask bench --ensemble: parity P=8 G=2 vs serial P=4 bitwise ok");

    // ---- duplicate elimination + ensemble consensus -----------------
    // Four restarts of the same J land in one basin: the cross-fleet
    // fingerprint filter must cut the twins short, and the ensemble
    // consensus must produce a replicated vote over the survivors.
    let ddata = datagen::paper_dataset(300, 21);
    let dcfg = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![3],
            tries_per_j: 4,
            max_cycles: 60,
            rel_delta_ll: 1e-6,
            min_class_weight: 1.0,
            seed: 17,
            max_stored: 10,
        },
        strategy: Strategy::Full { exchange: Exchange::Fused },
        ..ParallelConfig::default()
    };
    let dfc = FleetConfig {
        groups: 2,
        round_cycles: 3,
        dedup_every: 1,
        consensus: Consensus::Ensemble { voters: 3 },
    };
    let dedup_out =
        run_search_fleet_with(&ddata, &rd_machine(4), &dcfg, &dfc, &SimOptions::default())
            .map_err(|e| format!("dedup fleet p=4 g=2: {e}"))?;
    let dedup_fired = dedup_out.fleet.dedup_hits > 0 && dedup_out.fleet.dedup_saved_cycles > 0;
    if !dedup_fired {
        return Err(format!(
            "overlapping schedules did not trip the duplicate filter: {:?}",
            dedup_out.fleet
        ));
    }
    let ensemble = dedup_out
        .fleet
        .ensemble
        .as_ref()
        .ok_or_else(|| "ensemble consensus ran no vote".to_string())?;
    let ensemble_ran = ensemble.voters > 0 && ensemble.agreement > 0.0 && ensemble.agreement <= 1.0;
    if !ensemble_ran {
        return Err(format!("degenerate ensemble vote: {ensemble:?}"));
    }
    eprintln!(
        "xtask bench --ensemble: dedup_hits={} saved_cycles={} agreement={:.3}",
        dedup_out.fleet.dedup_hits, dedup_out.fleet.dedup_saved_cycles, ensemble.agreement
    );

    // ---- candidates/s scaling: serial vs fleet at P × G -------------
    let (sn, max_cycles) = if smoke { (768, 4) } else { (1_536, 10) };
    let scfg = ParallelConfig {
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
    let n_candidates = scfg.search.start_j_list.len() * scfg.search.tries_per_j;
    let sdata = datagen::paper_dataset(sn, 5);
    struct SerialRow {
        p: usize,
        virtual_s: f64,
        cands_per_vs: f64,
        best_ll: f64,
    }
    struct FleetRow {
        p: usize,
        g: usize,
        virtual_s: f64,
        candidates: usize,
        cands_per_vs: f64,
        speedup_vs_serial: f64,
        best_ll: f64,
        steals: usize,
    }
    let ps: &[usize] = if smoke { &[8, 64] } else { &[8, 64, 256] };
    let gs: [usize; 4] = [1, 2, 4, 8];
    // Each fleet computes at P/G ranks, so its trajectory is the serial
    // search's at a machine of the fleet's size — run the serial
    // reference at every distinct size the table needs.
    let mut sizes: Vec<usize> = ps.iter().flat_map(|&p| gs.iter().map(move |&g| p / g)).collect();
    sizes.extend(ps.iter().copied());
    sizes.sort_unstable();
    sizes.dedup();
    let mut serial_at = std::collections::BTreeMap::new();
    for &p in &sizes {
        let serial = run_search_with(&sdata, &rd_machine(p), &scfg, &SimOptions::default())
            .map_err(|e| format!("serial P={p}: {e}"))?;
        serial_at.insert(p, serial);
    }
    let mut serial_rows: Vec<SerialRow> = Vec::new();
    for &p in &sizes {
        let serial = &serial_at[&p];
        serial_rows.push(SerialRow {
            p,
            virtual_s: serial.elapsed,
            cands_per_vs: n_candidates as f64 / serial.elapsed,
            best_ll: serial.best.approx.log_likelihood,
        });
    }
    let mut fleet_rows: Vec<FleetRow> = Vec::new();
    let mut fleet_no_worse_ll = true;
    for &p in ps {
        for g in gs {
            let fc = FleetConfig { groups: g, ..FleetConfig::default() };
            let out =
                run_search_fleet_with(&sdata, &rd_machine(p), &scfg, &fc, &SimOptions::default())
                    .map_err(|e| format!("fleet P={p} G={g}: {e}"))?;
            let ll = out.outcome.best.approx.log_likelihood;
            // With abandonment off the fleet replays the serial dedup
            // chain over the same candidates, each computed at the
            // fleet's own size — the winner must match serial-at-(P/G)
            // bit for bit, which also makes "no worse" exact.
            let sub_ll = serial_at[&(p / g)].best.approx.log_likelihood;
            let ok = ll.to_bits() == sub_ll.to_bits();
            if !ok {
                eprintln!(
                    "xtask bench --ensemble: P={p} G={g} best_ll {ll:.9} differs from \
                     serial-at-{} {sub_ll:.9}",
                    p / g
                );
            }
            fleet_no_worse_ll &= ok;
            let virtual_s = out.outcome.elapsed;
            eprintln!(
                "xtask bench --ensemble: P={p} G={g} virtual {virtual_s:.4}s, \
                 {} candidates, {} steals",
                out.fleet.candidates, out.fleet.steals
            );
            fleet_rows.push(FleetRow {
                p,
                g,
                virtual_s,
                candidates: out.fleet.candidates,
                cands_per_vs: out.fleet.candidates as f64 / virtual_s,
                speedup_vs_serial: serial_at[&p].elapsed / virtual_s,
                best_ll: ll,
                steals: out.fleet.steals,
            });
        }
    }
    if !fleet_no_worse_ll {
        return Err(
            "a fleet run's winner diverged from the serial search at the fleet's size".to_string()
        );
    }
    // The second parallel axis must pay off where the paper's first one
    // saturates: more fleets, more candidates per virtual second.
    let rate = |p: usize, g: usize| {
        fleet_rows.iter().find(|r| r.p == p && r.g == g).map(|r| r.cands_per_vs)
    };
    let scale_p = 64;
    let candidates_scale_with_g = match (rate(scale_p, 1), rate(scale_p, 8)) {
        (Some(r1), Some(r8)) => r8 > r1,
        _ => false,
    };
    if !candidates_scale_with_g {
        return Err(format!("candidates/s did not grow with G at P={scale_p}"));
    }
    let fleet_g1_near_serial = ps.iter().all(|&p| {
        fleet_rows
            .iter()
            .find(|r| r.p == p && r.g == 1)
            .is_some_and(|r| r.virtual_s <= 1.05 * serial_at[&p].elapsed)
    });
    if !fleet_g1_near_serial {
        return Err("a single fleet cost more than 5% over the serial search".to_string());
    }

    // ---- Hand-formatted JSON ----------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"kind\": \"ensemble\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"gates\": {\n");
    let _ = writeln!(out, "    \"fleet_bitwise_best_model\": {fleet_bitwise_best_model},");
    let _ = writeln!(out, "    \"fleet_no_worse_ll\": {fleet_no_worse_ll},");
    let _ = writeln!(out, "    \"dedup_fired\": {dedup_fired},");
    let _ = writeln!(out, "    \"candidates_scale_with_g\": {candidates_scale_with_g},");
    let _ = writeln!(out, "    \"fleet_g1_near_serial\": {fleet_g1_near_serial},");
    let _ = writeln!(out, "    \"ensemble_ran\": {ensemble_ran}");
    out.push_str("  },\n");
    out.push_str("  \"dedup\": {\n");
    let _ = writeln!(out, "    \"p\": 4,");
    let _ = writeln!(out, "    \"g\": 2,");
    let _ = writeln!(out, "    \"candidates\": {},", dedup_out.fleet.candidates);
    let _ = writeln!(out, "    \"dedup_hits\": {},", dedup_out.fleet.dedup_hits);
    let _ = writeln!(out, "    \"dedup_saved_cycles\": {},", dedup_out.fleet.dedup_saved_cycles);
    let _ = writeln!(out, "    \"voters\": {},", ensemble.voters);
    let _ = writeln!(out, "    \"agreement\": {:.6},", ensemble.agreement);
    let _ = writeln!(out, "    \"label_hash\": {}", ensemble.label_hash);
    out.push_str("  },\n");
    out.push_str("  \"serial\": [\n");
    for (i, r) in serial_rows.iter().enumerate() {
        let comma = if i + 1 < serial_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"p\": {}, \"virtual_s\": {:.6}, \"cands_per_vs\": {:.3}, \
             \"best_ll\": {:.6}}}{comma}",
            r.p, r.virtual_s, r.cands_per_vs, r.best_ll
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"scaling\": [\n");
    for (i, r) in fleet_rows.iter().enumerate() {
        let comma = if i + 1 < fleet_rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"p\": {}, \"g\": {}, \"virtual_s\": {:.6}, \"candidates\": {}, \
             \"cands_per_vs\": {:.3}, \"speedup_vs_serial\": {:.3}, \"best_ll\": {:.6}, \
             \"steals\": {}}}{comma}",
            r.p,
            r.g,
            r.virtual_s,
            r.candidates,
            r.cands_per_vs,
            r.speedup_vs_serial,
            r.best_ll,
            r.steals
        );
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

/// Required keys for the fleet-search artifact (`BENCH_9.json`).
const ENSEMBLE_REQUIRED: [&str; 13] = [
    "\"schema_version\": 1",
    "\"kind\": \"ensemble\"",
    "\"fleet_bitwise_best_model\": true",
    "\"fleet_no_worse_ll\": true",
    "\"dedup_fired\": true",
    "\"candidates_scale_with_g\": true",
    "\"fleet_g1_near_serial\": true",
    "\"ensemble_ran\": true",
    "\"dedup_hits\"",
    "\"agreement\"",
    "\"serial\"",
    "\"scaling\"",
    "\"cands_per_vs\"",
];

/// Required keys for the native wall-clock artifact (`BENCH_7.json`).
const NATIVE_REQUIRED: [&str; 13] = [
    "\"schema_version\": 1",
    "\"kind\": \"native\"",
    "\"host_threads\"",
    "\"kernels_finite\": true",
    "\"speedups_finite\": true",
    "\"kernels\"",
    "\"naive\"",
    "\"blocked\"",
    "\"fused\"",
    "\"items_per_s\"",
    "\"speedup_ratio\"",
    "\"sim_speedup\"",
    "\"native_speedup\"",
];

/// Structural validation of a results file: the required keys exist and
/// the correctness gates read `true` (which set of keys depends on the
/// artifact's schema — the kernel benchmark, the overlap ablation, or the
/// native wall-clock run). Intentionally tolerant of numeric values — CI
/// checks shape and invariants, not machine speed.
fn check(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bench --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if text.contains("\"kind\": \"overlap\"") {
        return check_keys(path, &text, &OVERLAP_REQUIRED);
    }
    if text.contains("\"kind\": \"native\"") {
        return check_keys(path, &text, &NATIVE_REQUIRED);
    }
    if text.contains("\"kind\": \"ensemble\"") {
        return check_keys(path, &text, &ENSEMBLE_REQUIRED);
    }
    let required = [
        "\"schema_version\": 1",
        "\"estep\"",
        "\"naive_items_per_s\"",
        "\"blocked_items_per_s\"",
        "\"speedup\"",
        "\"kernels_match\": true",
        "\"estep_ops_match\": true",
        "\"cycles\"",
        "\"per_cycle_s\"",
        "\"full_fused\"",
        "\"full_perterm\"",
        "\"wts_only\"",
        "\"full_fused_auto\"",
    ];
    check_keys(path, &text, &required)
}

/// Required keys for the overlap-ablation artifact (`BENCH_4.json`).
const OVERLAP_REQUIRED: [&str; 11] = [
    "\"schema_version\": 1",
    "\"kind\": \"overlap\"",
    "\"fused_kernel\"",
    "\"kernels_match\": true",
    "\"stat_ops_match\": true",
    "\"overlap_ok\": true",
    "\"ll_bitwise_equal\": true",
    "\"cycles\"",
    "\"perterm\"",
    "\"fused\"",
    "\"pipelined\"",
];

fn check_keys(path: &Path, text: &str, required: &[&str]) -> ExitCode {
    let mut missing = Vec::new();
    for &key in required {
        if !text.contains(key) {
            missing.push(key);
        }
    }
    if missing.is_empty() {
        println!("xtask bench --check: {} ok", path.display());
        ExitCode::SUCCESS
    } else {
        for key in missing {
            eprintln!("xtask bench --check: {} missing {key}", path.display());
        }
        ExitCode::FAILURE
    }
}
