//! # bench — experiment harnesses for the P-AutoClass reproduction
//!
//! Shared machinery for the figure-regenerating binaries (`fig6`, `fig7`,
//! `fig8`, `profile_phases`, `ablation_strategy`, `ablation_allreduce`,
//! `seq_scaling`) and the Criterion benches. Each binary prints the same
//! rows/series as the corresponding figure or claim in the paper;
//! EXPERIMENTS.md records paper-vs-measured values.
//!
//! All experiments run the real parallel algorithm on the simulated Meiko
//! CS-2 (`mpsim::presets::meiko_cs2`); elapsed times are deterministic
//! virtual seconds.

#![warn(missing_docs)]

use autoclass::search::SearchConfig;
use mpsim::{presets, Engine};
use pautoclass::{run_search_with, ParallelConfig, ParallelOutcome, Strategy};

/// The dataset sizes of the paper's Figures 6–7 (tuples of two reals).
pub const PAPER_SIZES: &[usize] = &[5_000, 10_000, 20_000, 40_000, 60_000, 80_000, 100_000];

/// Processor counts of the paper's experiments (Meiko CS-2, up to 10).
pub const PAPER_PROCS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// One full experiment grid: elapsed time of a search for each
/// (dataset size, processor count) pair.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Dataset sizes (tuples).
    pub sizes: Vec<usize>,
    /// Processor counts.
    pub procs: Vec<usize>,
    /// Search settings used at every grid point.
    pub search: SearchConfig,
    /// Parallelization strategy.
    pub strategy: Strategy,
    /// Dataset seed.
    pub data_seed: u64,
}

impl GridConfig {
    /// The reduced default grid: the paper's sizes and processor counts,
    /// but a shortened `start_j_list` and a cycle cap so the whole grid
    /// runs in minutes on one host core. Shapes (who wins, where speedup
    /// saturates) are preserved; absolute times scale down accordingly.
    pub fn quick() -> Self {
        GridConfig {
            sizes: PAPER_SIZES.to_vec(),
            procs: PAPER_PROCS.to_vec(),
            search: SearchConfig {
                start_j_list: vec![2, 4, 8, 16],
                tries_per_j: 1,
                max_cycles: 10,
                rel_delta_ll: 0.0,     // fixed cycle count: comparable times
                min_class_weight: 0.0, // no class death: stable J per run
                seed: 0xF16,
                max_stored: 4,
            },
            strategy: Strategy::default(),
            data_seed: 0xDA7A,
        }
    }

    /// The paper's full configuration: `start_j_list = 2,4,8,16,24,50,64`.
    /// Expect a long run; use `quick()` unless regenerating final numbers.
    pub fn full() -> Self {
        let mut g = GridConfig::quick();
        g.search.start_j_list = vec![2, 4, 8, 16, 24, 50, 64];
        g.search.max_cycles = 20;
        g
    }
}

/// Elapsed virtual time (seconds) of every grid point:
/// `result[size_idx][proc_idx]`.
pub fn run_grid(cfg: &GridConfig) -> Vec<Vec<f64>> {
    cfg.sizes
        .iter()
        .map(|&n| {
            let data = datagen::paper_dataset(n, cfg.data_seed);
            cfg.procs.iter().map(|&p| run_one(&data, p, cfg).elapsed).collect()
        })
        .collect()
}

/// Run one grid point and return the full outcome.
pub fn run_one(data: &autoclass::data::Dataset, p: usize, cfg: &GridConfig) -> ParallelOutcome {
    let machine = presets::meiko_cs2(p);
    let pc = ParallelConfig {
        search: cfg.search.clone(),
        strategy: cfg.strategy,
        ..ParallelConfig::default()
    };
    // The cooperative engine is bitwise identical to the threaded one and
    // carries each rank on one OS thread at a time.
    let opts = mpsim::SimOptions { engine: Engine::Cooperative, ..Default::default() };
    // lint:allow(unwrap): bench harness; a failed simulation should abort the run
    run_search_with(data, &machine, &pc, &opts).expect("simulated run failed")
}

/// Format seconds as the paper's `h.mm.ss` axis labels.
pub fn fmt_hms(secs: f64) -> String {
    let total = secs.round().max(0.0) as u64;
    let h = total / 3600;
    let m = (total % 3600) / 60;
    let s = total % 60;
    format!("{h}.{m:02}.{s:02}")
}

/// Print a labeled table: rows = sizes, columns = processor counts.
pub fn print_table(title: &str, sizes: &[usize], procs: &[usize], cells: &[Vec<String>]) {
    println!("{title}");
    print!("{:>12}", "tuples\\procs");
    for p in procs {
        print!("{p:>10}");
    }
    println!();
    for (row, &n) in cells.iter().zip(sizes) {
        print!("{n:>12}");
        for cell in row {
            print!("{cell:>10}");
        }
        println!();
    }
}

/// Parse harness CLI args: `--full` switches to the paper's full
/// configuration, `--sizes a,b,c` and `--procs a,b,c` override the grid.
pub fn grid_from_args(args: &[String]) -> GridConfig {
    let mut cfg =
        if args.iter().any(|a| a == "--full") { GridConfig::full() } else { GridConfig::quick() };
    let list_after = |flag: &str| -> Option<Vec<usize>> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad {flag} value {s:?}")))
                .collect()
        })
    };
    if let Some(sizes) = list_after("--sizes") {
        cfg.sizes = sizes;
    }
    if let Some(procs) = list_after("--procs") {
        cfg.procs = procs;
    }
    cfg
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

    #[test]
    fn quick_grid_covers_paper_axes() {
        let g = GridConfig::quick();
        assert_eq!(g.sizes, PAPER_SIZES);
        assert_eq!(g.procs.len(), 10);
    }

    #[test]
    fn args_override_grid() {
        let args: Vec<String> =
            ["--sizes", "100,200", "--procs", "1,2"].iter().map(|s| s.to_string()).collect();
        let g = grid_from_args(&args);
        assert_eq!(g.sizes, vec![100, 200]);
        assert_eq!(g.procs, vec![1, 2]);
    }

    #[test]
    fn run_one_is_bitwise_identical_to_the_threaded_engine() {
        let mut g = GridConfig::quick();
        g.search.start_j_list = vec![2, 4];
        g.search.max_cycles = 3;
        let data = datagen::paper_dataset(300, g.data_seed);
        let coop = run_one(&data, 3, &g);
        let pc = ParallelConfig {
            search: g.search.clone(),
            strategy: g.strategy,
            ..ParallelConfig::default()
        };
        let threaded =
            run_search_with(&data, &presets::meiko_cs2(3), &pc, &mpsim::SimOptions::default())
                .unwrap();
        assert_eq!(coop.elapsed.to_bits(), threaded.elapsed.to_bits());
        assert_eq!(
            coop.best.approx.log_likelihood.to_bits(),
            threaded.best.approx.log_likelihood.to_bits()
        );
    }

    #[test]
    fn tiny_grid_runs() {
        let mut g = GridConfig::quick();
        g.sizes = vec![300];
        g.procs = vec![1, 3];
        g.search.start_j_list = vec![2];
        g.search.max_cycles = 3;
        let cells = run_grid(&g);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].len(), 2);
        assert!(cells[0].iter().all(|&t| t > 0.0));
    }
}
