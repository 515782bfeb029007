//! Scaling study in miniature: the paper's three measurements (elapsed
//! time, speedup, scaleup) on one small workload, plus the k-means
//! baseline on the identical simulated machine — a compact tour of the
//! whole evaluation pipeline. `cargo xtask report` runs the full-size
//! grids of Figures 6–8.
//!
//! Run with: `cargo run --example cluster_scaling --release`

use autoclass::search::SearchConfig;
use kmeans::{kmeans_parallel, KMeansConfig};
use pautoclass::{run_fixed_j, run_search, ParallelConfig};

fn main() {
    let n = 10_000;
    let data = datagen::paper_dataset(n, 0xDA7A);
    let config = ParallelConfig {
        search: SearchConfig {
            start_j_list: vec![4, 8],
            tries_per_j: 1,
            max_cycles: 10,
            rel_delta_ll: 0.0,
            min_class_weight: 0.0,
            ..SearchConfig::default()
        },
        ..ParallelConfig::default()
    };

    // Elapsed time and speedup vs processors (Figs 6 & 7 in miniature).
    println!("P-AutoClass on the simulated Meiko CS-2, {n} tuples:");
    println!("{:>6} {:>12} {:>9} {:>11}", "procs", "elapsed [s]", "speedup", "efficiency");
    let mut t1 = 0.0;
    for p in [1usize, 2, 4, 6, 8, 10] {
        let machine = mpsim::presets::meiko_cs2(p);
        let out = run_search(&data, &machine, &config).expect("simulated run");
        if p == 1 {
            t1 = out.elapsed;
        }
        let speedup = t1 / out.elapsed;
        println!(
            "{p:>6} {:>12.2} {speedup:>9.2} {:>10.0}%",
            out.elapsed,
            100.0 * speedup / p as f64
        );
    }

    // Scaleup (Fig 8 in miniature): fixed 2 000 tuples per processor.
    println!("\nscaleup: 2 000 tuples per processor, seconds per base_cycle (J=8):");
    print!("  ");
    for p in [1usize, 2, 4, 8, 10] {
        let d = datagen::paper_dataset(2_000 * p, 0xDA7A);
        let machine = mpsim::presets::meiko_cs2(p);
        let t = run_fixed_j(&d, &machine, 8, 3, 7, &config).expect("run").per_cycle;
        print!("P={p}: {t:.3}s  ");
    }
    println!("\n(nearly constant = good scaleup)");

    // The k-means baseline on the identical machine and data.
    println!("\nparallel k-means baseline (k=8) on the same machine:");
    for p in [1usize, 10] {
        let machine = mpsim::presets::meiko_cs2(p);
        let km = kmeans_parallel(
            &data,
            &machine,
            &KMeansConfig { k: 8, max_iters: 10, tol: 0.0, seed: 7 },
        )
        .expect("simulated run");
        println!("  P={p}: {:.2}s virtual, inertia {:.0}", km.elapsed, km.result.inertia);
    }
    println!(
        "\nk-means cycles are cheaper (no densities, no marginals) but deliver hard\n\
         assignments and no model scoring; AutoClass buys probabilistic membership\n\
         and automatic class-count selection with more compute per cycle."
    );
}
