//! Paper-style report tables from per-rank statistics.
//!
//! The paper's evaluation (Section 4) is a set of tables over P ∈ 1..10:
//! per-phase times for the E-step and M-step, speedup, efficiency, and the
//! communication/computation balance. This module rebuilds those tables
//! from [`RankStats`] collected at several processor counts — one
//! [`RunRecord`] per P — and renders them as aligned text, CSV, and JSON.
//!
//! Construction validates the phase-accounting invariant: on every rank the
//! named phase buckets (plus the implicit `"other"` bucket) must sum to the
//! rank's elapsed virtual time within `1e-9 · max(1, elapsed)` — a bucket
//! that leaks time would silently misattribute cost and invalidate the
//! tables. Speedup is `T(1)/T(P)` against the P = 1 record when present,
//! with the P = 1 row pinned to exactly 1.0.
//!
//! All numeric output is formatted with fixed precision from a
//! deterministic simulation, so repeated runs on the same inputs produce
//! bit-identical artifacts.

use std::fmt::Write as _;

use crate::trace::RankStats;

/// Relative tolerance for the phase-buckets-sum-to-elapsed invariant.
const PHASE_SUM_TOL: f64 = 1e-9;

/// The per-rank statistics of one run at a fixed processor count: the raw
/// input to [`Report::build`].
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Number of processors simulated.
    pub p: usize,
    /// Elapsed virtual time of the run, max over ranks, seconds.
    pub elapsed: f64,
    /// Per-rank statistics (must have `p` entries).
    pub ranks: Vec<RankStats>,
}

/// One phase's aggregate across the ranks of a run. `max_s` versus
/// `mean_s` is the critical-path summary: the gap between the slowest
/// rank's phase time and the average exposes load imbalance.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase name.
    pub name: String,
    /// Max over ranks of the phase's total time, seconds.
    pub max_s: f64,
    /// Mean over ranks of the phase's total time, seconds.
    pub mean_s: f64,
    /// Mean over ranks of compute seconds in this phase.
    pub compute_s: f64,
    /// Mean over ranks of comm endpoint seconds in this phase.
    pub comm_s: f64,
    /// Mean over ranks of idle seconds in this phase.
    pub idle_s: f64,
    /// Mean over ranks of non-blocking communication seconds hidden
    /// behind other work in this phase (shadow measure; not part of the
    /// phase total, so the partition invariant is unaffected).
    pub hidden_s: f64,
    /// Total messages sent from within this phase, all ranks.
    pub msgs_sent: u64,
    /// Total payload bytes sent from within this phase, all ranks.
    pub bytes_sent: u64,
    /// Total collectives entered from within this phase, all ranks.
    pub collectives: u64,
}

impl PhaseRow {
    /// Critical-path imbalance: max over ranks divided by the mean
    /// (1.0 when perfectly balanced; 0.0 for an empty phase).
    pub fn imbalance(&self) -> f64 {
        if self.mean_s > 0.0 {
            self.max_s / self.mean_s
        } else {
            0.0
        }
    }
}

/// One run's row of the report: scalar figures plus per-phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Number of processors.
    pub p: usize,
    /// Elapsed virtual time, seconds (max over ranks).
    pub elapsed: f64,
    /// `T(1)/T(P)`; `None` when no P = 1 record was supplied or its
    /// elapsed time is zero. Exactly 1.0 for the P = 1 row itself.
    pub speedup: Option<f64>,
    /// Speedup divided by P.
    pub efficiency: Option<f64>,
    /// Run-wide `(Σ comm + Σ idle) / Σ compute` over ranks (0.0 when no
    /// compute was recorded).
    pub comm_compute_ratio: f64,
    /// Max rank elapsed divided by mean rank elapsed.
    pub time_imbalance: f64,
    /// Per-phase aggregates, phase-creation order (default bucket first).
    pub phases: Vec<PhaseRow>,
}

/// The assembled report over all processor counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One row per run, ascending in P.
    pub rows: Vec<RunRow>,
}

impl Report {
    /// Validate the records and assemble the report.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency found: an empty
    /// record set, a rank-count mismatch, a duplicate P, or a rank whose
    /// phase buckets do not sum to its elapsed time within
    /// `1e-9 · max(1, elapsed)`.
    pub fn build(records: &[RunRecord]) -> Result<Report, String> {
        if records.is_empty() {
            return Err("no run records supplied".to_string());
        }
        let mut sorted: Vec<&RunRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.p);
        for pair in sorted.windows(2) {
            if pair[0].p == pair[1].p {
                return Err(format!("duplicate record for P = {}", pair[0].p));
            }
        }
        for rec in &sorted {
            if rec.p == 0 {
                return Err("record with P = 0".to_string());
            }
            if rec.ranks.len() != rec.p {
                return Err(format!("P = {} record has {} rank entries", rec.p, rec.ranks.len()));
            }
            for r in &rec.ranks {
                if r.phases.is_empty() {
                    continue;
                }
                let sum = r.phases_total();
                let tol = PHASE_SUM_TOL * r.elapsed.abs().max(1.0);
                if (sum - r.elapsed).abs() > tol {
                    return Err(format!(
                        "P = {} rank {}: phase buckets sum to {sum:.12e} \
                         but elapsed is {:.12e} (tolerance {tol:.3e})",
                        rec.p, r.rank, r.elapsed
                    ));
                }
            }
        }
        let base = sorted.iter().find(|r| r.p == 1 && r.elapsed > 0.0).map(|r| r.elapsed);
        let rows = sorted.iter().map(|rec| build_row(rec, base)).collect();
        Ok(Report { rows })
    }

    /// Render the report as aligned, human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("P-AutoClass phase report\n");
        out.push_str("========================\n\n");
        out.push_str("  P    elapsed_s        speedup   efficiency  comm/compute  imbalance\n");
        for r in &self.rows {
            let speed = match r.speedup {
                Some(s) => format!("{s:8.4}"),
                None => "       -".to_string(),
            };
            let eff = match r.efficiency {
                Some(e) => format!("{e:10.4}"),
                None => "         -".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<4} {:<16.9} {speed}  {eff}  {:>12.6}  {:>9.4}",
                r.p, r.elapsed, r.comm_compute_ratio, r.time_imbalance
            );
        }
        for r in &self.rows {
            let _ = writeln!(out, "\nP = {} — per-phase critical path", r.p);
            out.push_str(
                "  phase        max_s            mean_s           imbalance  \
                 compute_s        comm_s           idle_s           hidden_s         \
                 msgs      bytes        colls\n",
            );
            for ph in &r.phases {
                let _ = writeln!(
                    out,
                    "  {:<12} {:<16.9} {:<16.9} {:>9.4}  {:<16.9} {:<16.9} {:<16.9} {:<16.9} \
                     {:<9} {:<12} {}",
                    ph.name,
                    ph.max_s,
                    ph.mean_s,
                    ph.imbalance(),
                    ph.compute_s,
                    ph.comm_s,
                    ph.idle_s,
                    ph.hidden_s,
                    ph.msgs_sent,
                    ph.bytes_sent,
                    ph.collectives
                );
            }
        }
        out
    }

    /// Render the per-run summary table (one row per P) as CSV.
    pub fn summary_csv(&self) -> String {
        let mut out =
            String::from("p,elapsed_s,speedup,efficiency,comm_compute_ratio,time_imbalance\n");
        for r in &self.rows {
            let speed = r.speedup.map(|s| format!("{s:.6}")).unwrap_or_default();
            let eff = r.efficiency.map(|e| format!("{e:.6}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{:.9},{speed},{eff},{:.6},{:.6}",
                r.p, r.elapsed, r.comm_compute_ratio, r.time_imbalance
            );
        }
        out
    }

    /// Render the per-phase table (one row per P × phase) as CSV.
    pub fn phases_csv(&self) -> String {
        let mut out = String::from(
            "p,phase,max_s,mean_s,imbalance,compute_s,comm_s,idle_s,hidden_s,\
             msgs_sent,bytes_sent,collectives\n",
        );
        for r in &self.rows {
            for ph in &r.phases {
                let _ = writeln!(
                    out,
                    "{},{},{:.9},{:.9},{:.6},{:.9},{:.9},{:.9},{:.9},{},{},{}",
                    r.p,
                    ph.name,
                    ph.max_s,
                    ph.mean_s,
                    ph.imbalance(),
                    ph.compute_s,
                    ph.comm_s,
                    ph.idle_s,
                    ph.hidden_s,
                    ph.msgs_sent,
                    ph.bytes_sent,
                    ph.collectives
                );
            }
        }
        out
    }

    /// Render the report as a JSON object (hand-formatted; the whole
    /// workspace is dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"runs\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"p\": {},", r.p);
            let _ = writeln!(out, "      \"elapsed_s\": {:.9},", r.elapsed);
            match r.speedup {
                Some(s) => {
                    let _ = writeln!(out, "      \"speedup\": {s:.6},");
                }
                None => out.push_str("      \"speedup\": null,\n"),
            }
            match r.efficiency {
                Some(e) => {
                    let _ = writeln!(out, "      \"efficiency\": {e:.6},");
                }
                None => out.push_str("      \"efficiency\": null,\n"),
            }
            let _ = writeln!(out, "      \"comm_compute_ratio\": {:.6},", r.comm_compute_ratio);
            let _ = writeln!(out, "      \"time_imbalance\": {:.6},", r.time_imbalance);
            out.push_str("      \"phases\": [\n");
            for (j, ph) in r.phases.iter().enumerate() {
                let comma = if j + 1 < r.phases.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "        {{\"name\": \"{}\", \"max_s\": {:.9}, \"mean_s\": {:.9}, \
                     \"imbalance\": {:.6}, \"compute_s\": {:.9}, \"comm_s\": {:.9}, \
                     \"idle_s\": {:.9}, \"hidden_s\": {:.9}, \"msgs_sent\": {}, \
                     \"bytes_sent\": {}, \"collectives\": {}}}{comma}",
                    ph.name,
                    ph.max_s,
                    ph.mean_s,
                    ph.imbalance(),
                    ph.compute_s,
                    ph.comm_s,
                    ph.idle_s,
                    ph.hidden_s,
                    ph.msgs_sent,
                    ph.bytes_sent,
                    ph.collectives
                );
            }
            out.push_str("      ]\n");
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn build_row(rec: &RunRecord, base: Option<f64>) -> RunRow {
    let n = rec.ranks.len() as f64;
    let speedup = match base {
        // The P = 1 run is its own baseline: pin the ratio to exactly 1.0
        // rather than trusting x/x division.
        Some(_) if rec.p == 1 => Some(1.0),
        Some(t1) if rec.elapsed > 0.0 => Some(t1 / rec.elapsed),
        _ => None,
    };
    let efficiency = speedup.map(|s| s / rec.p as f64);
    let compute: f64 = rec.ranks.iter().map(|r| r.compute).sum();
    let overhead: f64 = rec.ranks.iter().map(|r| r.comm + r.idle).sum();
    let comm_compute_ratio = if compute > 0.0 { overhead / compute } else { 0.0 };
    let mean_elapsed = rec.ranks.iter().map(|r| r.elapsed).sum::<f64>() / n;
    let max_elapsed = rec.ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max);
    let time_imbalance = if mean_elapsed > 0.0 { max_elapsed / mean_elapsed } else { 0.0 };
    RunRow {
        p: rec.p,
        elapsed: rec.elapsed,
        speedup,
        efficiency,
        comm_compute_ratio,
        time_imbalance,
        phases: aggregate_phases(&rec.ranks),
    }
}

/// Union of phase names across ranks (first-seen order, which on an SPMD
/// program is identical on every rank), aggregated max/mean/sum.
fn aggregate_phases(ranks: &[RankStats]) -> Vec<PhaseRow> {
    let n = ranks.len() as f64;
    let mut names: Vec<&str> = Vec::new();
    for r in ranks {
        for ph in &r.phases {
            if !names.contains(&ph.name) {
                names.push(ph.name);
            }
        }
    }
    names
        .into_iter()
        .map(|name| {
            let mut row = PhaseRow {
                name: name.to_string(),
                max_s: 0.0,
                mean_s: 0.0,
                compute_s: 0.0,
                comm_s: 0.0,
                idle_s: 0.0,
                hidden_s: 0.0,
                msgs_sent: 0,
                bytes_sent: 0,
                collectives: 0,
            };
            for r in ranks {
                let Some(ph) = r.phase(name) else { continue };
                row.max_s = row.max_s.max(ph.total());
                row.mean_s += ph.total() / n;
                row.compute_s += ph.compute / n;
                row.comm_s += ph.comm / n;
                row.idle_s += ph.idle / n;
                row.hidden_s += ph.hidden_comm / n;
                row.msgs_sent += ph.msgs_sent;
                row.bytes_sent += ph.bytes_sent;
                row.collectives += ph.collectives;
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::PhaseStats;

    fn rank(rank: usize, phases: &[(&'static str, f64, f64, f64)]) -> RankStats {
        let ps: Vec<PhaseStats> = phases
            .iter()
            .map(|&(name, compute, comm, idle)| PhaseStats {
                name,
                compute,
                comm,
                idle,
                msgs_sent: 2,
                bytes_sent: 64,
                collectives: 1,
                ..Default::default()
            })
            .collect();
        let compute = ps.iter().map(|p| p.compute).sum();
        let comm = ps.iter().map(|p| p.comm).sum();
        let idle = ps.iter().map(|p| p.idle).sum();
        let elapsed = ps.iter().map(PhaseStats::total).sum();
        RankStats { rank, elapsed, compute, comm, idle, phases: ps, ..Default::default() }
    }

    fn record(p: usize, per_rank_scale: f64) -> RunRecord {
        let ranks: Vec<RankStats> = (0..p)
            .map(|r| {
                rank(
                    r,
                    &[
                        ("other", 0.1 * per_rank_scale, 0.0, 0.0),
                        ("estep", 1.0 * per_rank_scale, 0.1, 0.05),
                        ("allreduce", 0.0, 0.2, 0.1 * (r as f64 + 1.0)),
                    ],
                )
            })
            .collect();
        let elapsed = ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max);
        RunRecord { p, elapsed, ranks }
    }

    #[test]
    fn speedup_is_exactly_one_at_p1() {
        let recs = [record(1, 4.0), record(2, 2.0), record(4, 1.0)];
        let rep = Report::build(&recs).unwrap();
        assert_eq!(rep.rows[0].p, 1);
        assert_eq!(rep.rows[0].speedup, Some(1.0));
        assert_eq!(rep.rows[0].efficiency, Some(1.0));
        let s2 = rep.rows[1].speedup.unwrap();
        assert!(s2 > 1.0, "P=2 should speed up, got {s2}");
    }

    #[test]
    fn missing_baseline_leaves_speedup_empty() {
        let rep = Report::build(&[record(2, 1.0)]).unwrap();
        assert_eq!(rep.rows[0].speedup, None);
        assert_eq!(rep.rows[0].efficiency, None);
        assert!(rep.to_text().contains('-'));
        assert!(rep.to_json().contains("\"speedup\": null"));
    }

    #[test]
    fn leaky_phase_buckets_are_rejected() {
        let mut rec = record(2, 1.0);
        rec.ranks[1].elapsed += 1e-3;
        let err = Report::build(&[rec]).unwrap_err();
        assert!(err.contains("rank 1"), "{err}");
        assert!(err.contains("phase buckets"), "{err}");
    }

    #[test]
    fn duplicate_and_mismatched_records_are_rejected() {
        let err = Report::build(&[record(2, 1.0), record(2, 1.0)]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let mut rec = record(4, 1.0);
        rec.ranks.pop();
        let err = Report::build(&[rec]).unwrap_err();
        assert!(err.contains("rank entries"), "{err}");
        assert!(Report::build(&[]).is_err());
    }

    #[test]
    fn phase_aggregation_takes_max_and_mean() {
        let rep = Report::build(&[record(2, 1.0)]).unwrap();
        let row = &rep.rows[0];
        let ar = row.phases.iter().find(|p| p.name == "allreduce").unwrap();
        // idle is 0.1 on rank 0 and 0.2 on rank 1, plus 0.2 comm each.
        assert!((ar.max_s - 0.4).abs() < 1e-12);
        assert!((ar.mean_s - 0.35).abs() < 1e-12);
        assert!(ar.imbalance() > 1.0);
        assert_eq!(ar.msgs_sent, 4);
        assert_eq!(ar.collectives, 2);
    }

    #[test]
    fn renderings_are_deterministic_and_structured() {
        let recs = [record(1, 2.0), record(2, 1.0)];
        let rep = Report::build(&recs).unwrap();
        assert_eq!(rep.to_text(), Report::build(&recs).unwrap().to_text());
        assert_eq!(rep.to_json(), Report::build(&recs).unwrap().to_json());
        let csv = rep.summary_csv();
        assert!(csv.starts_with("p,elapsed_s,speedup"));
        assert_eq!(csv.lines().count(), 3);
        let pcsv = rep.phases_csv();
        assert!(pcsv.lines().count() > 4);
        let json = rep.to_json();
        assert!(json.contains("\"runs\""));
        assert!(json.contains("\"speedup\": 1.000000"));
    }
}
