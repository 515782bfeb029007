//! Per-rank execution statistics, time breakdowns, and optional message
//! event traces.

/// Conventional phase-bucket name for time spent rebuilding after a
/// failure (communicator shrink, data repartitioning, state restore).
/// Supervisors read this bucket back from [`RankStats::phase`] to
/// quantify the virtual-time cost of a recovery.
pub const RECOVERY_PHASE: &str = "recovery";

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A message left this rank.
    Send,
    /// A message was accepted by this rank.
    Recv,
}

/// One traced message event on a rank (recorded only when
/// [`crate::SimOptions::record_events`] is set).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time at which the event completed on this rank.
    pub t: f64,
    /// Send or receive.
    pub kind: EventKind,
    /// The other endpoint.
    pub peer: usize,
    /// Payload size.
    pub bytes: usize,
    /// Message tag (collective tags have bit 32 set).
    pub tag: u64,
}

/// Time and traffic attributed to one named phase on one rank.
///
/// A bucket of the [`crate::PhaseLedger`] both backends' span APIs book
/// into. Phase 0 is always the synthetic `"other"` bucket holding
/// everything outside an explicit span, so the buckets partition the
/// rank's elapsed time: `Σ phases[i].total() == elapsed` up to rounding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Phase name (`"other"` for the default bucket).
    pub name: &'static str,
    /// Virtual seconds spent computing in this phase.
    pub compute: f64,
    /// Virtual seconds of communication endpoint work in this phase.
    pub comm: f64,
    /// Virtual seconds blocked waiting for messages in this phase.
    pub idle: f64,
    /// Virtual seconds of non-blocking communication hidden behind other
    /// work in this phase. A shadow measure of intervals already counted
    /// in compute/comm/idle, so it is **not** part of
    /// [`PhaseStats::total`] and the partition invariant is unaffected.
    pub hidden_comm: f64,
    /// Point-to-point messages sent while this phase was current.
    pub msgs_sent: u64,
    /// Payload bytes sent while this phase was current.
    pub bytes_sent: u64,
    /// Messages received while this phase was current.
    pub msgs_recvd: u64,
    /// Payload bytes received while this phase was current.
    pub bytes_recvd: u64,
    /// Collective operations entered while this phase was current.
    pub collectives: u64,
}

impl PhaseStats {
    /// Total virtual seconds attributed to this phase.
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.idle
    }
}

/// Summary of one rank's activity during an SPMD run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Final virtual time (seconds).
    pub elapsed: f64,
    /// Virtual seconds spent computing.
    pub compute: f64,
    /// Virtual seconds spent in communication endpoint work.
    pub comm: f64,
    /// Virtual seconds spent blocked waiting for messages.
    pub idle: f64,
    /// Virtual seconds of non-blocking communication hidden behind other
    /// work (shadow measure; not part of `elapsed`'s
    /// compute + comm + idle partition).
    pub hidden_comm: f64,
    /// Point-to-point messages sent (collectives count their constituent
    /// messages).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recvd: u64,
    /// Payload bytes received.
    pub bytes_recvd: u64,
    /// Collective operations entered (world communicator); also the
    /// sequence number the verifier's fingerprint registry is keyed by,
    /// which makes a [`crate::SimError::CollectiveDivergence`] report easy
    /// to line up against a trace.
    pub collectives: u64,
    /// Per-phase breakdown of the totals above: the rank's ledger buckets,
    /// `"other"` first, one per phase it entered, on the world or in a
    /// group. Empty when no communicator ran the body (hand-built stats).
    pub phases: Vec<PhaseStats>,
}

impl RankStats {
    /// Fraction of elapsed time spent computing (0 when nothing elapsed).
    pub fn compute_fraction(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.compute / self.elapsed
        } else {
            0.0
        }
    }

    /// Fraction of elapsed time lost to communication and waiting.
    pub fn overhead_fraction(&self) -> f64 {
        if self.elapsed > 0.0 {
            (self.comm + self.idle) / self.elapsed
        } else {
            0.0
        }
    }

    /// The phase with the given name, if this rank recorded one.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of all phase-bucket totals; equals `elapsed` up to rounding
    /// whenever `phases` is non-empty (the buckets partition the clock).
    pub fn phases_total(&self) -> f64 {
        self.phases.iter().map(PhaseStats::total).sum()
    }
}

/// Aggregate statistics over all ranks of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Elapsed virtual time of the run (max over ranks).
    pub elapsed: f64,
    /// Total messages sent by all ranks.
    pub total_msgs: u64,
    /// Total payload bytes sent by all ranks.
    pub total_bytes: u64,
    /// Total messages received by all ranks.
    pub total_msgs_recvd: u64,
    /// Total payload bytes received by all ranks.
    pub total_bytes_recvd: u64,
    /// Mean compute fraction across ranks.
    pub mean_compute_fraction: f64,
}

impl RunStats {
    /// Summarize a set of per-rank statistics.
    pub fn from_ranks(ranks: &[RankStats]) -> Self {
        if ranks.is_empty() {
            return RunStats::default();
        }
        let elapsed = ranks.iter().map(|r| r.elapsed).fold(0.0, f64::max);
        let total_msgs = ranks.iter().map(|r| r.msgs_sent).sum();
        let total_bytes = ranks.iter().map(|r| r.bytes_sent).sum();
        let total_msgs_recvd = ranks.iter().map(|r| r.msgs_recvd).sum();
        let total_bytes_recvd = ranks.iter().map(|r| r.bytes_recvd).sum();
        let mean_compute_fraction =
            ranks.iter().map(|r| r.compute_fraction()).sum::<f64>() / ranks.len() as f64;
        RunStats {
            elapsed,
            total_msgs,
            total_bytes,
            total_msgs_recvd,
            total_bytes_recvd,
            mean_compute_fraction,
        }
    }

    /// Check sender/receiver symmetry of the aggregate message counts.
    ///
    /// In a run whose ranks all drain every message addressed to them —
    /// which every collective-only program does — the world-wide send and
    /// receive totals must match exactly; a mismatch means a collective
    /// implementation dropped or double-counted constituent messages.
    /// Buffered sends to a rank that already finished its body are legal
    /// in user programs and show up here as a surplus of sends; callers
    /// that use such fire-and-forget sends should expect `Err`.
    ///
    /// # Errors
    /// Returns a human-readable description of the first asymmetry found.
    pub fn check_message_symmetry(&self) -> Result<(), String> {
        if self.total_msgs != self.total_msgs_recvd {
            return Err(format!(
                "message count asymmetry: {} sent vs {} received",
                self.total_msgs, self.total_msgs_recvd
            ));
        }
        if self.total_bytes != self.total_bytes_recvd {
            return Err(format!(
                "byte count asymmetry: {} sent vs {} received",
                self.total_bytes, self.total_bytes_recvd
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rank: usize, elapsed: f64, compute: f64) -> RankStats {
        RankStats { rank, elapsed, compute, ..Default::default() }
    }

    #[test]
    fn fractions_handle_zero_elapsed() {
        let r = RankStats::default();
        assert_eq!(r.compute_fraction(), 0.0);
        assert_eq!(r.overhead_fraction(), 0.0);
    }

    #[test]
    fn fractions_partition_time() {
        let r = RankStats {
            rank: 0,
            elapsed: 10.0,
            compute: 6.0,
            comm: 1.0,
            idle: 3.0,
            ..Default::default()
        };
        assert!((r.compute_fraction() - 0.6).abs() < 1e-12);
        assert!((r.overhead_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn run_stats_take_max_elapsed() {
        let rs = [stats(0, 1.0, 0.5), stats(1, 3.0, 3.0), stats(2, 2.0, 1.0)];
        let agg = RunStats::from_ranks(&rs);
        assert_eq!(agg.elapsed, 3.0);
        assert!((agg.mean_compute_fraction - (0.5 + 1.0 + 0.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_stats_empty() {
        assert_eq!(RunStats::from_ranks(&[]), RunStats::default());
    }

    #[test]
    fn run_stats_total_both_directions() {
        let a = RankStats {
            rank: 0,
            msgs_sent: 3,
            bytes_sent: 300,
            msgs_recvd: 1,
            bytes_recvd: 100,
            ..Default::default()
        };
        let b = RankStats {
            rank: 1,
            msgs_sent: 1,
            bytes_sent: 100,
            msgs_recvd: 3,
            bytes_recvd: 300,
            ..Default::default()
        };
        let agg = RunStats::from_ranks(&[a, b]);
        assert_eq!(agg.total_msgs, 4);
        assert_eq!(agg.total_msgs_recvd, 4);
        assert_eq!(agg.total_bytes, 400);
        assert_eq!(agg.total_bytes_recvd, 400);
        assert!(agg.check_message_symmetry().is_ok());
    }

    #[test]
    fn symmetry_check_reports_drops() {
        let sender = RankStats { rank: 0, msgs_sent: 2, bytes_sent: 16, ..Default::default() };
        let agg = RunStats::from_ranks(&[sender]);
        let err = agg.check_message_symmetry().unwrap_err();
        assert!(err.contains("2 sent vs 0 received"), "{err}");
    }

    #[test]
    fn phase_lookup_and_totals() {
        let r = RankStats {
            rank: 0,
            elapsed: 3.0,
            phases: vec![
                PhaseStats { name: "other", compute: 1.0, ..Default::default() },
                PhaseStats {
                    name: "estep",
                    compute: 1.5,
                    comm: 0.25,
                    idle: 0.25,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.phase("estep").map(|p| p.total()), Some(2.0));
        assert!(r.phase("mstep").is_none());
        assert!((r.phases_total() - r.elapsed).abs() < 1e-12);
    }
}
