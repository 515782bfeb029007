//! One rank's phase ledger: the named buckets its time and traffic are
//! booked into, and its open phase spans. Both backends book through it.
//! A bucket is a [`PhaseStats`] named by a `&'static str`, so a snapshot
//! is one copy of the bucket vector; the vector holds exactly the phases
//! the rank entered, first-entry order, with no spare capacity.

use crate::trace::PhaseStats;

/// Name of the implicit phase bucket that holds everything outside an
/// explicit phase span.
pub const DEFAULT_PHASE: &str = "other";

/// One rank's phase buckets and open spans. Every public way to make one
/// ([`PhaseLedger::new`], or its `Default`) gives a ledger holding the
/// [`DEFAULT_PHASE`] bucket, so it can be booked into at once.
#[derive(Debug)]
pub struct PhaseLedger {
    /// The buckets in first-entry order, [`DEFAULT_PHASE`] first.
    buckets: Vec<PhaseStats>,
    /// Open spans, innermost last, as bucket indices.
    spans: Vec<usize>,
    /// The bucket being booked into: the innermost span's, or 0.
    cur: usize,
}

impl Default for PhaseLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseLedger {
    /// A ledger holding only the [`DEFAULT_PHASE`] bucket, which receives
    /// everything booked outside a span.
    pub fn new() -> Self {
        PhaseLedger {
            buckets: vec![PhaseStats { name: DEFAULT_PHASE, ..PhaseStats::default() }],
            spans: Vec::new(),
            cur: 0,
        }
    }

    /// An empty ledger with no bucket, which allocates nothing: the
    /// stand-in an endpoint holds while its working ledger is lent out.
    /// Nothing may be booked into it.
    pub(crate) const fn empty() -> Self {
        PhaseLedger { buckets: Vec::new(), spans: Vec::new(), cur: 0 }
    }

    /// Open a span of phase `name`: until the matching
    /// [`PhaseLedger::exit`], everything booked lands in `name`'s bucket,
    /// made on first entry. Re-entering a phase allocates nothing.
    pub fn enter(&mut self, name: &'static str) {
        let idx = match self.buckets.iter().position(|b| b.name == name) {
            Some(idx) => idx,
            None => {
                self.buckets.reserve_exact(1);
                self.buckets.push(PhaseStats { name, ..PhaseStats::default() });
                self.buckets.len() - 1
            }
        };
        self.spans.push(idx);
        self.cur = idx;
    }

    /// Close the innermost open span, returning booking to the enclosing
    /// span (or the default bucket). A no-op with no span open.
    pub fn exit(&mut self) {
        self.spans.pop();
        self.cur = self.spans.last().copied().unwrap_or(0);
    }

    /// Name of the phase being booked into.
    pub fn current(&self) -> &'static str {
        self.buckets[self.cur].name
    }

    /// The bucket being booked into.
    #[inline]
    pub fn bucket(&mut self) -> &mut PhaseStats {
        &mut self.buckets[self.cur]
    }

    /// The buckets, in first-entry order with [`DEFAULT_PHASE`] first.
    pub fn phases(&self) -> &[PhaseStats] {
        &self.buckets
    }

    /// Sum of one counter over every bucket.
    pub fn total(&self, counter: fn(&PhaseStats) -> u64) -> u64 {
        self.buckets.iter().map(counter).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_names_accumulate() {
        let mut l = PhaseLedger::new();
        l.bucket().compute += 1.0;
        l.enter("estep");
        l.bucket().compute += 2.0;
        l.enter("allreduce");
        l.bucket().idle += 0.5;
        l.exit();
        assert_eq!(l.current(), "estep");
        l.bucket().comm += 0.25;
        l.exit();
        l.exit(); // unbalanced exit is a no-op
        assert_eq!(l.current(), DEFAULT_PHASE);
        l.enter("allreduce");
        l.bucket().idle += 0.5;
        l.exit();
        let names: Vec<&str> = l.phases().iter().map(|p| p.name).collect();
        assert_eq!(names, [DEFAULT_PHASE, "estep", "allreduce"]);
        assert_eq!(l.phases()[1].total(), 2.25);
        assert_eq!(l.phases()[2].idle, 1.0);
        let sum: f64 = l.phases().iter().map(PhaseStats::total).sum();
        assert_eq!(sum, 4.25);
    }

    #[test]
    fn the_buckets_carry_no_spare_capacity() {
        let mut l = PhaseLedger::new();
        for name in ["a", "b", "c", "d", "e"] {
            l.enter(name);
            l.exit();
            assert_eq!(l.buckets.capacity(), l.buckets.len());
        }
        assert_eq!(l.phases().len(), 6);
    }

    #[test]
    fn public_ledgers_book_into_the_default_bucket_and_the_empty_one_holds_nothing() {
        for mut l in [PhaseLedger::new(), PhaseLedger::default()] {
            assert_eq!(l.current(), DEFAULT_PHASE);
            l.bucket().compute += 1.0;
            assert_eq!(l.phases()[0].compute, 1.0);
        }
        let e = PhaseLedger::empty();
        assert!(e.phases().is_empty());
        assert_eq!(e.buckets.capacity(), 0);
    }

    #[test]
    fn counters_total_over_buckets() {
        let mut l = PhaseLedger::new();
        l.bucket().msgs_sent += 2;
        l.enter("x");
        l.bucket().msgs_sent += 3;
        assert_eq!(l.total(|p| p.msgs_sent), 5);
    }
}
