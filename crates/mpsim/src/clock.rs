//! Per-rank virtual clocks.
//!
//! Each rank owns a [`Clock`]. Local computation advances it by modeled
//! compute time; communication advances it by endpoint overhead and, on the
//! receive side, possibly by *idle* time spent waiting for a message whose
//! virtual arrival is later than the receiver's current time. The elapsed
//! time of an SPMD run is the maximum final clock across ranks.

/// A virtual clock, in seconds, split into compute / communication / idle
/// components. The invariant `now == compute + comm + idle` always holds
/// (up to floating-point rounding) because every advance goes through one
/// of the three typed methods.
///
/// Each advance returns the seconds it booked, so the caller can book the
/// same amount into its current phase bucket (see [`crate::ledger`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clock {
    now: f64,
    compute: f64,
    comm: f64,
    idle: f64,
    /// In-flight communication hidden behind other work; a shadow measure
    /// outside the `now == compute + comm + idle` partition.
    overlap: f64,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Time spent computing.
    pub fn compute(&self) -> f64 {
        self.compute
    }

    /// Time spent in communication endpoint work (send/recv overhead).
    pub fn comm(&self) -> f64 {
        self.comm
    }

    /// Time spent blocked waiting for messages.
    pub fn idle(&self) -> f64 {
        self.idle
    }

    /// In-flight communication time hidden behind other work (non-blocking
    /// operations). A shadow measure of intervals already counted in the
    /// three primary components; never part of `now`.
    pub fn overlap(&self) -> f64 {
        self.overlap
    }

    /// Advance by `dt` seconds of computation, returning the seconds
    /// booked. Negative or non-finite durations are clamped to zero (a
    /// measured duration can round to a denormal; the clock must stay
    /// monotone).
    pub fn advance_compute(&mut self, dt: f64) -> f64 {
        let dt = sanitize(dt);
        self.now += dt;
        self.compute += dt;
        dt
    }

    /// Advance by `dt` seconds of communication endpoint work, returning
    /// the seconds booked.
    pub fn advance_comm(&mut self, dt: f64) -> f64 {
        let dt = sanitize(dt);
        self.now += dt;
        self.comm += dt;
        dt
    }

    /// Wait (idle) until at least time `t`, returning the idle seconds
    /// booked. No-op if `t` is in the past.
    pub fn wait_until(&mut self, t: f64) -> f64 {
        if t > self.now {
            let dt = t - self.now;
            self.idle += dt;
            self.now = t;
            dt
        } else {
            0.0
        }
    }

    /// Record `dt` seconds of hidden (overlapped) communication, returning
    /// the seconds booked. Does not move `now`; the interval is already
    /// counted as compute/comm/idle.
    pub fn add_overlap(&mut self, dt: f64) -> f64 {
        let dt = sanitize(dt);
        self.overlap += dt;
        dt
    }

    /// Roll back up to `dt` seconds of idle, and at most `cap` (the idle
    /// the caller's phase bucket holds), rewinding `now` by the same
    /// amount; returns the amount retracted. This is the primitive behind
    /// non-blocking collectives: the movement runs eagerly (charging idle
    /// as if blocking), then the idle is retracted so the clock reads as
    /// if the wire time had not yet been waited for. The caps keep the
    /// `now == compute + comm + idle` partition and the buckets' exact.
    pub fn retract_idle(&mut self, dt: f64, cap: f64) -> f64 {
        let dt = sanitize(dt).min(self.idle).min(cap);
        self.now -= dt;
        self.idle -= dt;
        dt
    }
}

fn sanitize(dt: f64) -> f64 {
    if dt.is_finite() && dt > 0.0 {
        dt
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = Clock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.compute() + c.comm() + c.idle(), 0.0);
    }

    #[test]
    fn advances_accumulate_by_kind() {
        let mut c = Clock::new();
        c.advance_compute(1.5);
        c.advance_comm(0.25);
        c.wait_until(3.0);
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.compute(), 1.5);
        assert_eq!(c.comm(), 0.25);
        assert_eq!(c.idle(), 3.0 - 1.75);
    }

    #[test]
    fn wait_until_past_is_noop() {
        let mut c = Clock::new();
        c.advance_compute(2.0);
        c.wait_until(1.0);
        assert_eq!(c.now(), 2.0);
        assert_eq!(c.idle(), 0.0);
    }

    #[test]
    fn negative_and_nan_durations_are_clamped() {
        let mut c = Clock::new();
        c.advance_compute(-1.0);
        c.advance_comm(f64::NAN);
        c.advance_compute(f64::INFINITY);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn retract_idle_rewinds_only_charged_idle() {
        let mut c = Clock::new();
        c.advance_compute(1.0);
        c.wait_until(1.5);
        // More than was charged: capped at the 0.5 s of idle.
        assert_eq!(c.retract_idle(2.0, f64::INFINITY), 0.5);
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.idle(), 0.0);
        // Nothing left to retract.
        assert_eq!(c.retract_idle(0.1, f64::INFINITY), 0.0);
        assert_eq!(c.now(), 1.0);
    }

    #[test]
    fn retract_idle_is_capped_by_the_callers_bucket() {
        let mut c = Clock::new();
        c.wait_until(1.25);
        assert_eq!(c.retract_idle(1.0, 0.25), 0.25);
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.idle(), 1.0);
    }

    #[test]
    fn overlap_is_a_shadow_measure() {
        let mut c = Clock::new();
        c.advance_compute(2.0);
        assert_eq!(c.add_overlap(0.75), 0.75);
        assert_eq!(c.add_overlap(-1.0), 0.0); // clamped
        assert_eq!(c.now(), 2.0);
        assert_eq!(c.overlap(), 0.75);
    }

    #[test]
    fn components_sum_to_now() {
        let mut c = Clock::new();
        for i in 0..100 {
            c.advance_compute(0.001 * i as f64);
            c.advance_comm(0.0005);
            c.wait_until(c.now() + if i % 3 == 0 { 0.01 } else { 0.0 });
        }
        let sum = c.compute() + c.comm() + c.idle();
        assert!((c.now() - sum).abs() < 1e-9, "now={} sum={}", c.now(), sum);
    }
}
