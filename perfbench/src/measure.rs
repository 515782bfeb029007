//! Timing, summary statistics, in-memory spans and memory use.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Median, the way Python's `statistics.median` takes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, the way Python's
/// `statistics.quantiles(values, n=4)` takes them (the default
/// "exclusive" method), so spreads computed here match that reference.
/// One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// A metric's samples summarized for a results file.
pub fn summary(unit: &str, values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values);
    Json::Obj(vec![
        ("unit".into(), Json::Str(unit.into())),
        ("median".into(), Json::Num(median(values))),
        ("q1".into(), Json::Num(q1)),
        ("q3".into(), Json::Num(q3)),
        ("n".into(), Json::Num(values.len() as f64)),
        ("values".into(), Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

/// Median seconds per call of `f`. Calls run in batches long enough
/// (at least `min_batch`) that the clock's resolution does not matter
/// for microsecond kernels; five batches give the median.
pub fn per_call(min_batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= min_batch || calls >= 1 << 20 {
            break;
        }
        calls *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&batches)
}

/// Seconds [`calibration_s`] takes on an unloaded host of the kind the
/// benchmark was sized on: a two-vCPU KVM guest on an Intel Xeon
/// (Sapphire Rapids).
const CALIBRATION_REF_S: f64 = 0.0075;

/// Time a fixed amount of floating-point work shaped like the E-step:
/// squared distances and `exp` over 4096 items × 16 classes × 8
/// attributes, 16 times. The loop is the benchmark's own, so no change
/// to the program under test can change its cost.
fn calibration_s() -> f64 {
    const N: usize = 4096;
    const J: usize = 16;
    const D: usize = 8;
    let xs: Vec<f64> = (0..N * D).map(|i| ((i * 7919) % 1000) as f64 * 1e-3).collect();
    let mu: Vec<f64> = (0..J * D).map(|i| ((i * 104_729) % 1000) as f64 * 1e-3).collect();
    let mut out = vec![0.0; N * J];
    let t = Instant::now();
    for _ in 0..16 {
        let xs = black_box(&xs);
        for (x, row) in xs.chunks_exact(D).zip(out.chunks_exact_mut(J)) {
            for (m, o) in mu.chunks_exact(D).zip(row.iter_mut()) {
                let d2: f64 = x.iter().zip(m).map(|(a, b)| (a - b) * (a - b)).sum();
                *o = (-d2).exp();
            }
        }
        black_box(&mut out);
    }
    t.elapsed().as_secs_f64()
}

/// How fast the host runs right now against the reference host, from one
/// calibration loop: multiply seconds measured just after by this factor
/// to get reference seconds.
///
/// On a shared host the same pass ran up to 1.5× slower for seconds to
/// minutes at a time, and the calibration loop slowed with it. Scaled by
/// the loop timed just before it, ten `paper-p8` runs' medians spread by
/// 0.02–0.04 where their raw medians spread by 0.05–0.35, and sets run in
/// quiet and in slow hours read the same median. See PERF.md.
pub fn speed_factor() -> f64 {
    CALIBRATION_REF_S / calibration_s()
}

/// [`speed_factor`] for work spread over `threads` parallel threads:
/// the calibration loop runs on that many threads at once, and the
/// slowest sets the factor, as the slowest rank sets a native search's
/// time.
pub fn parallel_speed_factor(threads: usize) -> f64 {
    let slowest = std::thread::scope(|s| {
        let loops: Vec<_> = (0..threads).map(|_| s.spawn(calibration_s)).collect();
        loops.into_iter().map(|l| l.join().unwrap_or(f64::NAN)).fold(0.0, f64::max)
    });
    CALIBRATION_REF_S / slowest
}

/// One recorded span: a library call or a layer probe, timed from the
/// benchmark's side of the call.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: usize,
}

/// Span recorder. Spans are kept in memory and written out when the run
/// ends; with recording off, [`Tracer::span`] only times the call.
pub struct Tracer {
    recording: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer { recording, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Run `f` inside a span named `name` belonging to op `op`, nested
    /// under the innermost open span. Returns `f`'s value and the
    /// call's wall seconds.
    pub fn span<T>(&mut self, name: &str, op: usize, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        if self.recording {
            let parent = self.open.last().copied();
            let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
            self.spans.push(Span { name: name.into(), start_us, end_us: start_us, parent, op });
            self.open.push(id);
        }
        let t = Instant::now();
        let out = f(self);
        let secs = t.elapsed().as_secs_f64();
        if self.recording && self.open.last() == Some(&id) {
            self.open.pop();
            self.spans[id].end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        }
        (out, secs)
    }

    /// The recorded spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_us".into(), Json::Num(s.start_us)),
                    ("end_us".into(), Json::Num(s.end_us)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op".into(), Json::Num(s.op as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The system allocator, counting live heap bytes and their peak. The
/// peak is what the program asked for; resident memory adds whatever the
/// allocator's per-thread arenas keep, which varied by a fifth between
/// runs of the same workload.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are statistics
// that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap of this process so far, MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.span("outer", 0, |t| {
            t.span("inner", 0, |_| ());
        });
        assert!(outer >= 0.0);
        let doc = t.to_json("w");
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        let mut off = Tracer::new(false);
        off.span("x", 0, |_| ());
        assert!(off.to_json("w").get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}
