//! One run of one workload, in this process: set-up, reference results,
//! timed passes until the run's time is up, and — when traced — one more
//! pass with spans recorded plus the per-layer probes.

use std::path::PathBuf;
use std::time::Instant;

use crate::affinity;
use crate::json::Json;
use crate::layers::{self, Figures, LayerInputs};
use crate::measure::{
    median, parallel_speed_factor, peak_heap_mib, peak_rss_mib, speed_factor, summary, Tracer,
};
use crate::spec::Spec;
use crate::workload::{OpOut, Record, Refs, Workload, NATIVE_P};

/// Set-ups per run; `setup_s` is their median. Each set-up generates the
/// dataset and runs every op once untimed, so first-call costs land in
/// set-up rather than in the timed passes.
const SETUPS: usize = 5;
/// Fewest timed passes, however long a pass takes.
const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// A finished run: the reported metrics with their samples, and the
/// exact figures of its last pass.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// (name, unit, samples) in declaration order.
    pub metrics: Vec<(String, String, Vec<f64>)>,
    pub exact: Figures,
    /// Printed but not reported: (name, value, unit).
    pub info: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result: medians only.
    pub fn line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let m = vec![
                    ("value".to_string(), Json::Num(median(v))),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ];
                (name.clone(), Json::Obj(m))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// This run as one workload entry of a results file.
    pub fn entry(&self) -> Json {
        let metrics =
            self.metrics.iter().map(|(name, unit, v)| (name.clone(), summary(unit, v))).collect();
        let exact = self.exact.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
        Json::Obj(vec![
            ("runs".into(), Json::Num(1.0)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
            ("exact".into(), Json::Obj(exact)),
        ])
    }
}

/// Counts ops and failures across the run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    /// Check a pass; true when every op passed.
    fn check(&mut self, w: &Workload, pass: &[Record], first: &[Record], refs: &Refs) -> bool {
        self.attempted += pass.len();
        let mut bad = w.check(pass, first, refs);
        bad.sort_by_key(|(i, _)| *i);
        let mut ops: Vec<usize> = bad.iter().map(|(i, _)| *i).collect();
        ops.dedup();
        self.failed += ops.len();
        self.problems.extend(bad.into_iter().map(|(_, msg)| msg));
        ops.is_empty()
    }
}

fn host_s(pass: &[OpOut], native: bool) -> f64 {
    pass.iter().filter(|o| o.op.is_native() == native).map(|o| o.host_s).sum()
}

/// Run one workload.
///
/// # Errors
/// An unknown workload, a failed reference run, a failed probe, or a
/// metric the declaration names that the run does not produce.
pub fn run(args: &RunArgs, spec: &Spec) -> Result<RunResult, String> {
    let w = Workload::new(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut tracer = Tracer::new(false);
    let mut next_op = 0usize;

    // Every time is kept twice: as measured, and scaled to reference
    // seconds by the calibration loop timed just before it.
    let mut setup_s = Samples::default();
    let mut warmups: Vec<Vec<Record>> = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        let k = speed_factor();
        let t = Instant::now();
        let d = datagen::paper_dataset(w.n, args.seed);
        let pass = w.pass(&d, &mut tracer, &mut next_op);
        setup_s.push(t.elapsed().as_secs_f64(), k);
        warmups.push(pass.iter().map(OpOut::record).collect());
        data = Some(d);
    }
    let data = data.ok_or("no set-up ran")?;
    let refs = w.references(&data)?;

    let mut tally = Tally { attempted: refs.runs(), ..Tally::default() };
    let first = warmups[0].clone();
    for pass in &warmups {
        tally.check(&w, pass, &first, &refs);
    }

    let (mut sim, mut native) = (Samples::default(), Samples::default());
    let mut last: Option<Vec<OpOut>> = None;
    let start = Instant::now();
    let mut passes = 0usize;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        // The simulated ops run pinned to one CPU, the native ones on
        // NATIVE_P threads across the CPUs; each gets a yardstick run the
        // same way.
        let k = speed_factor();
        let k_native = affinity::unpinned(|| parallel_speed_factor(NATIVE_P));
        let pass = w.pass(&data, &mut tracer, &mut next_op);
        let records: Vec<Record> = pass.iter().map(OpOut::record).collect();
        // A pass with a failed op contributes no timings.
        if tally.check(&w, &records, &first, &refs) {
            sim.push(host_s(&pass, false), k);
            native.push(host_s(&pass, true), k_native);
        }
        last = Some(pass);
    }
    let last = last.ok_or("no timed pass ran")?;
    if sim.raw.is_empty() {
        return Err(format!("every timed pass failed its checks: {:?}", tally.problems));
    }
    // The layer probes time raw host seconds, so they are set against
    // raw pass times.
    let sim_host_s = median(&sim.raw);
    let mut exact = layers::exact(&w, &last, Some(&refs));

    let mut info = vec![
        ("raw.sim_host_s".into(), sim_host_s, "s"),
        ("raw.native_wall_s".into(), median(&native.raw), "s"),
        ("raw.setup_s".into(), median(&setup_s.raw), "s"),
    ];
    info.extend(peak_rss_mib().map(|rss| ("peak_rss_mib".into(), rss, "MiB")));
    let mut computed: Vec<(String, Vec<f64>)> = vec![
        ("sim_host_s".into(), sim.reference.clone()),
        ("native_wall_s".into(), native.reference),
        ("setup_s".into(), setup_s.reference),
        ("peak_heap_mib".into(), vec![peak_heap_mib()]),
    ];
    if args.traced {
        tracer.set_recording(true);
        let mut traced_sim = Samples::default();
        let mut pass = Vec::new();
        for _ in 0..MIN_PASSES {
            let k = speed_factor();
            pass = w.pass(&data, &mut tracer, &mut next_op);
            let records: Vec<Record> = pass.iter().map(OpOut::record).collect();
            tally.check(&w, &records, &first, &refs);
            traced_sim.push(host_s(&pass, false), k);
        }
        let inputs = LayerInputs {
            workload: &w,
            data: &data,
            pass: &pass,
            refs: &refs,
            sim_host_s,
            trace_overhead_frac: median(&traced_sim.reference) / median(&sim.reference) - 1.0,
        };
        let figures = layers::per_layer(&inputs, &mut tracer, next_op)?;
        exact = layers::exact(&w, &pass, Some(&refs));
        computed = figures.into_iter().map(|(k, v)| (k, vec![v])).collect();
        write_trace(&w, &tracer)?;
    }

    let declared = spec.metrics(args.traced);
    if let Some((name, _)) = computed.iter().find(|(n, _)| !declared.iter().any(|m| &m.name == n)) {
        return Err(format!("{name} is not declared in BENCHMARK.json"));
    }
    let metrics = declared
        .iter()
        .map(|m| {
            let v = computed.iter().find(|(n, _)| n == &m.name).map(|(_, v)| v.clone());
            v.map(|v| (m.name.clone(), m.unit.clone(), v))
                .ok_or_else(|| format!("the run produces no {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        workload: w.name.to_string(),
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        exact,
        info,
    })
}

/// Times as measured, and the same times in reference seconds.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    reference: Vec<f64>,
}

impl Samples {
    /// Record `secs` measured while the host ran at `speed` (see
    /// [`speed_factor`]).
    fn push(&mut self, secs: f64, speed: f64) {
        self.raw.push(secs);
        self.reference.push(secs * speed);
    }
}

/// Write the traced run's spans to `target/perf/trace-<workload>.json`.
fn write_trace(w: &Workload, tracer: &Tracer) -> Result<(), String> {
    let dir = PathBuf::from("target").join("perf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, tracer.to_json(w.name).to_compact() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}
