//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled into the binary: metric names, units, directions and bounds
//! live in that one file, and every command reads them from here.

use crate::json::{self, Json};

const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The metrics a run reports: end-to-end ones untraced, per-layer
    /// ones traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The compiled-in declaration.
pub fn spec() -> Result<Spec, String> {
    parse(SPEC_TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = json::parse(text)?;
    let run_seconds = root
        .get("run_seconds")
        .and_then(Json::as_f64)
        .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
        .ok_or("run_seconds must be a whole number from 1 to 60")? as u64;
    let workloads = root
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload has no name")?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        let list = root.get(key).and_then(Json::as_arr).ok_or(format!("missing {key}"))?;
        list.iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f).and_then(Json::as_str).ok_or(format!("{key}: a metric lacks {f}"))
                };
                let better = match field("better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("{key}: bad direction {other:?}")),
                };
                Ok(MetricSpec {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    better,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let end_to_end = metrics("end_to_end")?;
    if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", m.name));
    }
    Ok(Spec { run_seconds, workloads, end_to_end, per_layer: metrics("per_layer")? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_declaration_parses() {
        let s = spec().unwrap();
        assert!(s.workloads.len() >= 2);
        assert!(s.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(!s.per_layer.is_empty());
    }
}
