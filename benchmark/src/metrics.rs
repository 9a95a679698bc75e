//! The metric vocabulary: every name the benchmark may print, with its
//! unit, direction and regression bound, and the report a workload
//! fills in. `BENCHMARK.json` is generated from — and checked against —
//! these tables (`gmbench check`).

use crate::json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// By how much a metric may worsen before `compare` calls it a
/// regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Worse by more than this share of the old median.
    Rel(f64),
    /// Worse by more than the share *and* by more than the absolute
    /// amount (tiny set-up times cannot regress meaningfully).
    RelAndAbs(f64, f64),
    /// Deterministic per seed: any worsening is a regression.
    Exact,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for the end-to-end metrics `compare` judges; layer
    /// metrics explain, they are not bounded.
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The three end-to-end metrics every workload reports; they are
/// `BENCHMARK.json`'s `end_to_end` list.
pub const UNIVERSAL: [MetricDef; 3] = [
    e2e("setup_s", "s", Lower, Bound::RelAndAbs(0.10, 0.05)),
    e2e("wall_s", "s", Lower, Bound::Rel(0.10)),
    e2e("peak_rss_mb", "MiB", Lower, Bound::Rel(0.10)),
];

/// The bounds `BENCHMARK.json` gives [`UNIVERSAL`], in its order. They
/// are wider than `compare`'s: the result-line contract has no
/// "unresolved" verdict, so its bound has to absorb the reference box's
/// steal episodes (quartile distances of 13–15% of the median were seen
/// during one, 1–3% outside), where `compare` can be strict and answer
/// "unresolved" instead. Set-up gets the widest the contract allows.
pub const CONTRACT_BOUNDS: [f64; 3] = [0.25, 0.25, 0.10];

/// End-to-end metrics only some workloads have (a replay has no
/// iterations, a closure run no jobs), plus the failure share, which is
/// 0 on a healthy run. The result-line contract wants every end-to-end
/// metric from every workload and never 0, so these travel with the
/// layer metrics there; `compare` still judges them end to end.
pub const PER_WORKLOAD: [MetricDef; 8] = [
    e2e("iterations", "count", Lower, Bound::Exact),
    e2e("coverage_pct", "%", Higher, Bound::Exact),
    e2e("input_space_pct", "%", Higher, Bound::Exact),
    e2e("vectors_per_s", "vectors/s", Higher, Bound::Rel(0.10)),
    e2e("rows_per_s", "rows/s", Higher, Bound::Rel(0.10)),
    e2e("jobs_per_s", "jobs/s", Higher, Bound::Rel(0.10)),
    e2e("job_p50_ms", "ms", Lower, Bound::Rel(0.10)),
    e2e("failed_share", "ratio", Lower, Bound::Exact),
];

/// Per-layer metrics, grouped by crate. `direct` = the benchmark times
/// the public call; `report` = read from a struct the program returns;
/// `span` = folded from the recorder in the traced pass.
pub const LAYER: [MetricDef; 84] = [
    // rtl — direct
    layer("rtl.parse_s", "s", Lower),
    layer("rtl.elaborate_s", "s", Lower),
    // sim — direct, then span
    layer("sim.compile_s", "s", Lower),
    layer("sim.bare_vps", "vectors/s", Higher),
    layer("sim.trace_vps", "vectors/s", Higher),
    layer("sim.interp_vps", "vectors/s", Higher),
    layer("sim.wide8_over_w1", "ratio", Higher),
    layer("sim.batch_s", "s", Lower),
    layer("sim.batch_n", "count", Lower),
    layer("sim.segment_s", "s", Lower),
    layer("sim.segment_n", "count", Lower),
    // coverage — direct
    layer("coverage.observer_s", "s", Lower),
    layer("coverage.points", "count", Higher),
    // mine — direct
    layer("mine.extract_s", "s", Lower),
    layer("mine.rows", "count", Higher),
    layer("mine.fit_s", "s", Lower),
    layer("mine.tree_nodes", "count", Lower),
    layer("mine.temporal_s", "s", Lower),
    layer("mine.temporal_candidates", "count", Higher),
    // sat — span, then report
    layer("sat.query_s", "s", Lower),
    layer("sat.queries", "count", Lower),
    layer("sat.conflicts", "count", Lower),
    layer("sat.decisions", "count", Lower),
    layer("sat.propagations", "count", Lower),
    layer("sat.props_per_s", "props/s", Higher),
    // mc — span, direct, report
    layer("mc.check_batch_s", "s", Lower),
    layer("mc.check_batch_self_s", "s", Lower),
    layer("mc.check_temporal_batch_s", "s", Lower),
    layer("mc.check_temporal_batch_self_s", "s", Lower),
    layer("mc.bmc_window_self_s", "s", Lower),
    layer("mc.bmc_window_n", "count", Lower),
    layer("mc.kind_depth_self_s", "s", Lower),
    layer("mc.kind_depth_n", "count", Lower),
    layer("mc.reachable_s", "s", Lower),
    layer("mc.checker_build_s", "s", Lower),
    layer("mc.explicit_queries", "count", Lower),
    layer("mc.sat_decided", "count", Lower),
    layer("mc.memo_hits", "count", Higher),
    layer("mc.frames_encoded", "count", Lower),
    layer("mc.frames_reused", "count", Higher),
    layer("mc.frame_reuse_ratio", "ratio", Higher),
    layer("mc.cex_canonicalized", "count", Lower),
    layer("mc.queries_per_decision", "ratio", Lower),
    // core — report, direct, span
    layer("core.verify_s", "s", Lower),
    layer("core.temporal_s", "s", Lower),
    layer("core.refine_s", "s", Lower),
    layer("core.coverage_s", "s", Lower),
    layer("core.iter_residual_s", "s", Lower),
    layer("core.engine_new_s", "s", Lower),
    layer("core.verify_self_s", "s", Lower),
    layer("core.attributed_share", "ratio", Higher),
    layer("core.candidates", "count", Lower),
    layer("core.refuted", "count", Lower),
    layer("core.proved", "count", Higher),
    layer("core.proved_ratio", "ratio", Higher),
    layer("core.temporal_proved", "count", Higher),
    layer("core.directed_absorbed", "count", Higher),
    layer("core.suite_cycles", "count", Lower),
    layer("core.unknown_assumed", "count", Lower),
    layer("core.shard2_speedup", "ratio", Higher),
    // serve — client side, report, direct, span
    layer("serve.job_p99_ms", "ms", Lower),
    layer("serve.queue_mean_ms", "ms", Lower),
    layer("serve.run_mean_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.standalone_ratio", "ratio", Lower),
    layer("serve.codec_s", "s", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Lower),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.compiled_built", "count", Lower),
    layer("serve.compiled_reused", "count", Higher),
    layer("serve.steals", "count", Lower),
    layer("serve.jobs_retried", "count", Lower),
    layer("serve.requests_shed", "count", Lower),
    layer("serve.failed", "count", Lower),
    layer("serve.queue_s", "s", Lower),
    layer("serve.job_self_s", "s", Lower),
    layer("serve.build_checker_s", "s", Lower),
    layer("serve.compile_tape_s", "s", Lower),
    // trace — both passes
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.events", "count", Lower),
    layer("trace.dropped", "count", Lower),
    // fault — asserted 0
    layer("fault.armed", "count", Lower),
];

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "closure_explicit",
        "default closure loop where the explicit-state engine and its lazy reachable-set build decide everything and SAT does nothing",
    ),
    (
        "closure_sat",
        "latch-free and k-induction-bounded closure where sat + mc sessions, unrolling and induction do the work and the explicit engine none",
    ),
    (
        "closure_temporal",
        "temporal mining + refinement: check_temporal_batch BMC-window scanning, the only user of mine::temporal, directed synthesis and UncoveredIndex",
    ),
    (
        "suite_replay",
        "no model checking: coverage-attached replay and trace-to-dataset-to-tree mining, where sim, coverage and mine do all the work",
    ),
    (
        "serve_mix",
        "small jobs through gmserved over a socket, 3-in-4 cache hits and 1-in-4 never-repeating designs: queue, wire codec, cache checkout/park and tape reuse are most of each job",
    ),
];

/// Every end-to-end metric `compare` judges (universal first).
pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    UNIVERSAL.iter().chain(PER_WORKLOAD.iter())
}

/// What a `--trace 1` result line carries: `BENCHMARK.json`'s
/// `per_layer` list.
pub fn traced_line() -> impl Iterator<Item = &'static MetricDef> {
    PER_WORKLOAD.iter().chain(LAYER.iter())
}

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    end_to_end().chain(LAYER.iter()).find(|d| d.name == name)
}

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted: a closure run, a replay pass, a served job.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// FNV-1a over the program's rendered outputs, so `compare` can say
    /// "behaviour changed" next to a timing delta.
    pub outcome_hash: u64,
    /// Findings worth a line but not a metric (sample counts,
    /// residuals).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a measured value. Panics on a name outside the tables —
    /// a typo must not silently create a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            lookup(name).is_some(),
            "metric `{name}` is not in the tables"
        );
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.get(name) + value;
        self.set(name, sum);
    }

    /// A recorded value; 0 when the workload does not exercise the
    /// metric's layer.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts one failed operation. A failure is never a silent pass:
    /// it makes the run incorrect.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted.max(1))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and the selected metrics, each with value and unit.
    pub fn result_line<'a>(&self, defs: impl Iterator<Item = &'a MetricDef>) -> String {
        let metrics = defs
            .map(|d| {
                let value = self.get(d.name);
                (
                    d.name.to_string(),
                    Value::obj(vec![
                        (
                            "value",
                            Value::Num(if value.is_finite() { value } else { 0.0 }),
                        ),
                        ("unit", Value::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_well_formed_and_have_units() {
        let mut seen = BTreeSet::new();
        for d in end_to_end().chain(LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {}",
                d.name
            );
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit for {}",
                d.name
            );
        }
        assert_eq!(end_to_end().count(), 11);
        assert_eq!(LAYER.len(), 84);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("wall_s", 1.25);
        let line = r.result_line(UNIVERSAL.iter());
        let v = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        r.fail("boom");
        let v = crate::json::parse(&r.result_line(UNIVERSAL.iter())).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "not in the tables")]
    fn unknown_metric_names_are_rejected() {
        Report::default().set("sat.querys", 1.0);
    }
}
