//! `gmbench compare OLD.json NEW.json`: one row per workload ×
//! end-to-end metric — both medians, the ratio with its base, the
//! bound, and a verdict. A metric whose own run-to-run spread in OLD
//! exceeds its bound is *unresolved*, never "same".

use crate::json::Value;
use crate::metrics::{self, Better, Bound, MetricDef};
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges NEW's runs against OLD's for one metric.
pub fn judge(def: &MetricDef, old: &[f64], new: &[f64]) -> Verdict {
    let (old_m, new_m) = (median(old), median(new));
    // Positive = worse, as a share of the old median.
    let delta = match def.better {
        Better::Lower => new_m - old_m,
        Better::Higher => old_m - new_m,
    };
    let share = if old_m != 0.0 {
        delta / old_m.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(delta)
    };
    let (rel, abs) = match def.bound {
        Some(Bound::Exact) => {
            return if spread(old) > 0.0 {
                // OLD's own runs disagree on a count that should repeat.
                Verdict::Unresolved
            } else if delta > 0.0 {
                Verdict::Worse
            } else if delta < 0.0 {
                Verdict::Better
            } else {
                Verdict::Same
            };
        }
        Some(Bound::Rel(rel)) => (rel, 0.0),
        Some(Bound::RelAndAbs(rel, abs)) => (rel, abs),
        None => return Verdict::Same,
    };
    if spread(old) > rel {
        Verdict::Unresolved
    } else if share > rel && delta > abs {
        Verdict::Worse
    } else if share < -rel && -delta > abs {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn bound_label(bound: Option<Bound>) -> String {
    match bound {
        Some(Bound::Rel(rel)) => format!("{:.0}%", rel * 100.0),
        Some(Bound::RelAndAbs(rel, abs)) => format!("{:.0}% and {abs} s", rel * 100.0),
        Some(Bound::Exact) => "exact".to_string(),
        None => "-".to_string(),
    }
}

/// One workload's values of `name` over its untraced runs.
fn values(workload: &Value, name: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(name)?.as_f64())
        .collect()
}

fn hashes(workload: &Value) -> Vec<&str> {
    workload
        .get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("outcome_hash")?.as_str())
        .collect()
}

/// Prints the comparison; returns whether anything got worse.
pub fn compare(old: &Value, new: &Value) -> Result<bool, String> {
    let old_workloads = old
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("OLD has no `workloads` object")?;
    let new_workloads = new
        .get("workloads")
        .ok_or("NEW has no `workloads` object")?;
    let seed = |v: &Value| {
        v.get("meta")
            .and_then(|m| m.get("seed"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    if seed(old) != seed(new) {
        println!(
            "note: seeds differ (OLD {:?}, NEW {:?}); exact metrics compare across inputs",
            seed(old),
            seed(new)
        );
    }
    println!(
        "{:<17} {:<16} {:>14} {:>14} {:>9}  {:<14} verdict",
        "workload", "metric", "old median", "new median", "new/old", "bound"
    );
    let mut any_worse = false;
    for (name, old_w) in old_workloads {
        let Some(new_w) = new_workloads.get(name) else {
            println!("{name:<17} missing from NEW");
            any_worse = true;
            continue;
        };
        for def in metrics::end_to_end() {
            let (o, n) = (values(old_w, def.name), values(new_w, def.name));
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let (old_m, new_m) = (median(&o), median(&n));
            // A metric the workload does not have reads 0 on both sides.
            if old_m == 0.0 && new_m == 0.0 && def.name != "failed_share" {
                continue;
            }
            let verdict = judge(def, &o, &n);
            any_worse |= verdict == Verdict::Worse;
            let ratio = if old_m != 0.0 {
                format!("{:.4}", new_m / old_m)
            } else {
                "-".to_string()
            };
            println!(
                "{name:<17} {:<16} {old_m:>14.6} {new_m:>14.6} {ratio:>9}  {:<14} {}{}",
                def.name,
                bound_label(def.bound),
                verdict.label(),
                if verdict == Verdict::Unresolved {
                    format!(" (OLD's own spread {:.1}%)", 100.0 * spread(&o))
                } else {
                    String::new()
                },
            );
        }
        let (oh, nh) = (hashes(old_w), hashes(new_w));
        if let (Some(a), Some(b)) = (oh.first(), nh.first()) {
            if a != b {
                println!("{name:<17} behaviour changed: outcome hash {a} -> {b}");
            }
        }
    }
    println!("ratios are new median / old median; the base is the old median in the metric's unit");
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lookup;

    #[test]
    fn relative_bound_separates_same_worse_and_better() {
        let wall = lookup("wall_s").unwrap(); // lower is better, 10%
        let old = [10.0, 10.1, 9.9];
        assert_eq!(judge(wall, &old, &[10.9]), Verdict::Same);
        assert_eq!(judge(wall, &old, &[11.2]), Verdict::Worse);
        assert_eq!(judge(wall, &old, &[8.5]), Verdict::Better);
        let jobs = lookup("jobs_per_s").unwrap(); // higher is better
        assert_eq!(judge(jobs, &[1000.0], &[850.0]), Verdict::Worse);
        assert_eq!(judge(jobs, &[1000.0], &[1150.0]), Verdict::Better);
        assert_eq!(judge(jobs, &[1000.0], &[950.0]), Verdict::Same);
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_not_same() {
        let wall = lookup("wall_s").unwrap();
        // Quartiles 8 and 12 around a median of 10: a 40% spread.
        let old = [8.0, 10.0, 12.0];
        assert_eq!(judge(wall, &old, &[10.0]), Verdict::Unresolved);
        assert_eq!(judge(wall, &old, &[20.0]), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let iters = lookup("iterations").unwrap(); // lower is better
        assert_eq!(judge(iters, &[113.0, 113.0], &[113.0]), Verdict::Same);
        assert_eq!(judge(iters, &[113.0], &[114.0]), Verdict::Worse);
        assert_eq!(judge(iters, &[113.0], &[112.0]), Verdict::Better);
        let cov = lookup("coverage_pct").unwrap(); // higher is better
        assert_eq!(judge(cov, &[91.5], &[91.4]), Verdict::Worse);
        let failed = lookup("failed_share").unwrap();
        assert_eq!(judge(failed, &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(judge(failed, &[0.0], &[0.01]), Verdict::Worse);
        assert_eq!(
            judge(iters, &[113.0, 114.0, 115.0], &[113.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_needs_both_the_share_and_the_absolute_amount() {
        let setup = lookup("setup_s").unwrap(); // 10% and 0.05 s
                                                // +100%, but only 10 ms: not a regression.
        assert_eq!(judge(setup, &[0.010], &[0.020]), Verdict::Same);
        // +60 ms, but only 6%: not a regression.
        assert_eq!(judge(setup, &[1.000], &[1.060]), Verdict::Same);
        assert_eq!(judge(setup, &[0.500], &[0.700]), Verdict::Worse);
        assert_eq!(judge(setup, &[0.500], &[0.300]), Verdict::Better);
    }
}
