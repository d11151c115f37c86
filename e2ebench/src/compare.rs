//! `e2e compare PARENT_DIR CHANGE_DIR`: judge two sets of result files
//! (written with `--out`) against the end-to-end bounds in
//! `BENCHMARK.json`.
//!
//! Runs pair up in file-name order (the names start with the run's
//! start time, so alternating parent/change runs pair up as they were
//! made). Per (metric, workload) the verdict is:
//!
//! * **improved** — at least ten pairs, the change wins at least nine in
//!   ten of them (ties count for neither), and the medians differ by
//!   more than the parent's interquartile range;
//! * **unresolved** — the parent's own spread (IQR over median) is wider
//!   than the bound, unless every change run beats every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound (a share of the parent's median);
//! * **unchanged** — otherwise.
//!
//! The failed-operation share of each side is printed beside them; a
//! gain does not count when the change fails more operations.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's direction and regression bound.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One untraced result file.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    seed: f64,
    seconds: f64,
    host_cores: f64,
    git_rev: String,
}

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut runs = Vec::new();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let num = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        runs.push(Run {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{}: no workload", path.display()))?
                .to_string(),
            metrics,
            attempted: num("attempted"),
            failed: num("failed"),
            seed: num("seed"),
            seconds: num("seconds"),
            host_cores: num("host_cores"),
            git_rev: doc
                .get("git_rev")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
        });
    }
    Ok(runs)
}

/// `e2e summary DIR`: per workload and end-to-end metric, the median,
/// quartiles and spread (interquartile range over median) of the
/// untraced result files in `DIR`, as one JSON document. This is the
/// form of the committed `baseline.json`.
pub fn summary(dir: &Path, benchmark: &Path) -> Result<String, String> {
    let bounds = load_bounds(benchmark)?;
    let runs = load_runs(dir)?;
    if runs.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    let mut by_workload: BTreeMap<&str, Vec<&Run>> = BTreeMap::new();
    for r in &runs {
        by_workload.entry(r.workload.as_str()).or_default().push(r);
    }
    let workloads = json::object(by_workload.iter().map(|(w, runs)| {
        let metrics = json::object(bounds.iter().filter_map(|b| {
            let series: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(&b.name).copied())
                .collect();
            let [q1, q2, q3] = quartiles(&series)?;
            Some((
                b.name.as_str(),
                json::object([
                    ("median", json::number(q2)),
                    ("q1", json::number(q1)),
                    ("q3", json::number(q3)),
                    ("spread", json::number((q3 - q1) / q2.abs())),
                    ("runs", series.len().to_string()),
                ]),
            ))
        }));
        (*w, metrics)
    }));
    // What produced the runs: every distinct value of each field.
    let numbers =
        |field: fn(&Run) -> f64| json_set(runs.iter().map(field).collect(), |x| json::number(*x));
    Ok(json::object([
        (
            "git_rev",
            json_set(runs.iter().map(|r| r.git_rev.as_str()).collect(), |r| {
                json::string(r)
            }),
        ),
        ("host_cores", numbers(|r| r.host_cores)),
        ("seconds", numbers(|r| r.seconds)),
        ("seeds", numbers(|r| r.seed)),
        ("workloads", workloads),
    ]))
}

/// The distinct `values`, sorted, as a JSON list.
fn json_set<T: PartialOrd>(mut values: Vec<T>, encode: impl Fn(&T) -> String) -> String {
    values.sort_by(|a, b| a.partial_cmp(b).expect("comparable values"));
    values.dedup_by(|a, b| a == b);
    let items: Vec<String> = values.iter().map(encode).collect();
    format!("[{}]", items.join(", "))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Apply the rules in the module docs to one (metric, workload) pair of
/// series, given in run order.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(p), Some(c)) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let gap = c[1] - p[1];
    let iqr = p[2] - p[0];
    if pairs >= 10 && wins * 10 >= pairs * 9 && gap.abs() > iqr && better(c[1], p[1]) {
        return Verdict::Improved;
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if iqr / p[1].abs() > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = if lower_is_better { gap } else { -gap };
    if worse > bound * p[1].abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Print the comparison; `Ok(true)` when nothing regressed or stayed
/// unresolved.
pub fn run(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = load_bounds(benchmark)?;
    let parent = load_runs(parent_dir)?;
    let change = load_runs(change_dir)?;
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut clean = true;
    println!(
        "{:<16} {:<16} {:>28} {:>28}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for w in workloads {
        let side = |runs: &[Run]| {
            runs.iter()
                .filter(|r| r.workload == w)
                .cloned()
                .collect::<Vec<_>>()
        };
        let (p_runs, c_runs) = (side(&parent), side(&change));
        if c_runs.is_empty() {
            println!("{w:<16} no change runs");
            clean = false;
            continue;
        }
        for b in &bounds {
            let series = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&b.name).copied())
                    .collect()
            };
            let (p, c) = (series(&p_runs), series(&c_runs));
            let v = verdict(&p, &c, b.lower_is_better, b.bound);
            clean &= !matches!(v, Verdict::Regressed | Verdict::Unresolved);
            let fmt = |s: &[f64]| match quartiles(s) {
                Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
                None => "-".to_string(),
            };
            println!(
                "{w:<16} {:<16} {:>28} {:>28}  {v:?}",
                b.name,
                fmt(&p),
                fmt(&c)
            );
        }
        let share = |runs: &[Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            let failed: f64 = runs.iter().map(|r| r.failed).sum();
            failed / attempted.max(1.0)
        };
        let (pf, cf) = (share(&p_runs), share(&c_runs));
        println!(
            "{w:<16} {:<16} {pf:>28.6} {cf:>28.6}  {}",
            "failed_share",
            if cf > pf {
                "more failures: no gain counts"
            } else {
                "ok"
            }
        );
        clean &= cf <= pf;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&parent, &same, true, 0.1), Verdict::Unchanged);
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&noisy, &noisy, true, 0.1), Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Improved);
    }
}
