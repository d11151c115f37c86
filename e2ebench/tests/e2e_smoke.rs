//! Every workload at `--quick` scale (60 sites, k=8, 10⁴ nodes, 1 s
//! windows), untraced and traced: the same code path as a full run. Each
//! run must pass its oracle and emit every metric `BENCHMARK.json` names,
//! with its unit.

use e2ebench::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn e2e(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .output()
        .expect("e2e binary runs")
}

fn names(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_passes_its_oracle_and_emits_every_metric() {
    let bench = benchmark();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads.len(), e2ebench::Workload::ALL.len());
    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            // `--bench` is what `cargo bench` appends; it must be ignored.
            let out = e2e(&[
                "--workload",
                workload,
                "--seed",
                "1",
                "--quick",
                "--trace",
                trace,
                "--bench",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let want = names(&bench, list);
            assert_eq!(metrics.len(), want.len(), "{workload}: {list} count");
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(m
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
            }
        }
    }
}

#[test]
fn refuses_environment_overrides() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "fattree-churn", "--quick"])
        .env("NETEMBED_PLANNER_SHARDS", "4")
        .output()
        .expect("e2e binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
