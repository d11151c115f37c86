//! `e2e`: the end-to-end benchmark's command line.
//!
//! ```text
//! e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!     [--quick] [--out DIR]
//! e2e compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! e2e summary DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! The last line of standard output is the run's result object; every
//! other report goes to standard error. See `e2ebench/README.md`.

use e2ebench::measure::{self, Tail};
use e2ebench::{json, Config, RunResult, Workload};
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out DIR]
       e2e compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
       e2e summary DIR [--benchmark BENCHMARK.json]
workloads: planetlab-open planetlab-enum fattree-churn powerlaw-hier";

fn fail_usage(msg: &str) -> ! {
    eprintln!("e2e: {msg}\n{USAGE}");
    exit(2)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail_usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload");
                a.workload = match v.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name)
                            .unwrap_or_else(|| fail_usage(&format!("unknown workload {name}"))),
                    ),
                };
            }
            "--seed" => {
                a.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--seed takes a whole number"))
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| fail_usage("--seconds takes a number"));
                if !(s > 0.0 && s <= 3600.0) {
                    fail_usage("--seconds must be in (0, 3600]");
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("--out"))),
            // `cargo bench` appends this to every bench target's argv.
            "--bench" => {}
            other => fail_usage(&format!("unknown argument {other}")),
        }
    }
    a
}

/// Run every workload in a fresh child process, so caches and peak RSS
/// stay per workload.
fn run_all(args: &[String]) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("e2e: cannot find own executable: {e}");
        exit(2)
    });
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(w.name())
            .args(&rest)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    exit(if ok { 0 } else { 1 })
}

fn tail_json(t: &Tail) -> String {
    json::object([
        ("percentile", json::number(t.percentile)),
        ("value", json::number(t.value)),
        ("samples", t.samples.to_string()),
    ])
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The result file: the result line's fields plus what produced it.
fn write_result(dir: &std::path::Path, cfg: &Config, r: &RunResult) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let stem = format!(
        "{started:013}-{}-trace{}-seed{}",
        cfg.workload.name(),
        u8::from(cfg.trace),
        cfg.seed
    );
    let tails = json::object(r.tails.iter().map(|(k, t)| (k.as_str(), tail_json(t))));
    let notes = format!(
        "[{}]",
        r.notes
            .iter()
            .map(|n| json::string(n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let doc = json::object([
        ("workload", json::string(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("trace", cfg.trace.to_string()),
        ("quick", cfg.quick.to_string()),
        ("seconds", json::number(cfg.window.as_secs_f64())),
        ("host_cores", host_cores().to_string()),
        ("git_rev", json::string(env!("E2E_GIT_REV"))),
        ("rustc", json::string(env!("E2E_RUSTC"))),
        ("correct", "true".to_string()),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        ("metrics", measure::metrics_json(&r.metrics)),
        ("tails", tails),
        ("notes", notes),
    ]);
    std::fs::write(dir.join(format!("{stem}.json")), doc + "\n")?;
    if let Some(spans) = &r.spans {
        spans.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

/// `--benchmark PATH` after a subcommand's directories, or the
/// repository root's `BENCHMARK.json`.
fn benchmark_arg<'a>(mut rest: impl Iterator<Item = &'a String>) -> PathBuf {
    match (rest.next().map(String::as_str), rest.next()) {
        (None, _) => PathBuf::from("BENCHMARK.json"),
        (Some("--benchmark"), Some(p)) => PathBuf::from(p),
        _ => fail_usage("only --benchmark PATH may follow the directories"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.iter().skip(1).filter(|a| *a != "--bench");
    match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(parent), Some(change)) = (rest.next(), rest.next()) else {
                fail_usage("compare needs PARENT_DIR and CHANGE_DIR")
            };
            let benchmark = benchmark_arg(rest);
            match e2ebench::compare::run(parent.as_ref(), change.as_ref(), &benchmark) {
                Ok(true) => exit(0),
                Ok(false) => exit(1),
                Err(e) => {
                    eprintln!("e2e compare: {e}");
                    exit(2)
                }
            }
        }
        Some("summary") => {
            let Some(dir) = rest.next() else {
                fail_usage("summary needs a result directory")
            };
            let benchmark = benchmark_arg(rest);
            match e2ebench::compare::summary(dir.as_ref(), &benchmark) {
                Ok(doc) => {
                    println!("{doc}");
                    exit(0)
                }
                Err(e) => {
                    eprintln!("e2e summary: {e}");
                    exit(2)
                }
            }
        }
        _ => {}
    }

    // Settings that would change what is measured are pinned in the
    // bench; refuse an environment that tries to override them.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("NETEMBED_")) {
        eprintln!("e2e: refusing to run with {k} set: the bench pins every NETEMBED setting");
        exit(2);
    }
    let a = parse_args(&args);
    let Some(workload) = a.workload else {
        run_all(&args)
    };
    let cfg = Config {
        workload,
        seed: a.seed,
        window: Duration::from_secs_f64(a.seconds.unwrap_or(if a.quick { 1.0 } else { 25.0 })),
        trace: a.trace,
        quick: a.quick,
        out: a.out,
    };
    eprintln!(
        "e2e: {} seed {} window {:?} trace {} quick {} | host_cores {} rev {} {}",
        workload.name(),
        cfg.seed,
        cfg.window,
        cfg.trace,
        cfg.quick,
        host_cores(),
        env!("E2E_GIT_REV"),
        env!("E2E_RUSTC"),
    );
    let result = match e2ebench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: {}: check failed: {e}", workload.name());
            exit(1)
        }
    };
    for n in &result.notes {
        eprintln!("  {n}");
    }
    for (name, t) in &result.tails {
        eprintln!(
            "  {name}: p{} = {:.4} over {} samples",
            t.percentile * 100.0,
            t.value,
            t.samples
        );
    }
    for m in &result.metrics {
        eprintln!("  {:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Some(dir) = &cfg.out {
        if let Err(e) = write_result(dir, &cfg, &result) {
            eprintln!("e2e: cannot write results to {}: {e}", dir.display());
            exit(2);
        }
    }
    println!(
        "{}",
        measure::result_line(result.attempted, result.failed, &result.metrics)
    );
}
