//! NETEMBED experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation (§VII).
//! Run `cargo run -p harness --release -- list` for the experiment index,
//! or `-- all` for the full suite. Output is CSV on stdout; diagnostics
//! are `#`-prefixed or on stderr.

mod ablations;
mod common;
mod experiments;

use common::{outln, Config};
use std::time::Duration;

const USAGE: &str = "\
NETEMBED experiment harness

USAGE:
    harness <experiment> [--scale X] [--timeout-ms N] [--seed N] [--reps N]

EXPERIMENTS:
    fig8a fig8b fig8c   Fig 8: per-algorithm time vs query size (PlanetLab)
    fig9a fig9b         Fig 9: algorithm comparison (all / first match)
    fig10               Fig 10: feasible vs infeasible queries
    fig11               Fig 11: BRITE hosts, mean search time
    fig12               Fig 12: BRITE hosts, time to first match
    fig13a fig13b       Fig 13: clique queries (all / first)
    fig14a fig14b       Fig 14: composite queries (regular / irregular)
    fig15               Fig 15: outcome-type distribution
    sec7f               §VII-F: baselines comparison
    abl-order abl-negcache abl-par abl-lns    design ablations
    all                 every experiment above

OPTIONS:
    --scale X        host-size multiplier, 1.0 = paper scale (default 0.5)
    --timeout-ms N   per-query timeout in ms (default 10000)
    --seed N         base RNG seed (default 42)
    --reps N         repetitions per data point (default 5)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let exp = args[0].clone();
    let mut cfg = Config::default();
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--scale"))
            }
            "--timeout-ms" => {
                let ms: u64 = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--timeout-ms"));
                cfg.timeout = Duration::from_millis(ms);
            }
            "--seed" => {
                cfg.seed = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--seed"))
            }
            "--reps" => {
                cfg.reps = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad_flag("--reps"))
            }
            other => {
                eprintln!("unknown option `{other}`\n");
                eprint!("{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    run(&exp, &cfg);
}

fn bad_flag(flag: &str) -> ! {
    eprintln!("bad or missing value for {flag}");
    std::process::exit(2);
}

fn run(exp: &str, cfg: &Config) {
    match exp {
        "list" => common::write_stdout(format_args!("{USAGE}")),
        "fig8a" | "fig8b" | "fig8c" | "fig9a" | "fig9b" => experiments::fig08_09(exp, cfg),
        "fig10" => experiments::fig10(cfg),
        "fig11" => experiments::fig11_12(false, cfg),
        "fig12" => experiments::fig11_12(true, cfg),
        "fig13a" => experiments::fig13(false, cfg),
        "fig13b" => experiments::fig13(true, cfg),
        "fig14a" => experiments::fig14(false, cfg),
        "fig14b" => experiments::fig14(true, cfg),
        "fig15" => experiments::fig15(cfg),
        "sec7f" => experiments::sec7f(cfg),
        "abl-order" => ablations::abl_order(cfg),
        "abl-negcache" => ablations::abl_negcache(cfg),
        "abl-par" => ablations::abl_par(cfg),
        "abl-lns" => ablations::abl_lns(cfg),
        "all" => {
            for e in [
                "fig8a",
                "fig8b",
                "fig8c",
                "fig9a",
                "fig9b",
                "fig10",
                "fig11",
                "fig12",
                "fig13a",
                "fig13b",
                "fig14a",
                "fig14b",
                "fig15",
                "sec7f",
                "abl-order",
                "abl-negcache",
                "abl-par",
                "abl-lns",
            ] {
                run(e, cfg);
                outln!("");
            }
        }
        other => {
            eprintln!("unknown experiment `{other}`\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}
