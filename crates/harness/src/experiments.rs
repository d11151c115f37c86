//! The per-figure experiments (§VII of the paper).
//!
//! Each function regenerates one table/figure as CSV rows (see
//! [`crate::common`] for the schema). The experiment index that
//! `harness list` prints maps each experiment onto the paper's plots.

use crate::common::{algo_series, emit, outln, print_header, run_once, Config, Sample};
use netembed::{Algorithm, Engine, Options, Outcome, Problem, SearchMode};
use netgraph::Network;
use topogen::{
    assign_composite_windows, assign_random_windows, clique_query, composite_query,
    make_infeasible, subgraph_query, CompositeSpec, Level, QueryWorkload, SubgraphParams,
    CLIQUE_CONSTRAINT,
};

/// Query sizes as fractions of the host, matching the paper's 20..220 of
/// 296 sweep.
const SIZE_FRACTIONS: [f64; 8] = [0.07, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.74];

fn subgraph_sizes(host: &Network) -> Vec<usize> {
    SIZE_FRACTIONS
        .iter()
        .map(|f| ((host.node_count() as f64 * f) as usize).max(3))
        .collect()
}

fn planted_queries(host: &Network, n: usize, cfg: &Config) -> Vec<QueryWorkload> {
    (0..cfg.reps)
        .map(|r| {
            subgraph_query(
                host,
                &SubgraphParams {
                    n,
                    edge_keep: 0.3,
                    slack: 0.02,
                },
                &mut topogen::rng(cfg.seed.wrapping_add(1000 * n as u64 + r as u64)),
            )
        })
        .collect()
}

/// Figures 8 and 9: PlanetLab subgraph queries — per-algorithm time (all
/// matches and first match) versus query size.
///
/// `which` selects the emitted series: "fig8a" (ECF), "fig8b" (RWB),
/// "fig8c" (LNS), "fig9a" (all-matches comparison), "fig9b" (first-match
/// comparison).
pub fn fig08_09(which: &str, cfg: &Config) {
    let host = cfg.planetlab();
    print_header(&format!(
        "{which}: PlanetLab-like host N={} E={} (paper: N=296 E=28996)",
        host.node_count(),
        host.edge_count()
    ));
    for n in subgraph_sizes(&host) {
        let queries = planted_queries(&host, n, cfg);
        let collect = |algorithm: Algorithm, mode: SearchMode, series: &str| {
            let samples: Vec<Sample> = queries
                .iter()
                .map(|wl| {
                    run_once(
                        &host,
                        &wl.query,
                        &wl.constraint,
                        algorithm,
                        mode,
                        cfg.timeout,
                        cfg.seed,
                    )
                })
                .collect();
            emit(which, series, n, &samples);
        };
        match which {
            "fig8a" => {
                collect(Algorithm::Ecf, SearchMode::All, "ECF-all");
                collect(Algorithm::Ecf, SearchMode::First, "ECF-first");
            }
            "fig8b" => {
                collect(Algorithm::Rwb, SearchMode::First, "RWB-first");
            }
            "fig8c" => {
                collect(Algorithm::Lns, SearchMode::All, "LNS-all");
                collect(Algorithm::Lns, SearchMode::First, "LNS-first");
            }
            "fig9a" => {
                for (alg, label) in algo_series() {
                    // Paper Fig 9(a): mean time until all matches found.
                    // RWB stops at the first match by design; the paper
                    // plots it alongside, which we reproduce.
                    let mode = if alg == Algorithm::Rwb {
                        SearchMode::First
                    } else {
                        SearchMode::All
                    };
                    collect(alg, mode, label);
                }
            }
            "fig9b" => {
                for (alg, label) in algo_series() {
                    collect(alg, SearchMode::First, label);
                }
            }
            other => panic!("unknown sub-experiment {other}"),
        }
    }
}

/// Figure 10: feasible vs infeasible queries (same topology, poisoned
/// delay windows) for each algorithm.
pub fn fig10(cfg: &Config) {
    let host = cfg.planetlab();
    print_header(&format!(
        "fig10: match vs no-match on PlanetLab-like host N={}",
        host.node_count()
    ));
    for n in subgraph_sizes(&host) {
        let queries = planted_queries(&host, n, cfg);
        for (alg, label) in algo_series() {
            let mode = if alg == Algorithm::Rwb {
                SearchMode::First
            } else {
                SearchMode::All
            };
            let match_samples: Vec<Sample> = queries
                .iter()
                .map(|wl| {
                    run_once(
                        &host,
                        &wl.query,
                        &wl.constraint,
                        alg,
                        mode,
                        cfg.timeout,
                        cfg.seed,
                    )
                })
                .collect();
            emit("fig10", &format!("{label}-match"), n, &match_samples);
            let nomatch_samples: Vec<Sample> = queries
                .iter()
                .enumerate()
                .map(|(i, wl)| {
                    let bad = make_infeasible(wl, 0.15, &mut topogen::rng(cfg.seed + i as u64));
                    run_once(
                        &host,
                        &bad.query,
                        &bad.constraint,
                        alg,
                        mode,
                        cfg.timeout,
                        cfg.seed,
                    )
                })
                .collect();
            emit("fig10", &format!("{label}-nomatch"), n, &nomatch_samples);
        }
    }
}

/// Figures 11 and 12: BRITE hosts (paper: N = 1500 / 2000 / 2500, E≈2N).
/// `first_match` selects Fig 12 (time to first) vs Fig 11 (all matches).
pub fn fig11_12(first_match: bool, cfg: &Config) {
    let exp = if first_match { "fig12" } else { "fig11" };
    for full_n in [1500usize, 2000, 2500] {
        let host = cfg.brite(full_n);
        print_header(&format!(
            "{exp}: BRITE-like host N={} E={} (paper: N={full_n} E≈{})",
            host.node_count(),
            host.edge_count(),
            2 * full_n
        ));
        let sizes: Vec<usize> = [0.1, 0.2, 0.35, 0.5, 0.65, 0.8]
            .iter()
            .map(|f| ((host.node_count() as f64 * f) as usize).max(3))
            .collect();
        for n in sizes {
            let queries = planted_queries(&host, n, cfg);
            for (alg, label) in algo_series() {
                let mode = if first_match || alg == Algorithm::Rwb {
                    SearchMode::First
                } else {
                    SearchMode::All
                };
                let samples: Vec<Sample> = queries
                    .iter()
                    .map(|wl| {
                        run_once(
                            &host,
                            &wl.query,
                            &wl.constraint,
                            alg,
                            mode,
                            cfg.timeout,
                            cfg.seed,
                        )
                    })
                    .collect();
                emit(exp, &format!("{label}-N{full_n}"), n, &samples);
            }
        }
    }
}

/// Figure 13: embedding cliques with a 10–100 ms delay window into the
/// PlanetLab-like host. `first_match` selects Fig 13(b).
pub fn fig13(first_match: bool, cfg: &Config) {
    let exp = if first_match { "fig13b" } else { "fig13a" };
    let host = cfg.planetlab();
    print_header(&format!(
        "{exp}: clique queries (delay 10..100ms) on PlanetLab-like host N={}",
        host.node_count()
    ));
    let max_k = cfg.scaled(20, 6);
    for k in 2..=max_k {
        let wl = clique_query(k, 10.0, 100.0);
        for (alg, label) in algo_series() {
            let samples: Vec<Sample> = (0..cfg.reps)
                .map(|r| {
                    let seed = cfg.seed + r as u64;
                    if first_match {
                        run_once(
                            &host,
                            &wl.query,
                            &wl.constraint,
                            alg,
                            SearchMode::First,
                            cfg.timeout,
                            seed,
                        )
                    } else {
                        crate::common::run_counting(
                            &host,
                            &wl.query,
                            &wl.constraint,
                            alg,
                            cfg.timeout,
                            seed,
                            &mut netembed::EmbedScratch::new(),
                        )
                    }
                })
                .collect();
            emit(exp, label, k, &samples);
        }
    }
}

/// The composite-query workloads of Figure 14.
fn composite_workloads(cfg: &Config, irregular: bool) -> Vec<(usize, QueryWorkload)> {
    let mut out = Vec::new();
    let specs = [
        (Level::Ring, 3, Level::Star, 3),
        (Level::Ring, 4, Level::Star, 4),
        (Level::Star, 4, Level::Ring, 4),
        (Level::Ring, 5, Level::Star, 5),
        (Level::Clique, 4, Level::Star, 6),
        (Level::Ring, 6, Level::Star, 6),
        (Level::Star, 6, Level::Clique, 6),
        (Level::Ring, 8, Level::Star, 8),
    ];
    for (i, (root, groups, leaf, group_size)) in specs.iter().enumerate() {
        let spec = CompositeSpec {
            root: *root,
            groups: *groups,
            leaf: *leaf,
            group_size: *group_size,
        };
        if spec.node_count() > cfg.scaled(70, 12) {
            continue;
        }
        let mut q = composite_query(&spec);
        if irregular {
            assign_random_windows(
                &mut q,
                25.0,
                175.0,
                60.0,
                &mut topogen::rng(cfg.seed + i as u64),
            );
        } else {
            assign_composite_windows(&mut q, (75.0, 350.0), (1.0, 75.0));
        }
        out.push((
            spec.node_count(),
            QueryWorkload {
                query: q,
                ground_truth: None,
                constraint: CLIQUE_CONSTRAINT.to_string(),
            },
        ));
    }
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Figure 14: composite two-level queries, time to first match.
/// `irregular` selects Fig 14(b) (random windows from 25–175 ms).
pub fn fig14(irregular: bool, cfg: &Config) {
    let exp = if irregular { "fig14b" } else { "fig14a" };
    let host = cfg.planetlab();
    print_header(&format!(
        "{exp}: composite queries ({}) on PlanetLab-like host N={}",
        if irregular {
            "random 25-175ms windows"
        } else {
            "75-350ms root / 1-75ms leaf"
        },
        host.node_count()
    ));
    for (n, wl) in composite_workloads(cfg, irregular) {
        for (alg, label) in algo_series() {
            let samples: Vec<Sample> = (0..cfg.reps)
                .map(|r| {
                    run_once(
                        &host,
                        &wl.query,
                        &wl.constraint,
                        alg,
                        SearchMode::First,
                        cfg.timeout,
                        cfg.seed + r as u64,
                    )
                })
                .collect();
            emit(exp, label, n, &samples);
        }
    }
}

/// Figure 15: probability distribution of result types (§VII-E) across the
/// workload classes, under a fixed (short) timeout.
pub fn fig15(cfg: &Config) {
    outln!(
        "# fig15: outcome distribution under timeout {:?}",
        cfg.timeout
    );
    outln!("experiment,series,class,p_all,p_some,p_none,p_inconclusive,n");
    let host = cfg.planetlab();

    // Workload classes, each a vector of (query, constraint).
    let mut classes: Vec<(&str, Vec<QueryWorkload>)> = Vec::new();

    let n_mid = (host.node_count() as f64 * 0.3) as usize;
    classes.push(("subgraph", planted_queries(&host, n_mid.max(4), cfg)));
    let infeasible: Vec<QueryWorkload> = planted_queries(&host, n_mid.max(4), cfg)
        .iter()
        .enumerate()
        .map(|(i, wl)| make_infeasible(wl, 0.15, &mut topogen::rng(cfg.seed + 7 + i as u64)))
        .collect();
    classes.push(("subgraph-infeasible", infeasible));
    let cliques: Vec<QueryWorkload> = (3..3 + cfg.reps as usize)
        .map(|k| clique_query(k.min(cfg.scaled(12, 5)), 10.0, 100.0))
        .collect();
    classes.push(("clique", cliques));
    classes.push((
        "composite-regular",
        composite_workloads(cfg, false)
            .into_iter()
            .map(|(_, w)| w)
            .collect(),
    ));
    classes.push((
        "composite-irregular",
        composite_workloads(cfg, true)
            .into_iter()
            .map(|(_, w)| w)
            .collect(),
    ));

    for (class, workloads) in &classes {
        for (alg, label) in algo_series() {
            let mut counts = [0usize; 4]; // all, some, none, inconclusive
            for (i, wl) in workloads.iter().enumerate() {
                let engine = Engine::new(&host);
                let mode = if alg == Algorithm::Rwb {
                    SearchMode::First
                } else {
                    SearchMode::All
                };
                let options = Options {
                    algorithm: alg,
                    mode,
                    timeout: Some(cfg.timeout),
                    seed: cfg.seed + i as u64,
                    ..Options::default()
                };
                match engine.embed(&wl.query, &wl.constraint, &options) {
                    Ok(r) => {
                        let idx = match r.outcome {
                            Outcome::Complete(ref m) if !m.is_empty() => 0,
                            Outcome::Partial(_) => 1,
                            Outcome::Complete(_) => 2,
                            Outcome::Inconclusive => 3,
                        };
                        counts[idx] += 1;
                    }
                    Err(e) => eprintln!("# error: {e}"),
                }
            }
            let n = workloads.len().max(1) as f64;
            outln!(
                "fig15,{label},{class},{:.2},{:.2},{:.2},{:.2},{}",
                counts[0] as f64 / n,
                counts[1] as f64 / n,
                counts[2] as f64 / n,
                counts[3] as f64 / n,
                workloads.len()
            );
        }
    }
}

/// §VII-F: NETEMBED (ECF, LNS) versus the re-implemented prior techniques
/// (simulated annealing, genetic, stress-greedy) on identical instances.
pub fn sec7f(cfg: &Config) {
    outln!("# sec7f: baselines comparison (small feasible instances)");
    outln!("experiment,series,x,mean_ms,ci95_ms,n,success_rate,notes");
    let host = cfg.planetlab();
    for n in [6usize, 10, 14, 18] {
        let queries = planted_queries(&host, n, cfg);
        // NETEMBED algorithms (first match).
        for (alg, label) in [(Algorithm::Ecf, "ECF"), (Algorithm::Lns, "LNS")] {
            let samples: Vec<Sample> = queries
                .iter()
                .map(|wl| {
                    run_once(
                        &host,
                        &wl.query,
                        &wl.constraint,
                        alg,
                        SearchMode::First,
                        cfg.timeout,
                        cfg.seed,
                    )
                })
                .collect();
            let success = samples.iter().filter(|s| s.solutions > 0).count() as f64
                / samples.len().max(1) as f64;
            let (mean, ci) = crate::common::mean_ci(&samples);
            outln!(
                "sec7f,{label},{n},{mean:.2},{ci:.2},{},{success:.2},complete",
                samples.len()
            );
        }
        // Baselines.
        let run_baseline = |label: &str, f: &dyn Fn(&Problem<'_>) -> (f64, bool)| {
            let mut times = Vec::new();
            let mut hits = 0usize;
            for wl in &queries {
                let p = Problem::new(&wl.query, &host, &wl.constraint).expect("valid constraint");
                let (ms, ok) = f(&p);
                times.push(Sample {
                    ms,
                    timed_out: false,
                    solutions: ok as u64,
                });
                hits += ok as usize;
            }
            let (mean, ci) = crate::common::mean_ci(&times);
            outln!(
                "sec7f,{label},{n},{mean:.2},{ci:.2},{},{:.2},heuristic",
                times.len(),
                hits as f64 / queries.len().max(1) as f64
            );
        };
        run_baseline("SA(assign)", &|p| {
            let r = baselines::anneal(p, &baselines::AnnealParams::default());
            (r.elapsed.as_secs_f64() * 1e3, r.feasible)
        });
        run_baseline("GA(wanassign)", &|p| {
            let r = baselines::genetic(p, &baselines::GeneticParams::default());
            (r.elapsed.as_secs_f64() * 1e3, r.feasible)
        });
        run_baseline("Stress(Zhu-Ammar)", &|p| {
            let stress = vec![0u32; p.nr()];
            let r = baselines::stress_greedy(p, &baselines::StressParams::default(), &stress);
            (r.elapsed.as_secs_f64() * 1e3, r.feasible)
        });
    }
}
