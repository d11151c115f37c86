//! Ablation experiments for the design choices in the experiment index
//! that `harness list` prints: Lemma-1 ordering, the LNS memo cache (F̄
//! analogue), the parallel ECF fan-out, and the two LNS heuristics.

use crate::common::{mean_ci, outln, run_once, Config, Sample};
use netembed::lns::LnsConfig;
use netembed::{Algorithm, Engine, NodeOrder, Options, SearchMode};
use topogen::{
    assign_composite_windows, clique_query, composite_query, subgraph_query, CompositeSpec, Level,
    SubgraphParams, CLIQUE_CONSTRAINT,
};

/// `abl-order`: empirical Lemma 1 — ECF all-matches under four node
/// orderings. Ascending should visit the fewest permutation-tree nodes.
pub fn abl_order(cfg: &Config) {
    outln!("# abl-order: ECF node-ordering ablation (Lemma 1)");
    outln!("experiment,series,x,mean_ms,ci95_ms,n,nodes_visited_mean");
    let host = cfg.planetlab();
    let orders: [(&str, NodeOrder); 4] = [
        ("ascending", NodeOrder::AscendingCandidates),
        ("descending", NodeOrder::DescendingCandidates),
        ("input", NodeOrder::InputOrder),
        ("random", NodeOrder::Random(cfg.seed)),
    ];
    // Small scales shrink the host below the larger sizes: skip those.
    for n in [8usize, 16, 24, 32]
        .into_iter()
        .filter(|&n| n <= host.node_count())
    {
        let queries: Vec<_> = (0..cfg.reps)
            .map(|r| {
                subgraph_query(
                    &host,
                    &SubgraphParams {
                        n,
                        edge_keep: 0.3,
                        slack: 0.05,
                    },
                    &mut topogen::rng(cfg.seed + 31 * n as u64 + r as u64),
                )
            })
            .collect();
        for (label, order) in orders {
            let mut samples = Vec::new();
            let mut visited = Vec::new();
            for wl in &queries {
                let engine = Engine::new(&host);
                let options = Options {
                    algorithm: Algorithm::Ecf,
                    mode: SearchMode::All,
                    timeout: Some(cfg.timeout),
                    order,
                    ..Options::default()
                };
                match engine.embed(&wl.query, &wl.constraint, &options) {
                    Ok(r) => {
                        samples.push(Sample {
                            ms: r.stats.elapsed.as_secs_f64() * 1e3,
                            timed_out: r.stats.timed_out,
                            solutions: r.stats.solutions,
                        });
                        visited.push(r.stats.nodes_visited as f64);
                    }
                    Err(e) => eprintln!("# error: {e}"),
                }
            }
            let (mean, ci) = mean_ci(&samples);
            let visited_mean = visited.iter().sum::<f64>() / visited.len().max(1) as f64;
            outln!(
                "abl-order,{label},{n},{mean:.2},{ci:.2},{},{visited_mean:.0}",
                samples.len()
            );
        }
    }
}

/// `abl-negcache`: LNS with and without the constraint-evaluation memo
/// cache (the lazily-built analogue of the paper's F/F̄ matrices).
pub fn abl_negcache(cfg: &Config) {
    outln!("# abl-negcache: LNS memo cache on/off (clique queries)");
    outln!("experiment,series,x,mean_ms,ci95_ms,n,evals_mean");
    let host = cfg.planetlab();
    let max_k = cfg.scaled(10, 5);
    for k in 3..=max_k {
        let wl = clique_query(k, 10.0, 100.0);
        for (label, memo) in [("memo-on", true), ("memo-off", false)] {
            let mut samples = Vec::new();
            let mut evals = Vec::new();
            for _r in 0..cfg.reps {
                let engine = Engine::new(&host);
                let options = Options {
                    algorithm: Algorithm::Lns,
                    mode: SearchMode::First,
                    timeout: Some(cfg.timeout),
                    lns: LnsConfig {
                        memo_cache: memo,
                        ..LnsConfig::default()
                    },
                    ..Options::default()
                };
                match engine.embed(&wl.query, &wl.constraint, &options) {
                    Ok(r) => {
                        samples.push(Sample {
                            ms: r.stats.elapsed.as_secs_f64() * 1e3,
                            timed_out: r.stats.timed_out,
                            solutions: r.stats.solutions,
                        });
                        evals.push(r.stats.constraint_evals as f64);
                    }
                    Err(e) => eprintln!("# error: {e}"),
                }
            }
            let (mean, ci) = mean_ci(&samples);
            let evals_mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
            outln!(
                "abl-negcache,{label},{k},{mean:.2},{ci:.2},{},{evals_mean:.0}",
                samples.len()
            );
        }
    }
}

/// `abl-par`: parallel ECF speedup versus thread count.
pub fn abl_par(cfg: &Config) {
    outln!("# abl-par: parallel ECF scaling (all-matches, subgraph query)");
    outln!("experiment,series,x,mean_ms,ci95_ms,n,speedup_vs_1");
    let host = cfg.planetlab();
    let n = (host.node_count() as f64 * 0.25) as usize;
    let queries: Vec<_> = (0..cfg.reps)
        .map(|r| {
            subgraph_query(
                &host,
                &SubgraphParams {
                    n: n.max(6),
                    edge_keep: 0.3,
                    slack: 0.05,
                },
                &mut topogen::rng(cfg.seed + 77 + r as u64),
            )
        })
        .collect();
    let mut base_ms = None;
    for threads in [1usize, 2, 4, 8] {
        let samples: Vec<Sample> = queries
            .iter()
            .map(|wl| {
                run_once(
                    &host,
                    &wl.query,
                    &wl.constraint,
                    Algorithm::ParallelEcf { threads },
                    SearchMode::All,
                    cfg.timeout,
                    cfg.seed,
                )
            })
            .collect();
        let (mean, ci) = mean_ci(&samples);
        if threads == 1 {
            base_ms = Some(mean);
        }
        let speedup = base_ms.map(|b| b / mean).unwrap_or(1.0);
        outln!(
            "abl-par,threads,{threads},{mean:.2},{ci:.2},{},{speedup:.2}",
            samples.len()
        );
    }
}

/// `abl-lns`: the two LNS heuristics (max-degree seed, most-constrained
/// neighbor) toggled independently on composite queries.
pub fn abl_lns(cfg: &Config) {
    outln!("# abl-lns: LNS heuristic ablation (composite queries, first match)");
    outln!("experiment,series,x,mean_ms,ci95_ms,n,timeouts");
    let host = cfg.planetlab();
    let variants: [(&str, LnsConfig); 4] = [
        ("both-on", LnsConfig::default()),
        (
            "no-max-degree-seed",
            LnsConfig {
                max_degree_seed: false,
                ..LnsConfig::default()
            },
        ),
        (
            "no-most-constrained",
            LnsConfig {
                most_constrained_neighbor: false,
                ..LnsConfig::default()
            },
        ),
        (
            "both-off",
            LnsConfig {
                max_degree_seed: false,
                most_constrained_neighbor: false,
                ..LnsConfig::default()
            },
        ),
    ];
    for groups in [3usize, 4, 5, 6] {
        let spec = CompositeSpec {
            root: Level::Ring,
            groups,
            leaf: Level::Star,
            group_size: 4,
        };
        let mut q = composite_query(&spec);
        assign_composite_windows(&mut q, (75.0, 350.0), (1.0, 75.0));
        for (label, lns) in &variants {
            let samples: Vec<Sample> = (0..cfg.reps)
                .map(|_| {
                    let engine = Engine::new(&host);
                    let options = Options {
                        algorithm: Algorithm::Lns,
                        mode: SearchMode::First,
                        timeout: Some(cfg.timeout),
                        lns: *lns,
                        ..Options::default()
                    };
                    match engine.embed(&q, CLIQUE_CONSTRAINT, &options) {
                        Ok(r) => Sample {
                            ms: r.stats.elapsed.as_secs_f64() * 1e3,
                            timed_out: r.stats.timed_out,
                            solutions: r.stats.solutions,
                        },
                        Err(e) => {
                            eprintln!("# error: {e}");
                            Sample {
                                ms: f64::NAN,
                                timed_out: false,
                                solutions: 0,
                            }
                        }
                    }
                })
                .collect();
            let (mean, ci) = mean_ci(&samples);
            let timeouts = samples.iter().filter(|s| s.timed_out).count();
            outln!(
                "abl-lns,{label},{},{mean:.2},{ci:.2},{},{timeouts}",
                spec.node_count(),
                samples.len()
            );
        }
    }
}
