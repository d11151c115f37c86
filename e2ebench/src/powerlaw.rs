//! `powerlaw-hier`: hierarchical runs on a 10⁵-node power-law host with
//! a planted 64-node `region = "hot"` cluster. Set-up coarsens the host
//! once (`warm_hierarchy`); each request then refines top-down and
//! builds the exact filter only inside the surviving subtrees. The
//! filter cache is bypassed by design, and the constraint is parsed on
//! every submit.

use crate::measure::{self, ms, Calibrator, Deck, Slice};
use crate::trace::{Counters, Layers, Path, Tracer};
use crate::{repeated_setup, Class, Config, EndToEnd, RunResult, PLANNER_SHARDS};
use netembed::{Engine, HierarchySpec, Options, Problem, SearchMode};
use netgraph::{AttrValue, Network, NodeId};
use rand::Rng;
use service::{NetEmbedService, QueryRequest, QueryResponse, ServiceConfig};
use std::time::{Duration, Instant};
use topogen::PowerLawParams;

const HOST: &str = "powerlaw";
const HOST_SEED: u64 = 42;
const KEYS: usize = 120;
/// Every key is a path of this many nodes. One size keeps the hot keys'
/// latencies in one mode: with 3-, 4- and 5-node paths mixed, each size
/// formed its own mode and the median sat on the step between two.
const PATH_NODES: usize = 4;
/// One key in this many asks for a region no node has; the coarse
/// levels prune it.
const NOWHERE_EVERY: usize = 5;
const BUDGET: Duration = Duration::from_millis(200);
const CONSTRAINT: &str = "rNode.region == vNode.want && rNode.cpu >= vNode.minCpu";
/// One in this many requests is compared with a flat run off the clock.
const CHECK_EVERY: u64 = 64;

fn host(quick: bool) -> Network {
    let n = if quick { 10_000 } else { 100_000 };
    topogen::power_law(
        &PowerLawParams {
            n,
            m: 2,
            hot_nodes: 64,
        },
        &mut topogen::rng(HOST_SEED),
    )
}

struct Key {
    nowhere: bool,
    request: QueryRequest,
}

/// 120 path queries of [`PATH_NODES`] nodes; every fifth wants the
/// "nowhere" region, the rest the hot one. Each query asks one CPU floor
/// of all its nodes; the floors rise with the key's index, stratified
/// over 1–16, and the seed jitters each within its stratum.
fn keys(seed: u64) -> Vec<Key> {
    let mut rng = topogen::rng(seed ^ 0x9013);
    (0..KEYS)
        .map(|i| {
            let nowhere = i % NOWHERE_EVERY == NOWHERE_EVERY - 1;
            let stratum = (i as f64 + rng.random_range(0.0..1.0)) / KEYS as f64;
            let min_cpu = (1.0 + 15.0 * stratum).round();
            let mut q = topogen::line(PATH_NODES);
            for v in 0..PATH_NODES {
                let v = NodeId(v as u32);
                q.set_node_attr(v, "want", if nowhere { "nowhere" } else { "hot" });
                q.set_node_attr(v, "minCpu", min_cpu);
            }
            Key {
                nowhere,
                request: QueryRequest {
                    host: HOST.to_string(),
                    query: q,
                    constraint: CONSTRAINT.to_string(),
                    options: Options {
                        mode: SearchMode::First,
                        timeout: Some(BUDGET),
                        hierarchy: Some(HierarchySpec::default()),
                        ..Options::default()
                    },
                },
            }
        })
        .collect()
}

fn setup(host: Network) -> Result<NetEmbedService, String> {
    let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(PLANNER_SHARDS));
    svc.registry().register(HOST, host);
    svc.warm_hierarchy(HOST, HierarchySpec::default())
        .map_err(|e| format!("warm_hierarchy failed: {e}"))?;
    Ok(svc)
}

/// Hot answers map only hot nodes; "nowhere" keys are proven
/// infeasible.
fn check(host: &Network, k: &Key, r: &QueryResponse) -> Result<(), String> {
    let class = Class::of(&r.outcome);
    if k.nowhere {
        if class != Class::Infeasible {
            return Err(format!(
                "a \"nowhere\" key answered {class:?}, not proven infeasible"
            ));
        }
        return Ok(());
    }
    for m in r.mappings() {
        for (_, h) in m.iter() {
            if host
                .node_attr_by_name(h, "region")
                .and_then(AttrValue::as_str)
                != Some("hot")
            {
                return Err(format!("a hot query mapped onto non-hot node {}", h.0));
            }
        }
    }
    Ok(())
}

/// An answered hierarchical run agrees with a flat run on outcome class.
fn check_flat(host: &Network, k: &Key, r: &QueryResponse) -> Result<(), String> {
    let class = Class::of(&r.outcome);
    if !class.answered() {
        return Ok(());
    }
    let req = &k.request;
    let problem = Problem::new(&req.query, host, &req.constraint).map_err(|e| e.to_string())?;
    let flat = Engine::run(
        &problem,
        &Options {
            hierarchy: None,
            timeout: None,
            ..req.options.clone()
        },
    )
    .map_err(|e| e.to_string())?;
    let flat_class = Class::of(&flat.outcome);
    if flat_class != class {
        return Err(format!(
            "hierarchical run answered {class:?}, the flat run {flat_class:?}"
        ));
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let host = host(cfg.quick);
    let keys = keys(cfg.seed);
    let mut deck = Deck::new(keys.len(), topogen::rng(cfg.seed ^ 0x5EED));
    let (svc, setup_s) = repeated_setup(cfg.setup_repeats(), || host.clone(), setup);
    let svc = svc?;
    let mut cal = Calibrator::default();
    let mut out = RunResult::default();

    let untraced = cfg.untraced_window();
    let mut counters = Counters::default();
    let mut sampled = Vec::new();
    let mut fault = None;
    let slices = measure::closed_loop(untraced, &mut cal, |i| {
        let k = deck.draw();
        let t = Instant::now();
        let r = svc.submit(&keys[k].request);
        let latency = ms(t.elapsed());
        let answered = match r {
            Ok(r) => {
                counters.add(&r, true);
                if let Err(e) = check(&host, &keys[k], &r) {
                    fault.get_or_insert(e);
                }
                let answered = Class::of(&r.outcome).answered();
                if i.is_multiple_of(CHECK_EVERY) {
                    sampled.push((k, r));
                }
                answered
            }
            Err(_) => {
                out.failed += 1;
                false
            }
        };
        (latency, answered)
    });
    if let Some(e) = fault {
        return Err(e);
    }
    for (k, r) in &sampled {
        check_flat(&host, &keys[*k], r)?;
    }
    out.attempted = slices.iter().map(|s| s.attempted).sum();

    if !cfg.trace {
        EndToEnd::closed(setup_s, &slices).metrics(cfg.quick, &cal, &mut out)?;
        return Ok(out);
    }

    let mut layers = Layers::default();
    let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
    counters.record(seconds, &svc.telemetry(), 0, &mut layers);
    layers.set("bench.open_loop_late_frac", 0.0);
    layers.set("service.feed.lag_max", 0.0);
    let untraced_p50 = Slice::merged(&slices).percentile(0.5);
    let mut tracer = Tracer::start(&svc, HOST, cfg.seed, layers);
    let mut fault = None;
    measure::closed_loop(cfg.window - untraced, &mut cal, |_| {
        let k = &keys[deck.draw()];
        let req = &k.request;
        let t = Instant::now();
        let r = tracer.request(
            Path::Submit,
            &req.query,
            &req.constraint,
            &req.options,
            || svc.submit(req),
        );
        out.attempted += 1;
        match &r {
            Ok(r) => {
                if let Err(e) = check(&host, k, r) {
                    fault.get_or_insert(e);
                }
            }
            Err(_) => out.failed += 1,
        }
        (ms(t.elapsed()), r.is_ok())
    });
    if let Some(e) = fault {
        return Err(e);
    }
    tracer
        .finish(untraced_p50, &mut out)
        .into_metrics(&mut out)?;
    Ok(out)
}
