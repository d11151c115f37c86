//! `netembed` — the command-line face of the embedding service.
//!
//! ```text
//! netembed embed   --host h.graphml --query q.graphml --constraint EXPR [opts]
//! netembed gen     planetlab|brite|clique|ring|star --out h.graphml [opts]
//! netembed inspect net.graphml
//! ```
//!
//! `embed` reads both networks from GraphML (§VI-A), runs the selected
//! algorithm (§V) through the mapping service's prepared-query path and
//! prints each feasible mapping as `query=host` pairs. `--repeat N` runs
//! the same prepared request N times — the service session keeps the
//! compiled problem, the epoch-keyed filter cache and the persistent
//! worker pool warm, so runs after the first skip the filter build and
//! thread spawns (the per-run stats lines show it).
//! `--planner --clients N` instead drives the request through the
//! cross-request planner from N concurrent client threads: equivalent
//! in-flight requests coalesce into one group (one filter build, one
//! warm scratch for the burst), and the stats lines show the coalescing
//! counters plus the service's pool telemetry. `--oversub K` shrinks
//! the planner's admit queue to `clients / K` so the burst arrives K×
//! oversubscribed — the overflow is shed per `--shed` (`reject` →
//! deterministic `Overloaded` refusals, `degrade` → fast timed-out
//! inconclusive responses), `--priority` sets the burst's admission
//! priority, and the summary lines add the shed counters and the
//! queue-wait/dispatch-latency histograms. `--shards N` pins the
//! planner's dispatch-shard count (default: one per detected core, up
//! to 8) and the summary prints each shard's queue-depth gauge and
//! shed breakdown.
//! `--feed` runs the registry-feed demo instead: a scripted flaky
//! delta stream (a dropped delta, a duplicate, a reordered pair)
//! drives the host model through the feed driver while the query is
//! served between pumps — the state transitions (live → catching-up →
//! resyncing → live), the per-answer staleness verdicts (fresh,
//! stale-marked within the lag budget, `StaleModel` shed past it) and
//! the final delivery ledger are printed as the faults play out.
//! Exit codes: 0 mappings found, 1 definitively infeasible, 2 usage or
//! input error, 3 inconclusive (timeout with nothing found).

use netembed::{Algorithm, Options, Outcome, SearchMode};
use netgraph::Network;
use service::{
    AdmissionPolicy, NetEmbedService, Priority, QueryRequest, QueryResponse, ServiceConfig,
    ServiceError, ShedMode,
};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
netembed — NETEMBED network embedding service CLI

USAGE:
  netembed embed --host FILE --query FILE --constraint EXPR
                 [--algorithm ecf|rwb|lns|par] [--threads N]
                 [--mode all|first|N] [--timeout-ms N] [--seed N]
                 [--repeat N] [--planner] [--clients N] [--quiet]
                 [--oversub K] [--priority low|normal|high]
                 [--shed reject|degrade] [--shards N] [--feed]
                 [--hierarchy] [--levels N]
  netembed gen   planetlab|brite|waxman|clique|ring|star|fattree|powerlaw
                 [--nodes N] [--seed N] --out FILE
  netembed inspect FILE

EXIT CODES (embed): 0 found, 1 infeasible, 2 error, 3 inconclusive
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("embed") => cmd_embed(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load_network(path: &str) -> Result<Network, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    graphml::from_str(&doc).map_err(|e| format!("{path}: {e}"))
}

fn cmd_embed(args: &[String]) -> ExitCode {
    let (Some(host_path), Some(query_path), Some(constraint)) = (
        flag_value(args, "--host"),
        flag_value(args, "--query"),
        flag_value(args, "--constraint"),
    ) else {
        eprintln!("embed requires --host, --query and --constraint\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let host = match load_network(&host_path) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let query = match load_network(&query_path) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let threads: usize = flag_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let algorithm = match flag_value(args, "--algorithm").as_deref() {
        None | Some("ecf") => Algorithm::Ecf,
        Some("rwb") => Algorithm::Rwb,
        Some("lns") => Algorithm::Lns,
        Some("par") => Algorithm::ParallelEcf { threads },
        Some(other) => {
            eprintln!("unknown algorithm `{other}` (ecf|rwb|lns|par)");
            return ExitCode::from(2);
        }
    };
    let mode = match flag_value(args, "--mode").as_deref() {
        None | Some("all") => SearchMode::All,
        Some("first") => SearchMode::First,
        Some(n) => match n.parse::<usize>() {
            Ok(k) if k >= 1 => SearchMode::UpTo(k),
            _ => {
                eprintln!("bad --mode `{n}` (all|first|N)");
                return ExitCode::from(2);
            }
        },
    };
    let timeout = flag_value(args, "--timeout-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let seed = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let repeat: usize = flag_value(args, "--repeat")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    let quiet = has_flag(args, "--quiet");
    let clients: usize = flag_value(args, "--clients")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4);
    // `--oversub K` bounds the planner's admit queue at `clients / K`:
    // a burst arrives K× oversubscribed and the overflow is shed per
    // `--shed` (reject → Overloaded errors, degrade → timed-out
    // Inconclusive responses).
    let oversub: Option<usize> = flag_value(args, "--oversub")
        .and_then(|v| v.parse().ok())
        .filter(|&k| k >= 1);
    let priority = match flag_value(args, "--priority").as_deref() {
        None | Some("normal") => Priority::Normal,
        Some("low") => Priority::Low,
        Some("high") => Priority::High,
        Some(other) => {
            eprintln!("error: unknown --priority `{other}` (low|normal|high)");
            return ExitCode::from(2);
        }
    };
    let shed = match flag_value(args, "--shed").as_deref() {
        None | Some("reject") => ShedMode::Reject,
        Some("degrade") => ShedMode::DegradeInconclusive,
        Some(other) => {
            eprintln!("error: unknown --shed `{other}` (reject|degrade)");
            return ExitCode::from(2);
        }
    };
    // `--shards N` pins the planner's dispatch-shard count; without it
    // the service sizes the shard array from the detected parallelism
    // (or `NETEMBED_PLANNER_SHARDS`).
    let shards: Option<usize> = match flag_value(args, "--shards") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("error: bad --shards `{v}` (need an integer >= 1)");
                return ExitCode::from(2);
            }
        },
    };

    // One service session for the whole invocation: the prepared query
    // compiles the constraint once and keeps filter + pool warm across
    // --repeat runs.
    let mut admission = AdmissionPolicy::default().shed(shed);
    if let Some(k) = oversub {
        admission = admission.max_queue_depth((clients / k).max(1));
    }
    let mut config = ServiceConfig::default().admission(admission);
    if let Some(n) = shards {
        config = config.planner_shards(n);
    }
    // `--hierarchy` routes the filter-based algorithms through the
    // multilevel substrate hierarchy: coarsen the host, prune whole
    // super-node subtrees with sound abstract verdicts, and expand the
    // exact filter only inside the survivors. `--levels N` caps the
    // coarsening depth (default 16).
    let hierarchy = if has_flag(args, "--hierarchy") {
        let mut spec = netembed::HierarchySpec::default();
        if let Some(v) = flag_value(args, "--levels") {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => spec.max_levels = n,
                _ => {
                    eprintln!("error: bad --levels `{v}` (need an integer >= 1)");
                    return ExitCode::from(2);
                }
            }
        }
        Some(spec)
    } else {
        None
    };

    let svc = NetEmbedService::with_config(config);
    svc.registry().register("host", host.clone());
    let options = Options {
        algorithm,
        mode,
        timeout,
        seed,
        hierarchy,
        ..Options::default()
    };

    if let Some(spec) = hierarchy {
        // Warm the per-(host, epoch) hierarchy cache up front and show
        // the coarsening ladder; the run below hits the cached levels.
        match svc.warm_hierarchy("host", spec) {
            Ok(hier) => {
                if !quiet {
                    let sizes = hier.level_sizes();
                    eprintln!(
                        "# hierarchy: {} levels over {} host nodes (fine -> coarse: {})",
                        sizes.len(),
                        host.node_count(),
                        sizes
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join(" -> "),
                    );
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if has_flag(args, "--feed") {
        return feed_demo(&host, &query, &constraint, &options, quiet);
    }
    if has_flag(args, "--planner") {
        return planner_demo(
            &svc,
            &host,
            &query,
            &constraint,
            &options,
            clients,
            priority,
            repeat,
            quiet,
        );
    }

    let mut prepared = match svc.prepare("host", query.clone(), &constraint) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut result = None;
    for run in 0..repeat {
        match prepared.run(&options) {
            Ok(resp) => {
                if !quiet && repeat > 1 {
                    eprintln!(
                        "# run {}/{repeat}: elapsed: {:?}, filter cache hit: {}, warm pool threads: {}",
                        run + 1,
                        resp.stats.elapsed,
                        resp.stats.filter_cache_hits > 0,
                        resp.stats.pool_reuse,
                    );
                }
                result = Some(resp);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let result = result.expect("repeat >= 1");
    if hierarchy.is_some() && !quiet {
        let s = &result.stats;
        let pct = if s.hier_full_cells > 0 {
            100.0 * s.hier_expanded_cells as f64 / s.hier_full_cells as f64
        } else {
            100.0
        };
        eprintln!(
            "# hierarchy: pruned {} super-node subtrees, expanded {}/{} filter cells ({pct:.2}%)",
            s.hier_pruned, s.hier_expanded_cells, s.hier_full_cells,
        );
    }
    report_embed(&result, &query, &host, quiet)
}

/// Drive the host model through the registry-feed driver from a
/// scripted flaky delta stream, serving the query between pumps: a
/// live demonstration of the feed's fault handling (duplicate dropped
/// idempotently, reordered pair parked and drained, a lost delta
/// recovered via snapshot resync) and the staleness policy (fresh /
/// stale-marked / shed verdicts as the lag crosses the budget), ending
/// with the delivery ledger and the converged embedding.
fn feed_demo(
    host: &Network,
    query: &Network,
    constraint: &str,
    options: &Options,
    quiet: bool,
) -> ExitCode {
    use service::{
        DeltaMutation, DirtySet, FeedConfig, FeedSnapshot, FeedState, RegistryDelta, RegistryFeed,
        ShedReason, StalenessPolicy,
    };
    const DELTAS: u64 = 12;
    const MAX_LAG: u64 = 2;

    // Serve stale answers while the feed is at most 2 deltas behind;
    // shed deterministically past that.
    let svc = NetEmbedService::with_config(
        ServiceConfig::default().staleness(StalenessPolicy::ServeStale { max_lag: MAX_LAG }),
    );
    svc.registry().register("host", host.clone());
    let request = QueryRequest {
        host: "host".into(),
        query: query.clone(),
        constraint: constraint.to_string(),
        options: options.clone(),
    };

    // The upstream: 12 load ticks on the first host node, and the
    // truth after each prefix (what a snapshot at that seq contains).
    let deltas: Vec<RegistryDelta> = (0..DELTAS)
        .map(|i| RegistryDelta {
            host: "host".into(),
            base_seq: i,
            next_seq: i + 1,
            mutation: DeltaMutation::SetNodeAttr {
                node: 0,
                attr: "demoLoad".into(),
                value: netgraph::AttrValue::Num(i as f64),
            },
            dirty: DirtySet::from_ids([0]),
        })
        .collect();
    let mut states = vec![host.clone()];
    for i in 0..DELTAS {
        let mut next = states.last().expect("seeded").clone();
        next.set_node_attr(netgraph::NodeId(0), "demoLoad", i as f64);
        states.push(next);
    }

    // The flaky wire: delta 2 arrives twice, 6 and 7 swap, 4 is lost.
    let mut script: Vec<RegistryDelta> = Vec::new();
    let mut i = 0usize;
    while i < deltas.len() {
        match i {
            2 => {
                script.push(deltas[2].clone());
                script.push(deltas[2].clone());
            }
            4 => {}
            6 => {
                script.push(deltas[7].clone());
                script.push(deltas[6].clone());
                i += 1;
            }
            _ => script.push(deltas[i].clone()),
        }
        i += 1;
    }

    // Snapshot source: serves the upstream truth at the highest
    // sequence the wire has carried so far.
    let hwm = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let snapshot_hwm = std::rc::Rc::clone(&hwm);
    let snapshots = move |states: &[Network]| FeedSnapshot {
        seq: snapshot_hwm.get(),
        models: vec![("host".into(), states[snapshot_hwm.get() as usize].clone())],
    };
    let snapshot_states = states.clone();
    let mut feed = RegistryFeed::new(
        std::collections::VecDeque::new(),
        move || Some(snapshots(&snapshot_states)),
        FeedConfig {
            gap_patience: 1,
            ..FeedConfig::default()
        },
    );

    let mut state = FeedState::Live;
    if !quiet {
        eprintln!("# feed: live at cursor 0, staleness policy: serve-stale (max lag {MAX_LAG})");
    }
    let mut script = script.into_iter().peekable();
    for _pump in 0..50 {
        for _ in 0..2 {
            if let Some(delta) = script.next() {
                hwm.set(hwm.get().max(delta.next_seq));
                feed.stream().push_back(delta);
            }
        }
        let next = feed.pump(&svc);
        if next != state && !quiet {
            eprintln!(
                "# feed: {state} → {next} (cursor {}, lag {})",
                feed.cursor(),
                svc.feed_status().lag(),
            );
        }
        state = next;
        if !quiet {
            match svc.submit(&request) {
                Ok(resp) => match resp.staleness {
                    None => eprintln!("# serve: fresh"),
                    Some(marker) => eprintln!("# serve: stale (lag {})", marker.lag),
                },
                Err(ServiceError::Overloaded(ShedReason::StaleModel)) => {
                    eprintln!("# serve: shed (model feed degraded past max lag)");
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        if script.peek().is_none() && state == FeedState::Live && feed.cursor() == DELTAS {
            break;
        }
    }
    if state != FeedState::Live || feed.cursor() != DELTAS {
        eprintln!("error: feed demo failed to converge (state {state})");
        return ExitCode::from(2);
    }

    if !quiet {
        let t = svc.telemetry().feed;
        eprintln!(
            "# feed ledger: received {} = applied {} + duplicates {} + discarded {} + rejected {} + parked {} (balanced: {})",
            t.received,
            t.applied,
            t.duplicates,
            t.discarded,
            t.rejected,
            t.parked,
            t.balanced(),
        );
        eprintln!(
            "# feed: reordered: {}, gap resyncs: {}, resync attempts: {}, last applied seq: {}, lag: {}",
            t.reordered, t.gap_resyncs, t.resync_attempts, t.last_applied_seq, t.lag,
        );
    }
    match svc.submit(&request) {
        Ok(resp) => report_embed(&resp, query, host, quiet),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Drive the request through the cross-request planner from `clients`
/// concurrent threads, `repeat` bursts in a row: a live demonstration
/// of group coalescing (one filter build per burst key, one warm
/// scratch) with the counters and pool telemetry printed per burst.
#[allow(clippy::too_many_arguments)]
fn planner_demo(
    svc: &NetEmbedService,
    host: &Network,
    query: &Network,
    constraint: &str,
    options: &Options,
    clients: usize,
    priority: Priority,
    repeat: usize,
    quiet: bool,
) -> ExitCode {
    let planner = svc.planner();
    let request = QueryRequest {
        host: "host".into(),
        query: query.clone(),
        constraint: constraint.to_string(),
        options: options.clone(),
    };
    let mut last: Option<QueryResponse> = None;
    for round in 0..repeat {
        let responses: Vec<Result<QueryResponse, ServiceError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| s.spawn(|| planner.run_with(&request, priority)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut round_hits = 0u64;
        let mut round_coalesced = 0u64;
        let mut round_builds = 0u64;
        let mut round_shed = 0u64;
        // LNS runs no filter stage at all (its constraint evaluations
        // happen in-search), so its evals never indicate a build.
        let builds_filters = !matches!(options.algorithm, Algorithm::Lns);
        for resp in responses {
            match resp {
                Ok(resp) => {
                    round_hits += resp.stats.filter_cache_hits;
                    round_coalesced += resp.stats.coalesced_requests;
                    round_builds += u64::from(builds_filters && resp.stats.constraint_evals > 0);
                    last = Some(resp);
                }
                // An admission refusal is the demo working as
                // configured (--oversub), not a CLI failure.
                Err(ServiceError::Overloaded(_)) => round_shed += 1,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        if !quiet {
            eprintln!(
                "# burst {}/{repeat}: {clients} clients → builds: {round_builds}, cache hits: {round_hits}, coalesced: {round_coalesced}, shed: {round_shed}",
                round + 1,
            );
        }
    }
    if !quiet {
        let telemetry = svc.telemetry();
        eprintln!(
            "# planner: shards: {}, peak concurrent dispatchers: {}, groups dispatched: {}, coalesced total: {}, cache hits: {} misses: {} dedup waits: {} patches: {} patch rebuilds: {} promotions: {}",
            planner.shard_count(),
            planner.peak_concurrent_dispatchers(),
            planner.groups_dispatched(),
            planner.coalesced_total(),
            svc.cache().hits(),
            svc.cache().misses(),
            svc.cache().dedup_waits(),
            svc.cache().patches(),
            svc.cache().patch_rebuilds(),
            svc.cache().promotions(),
        );
        eprintln!(
            "# pool telemetry: parked scratches: {}, threads: {}, spawned total: {}",
            telemetry.parked_scratches, telemetry.pool_threads, telemetry.spawned_total,
        );
        eprintln!(
            "# admission: submitted: {}, accepted: {}, shed: {} (queue: {}, group: {}, deadline: {}, dedup: {}, stale: {})",
            telemetry.submitted,
            telemetry.accepted,
            telemetry.shed.total(),
            telemetry.shed.queue_full,
            telemetry.shed.group_full,
            telemetry.shed.deadline_hopeless,
            telemetry.shed.dedup_waiters_full,
            telemetry.shed.stale_model,
        );
        eprintln!(
            "# queue wait: {} | dispatch: {}",
            telemetry.queue_wait.summary(),
            telemetry.dispatch_latency.summary(),
        );
        for (idx, shard) in telemetry.shards.iter().enumerate() {
            eprintln!(
                "# shard {idx}: queue depth: {}, submitted: {}, accepted: {}, shed: {} (queue: {}, group: {}, deadline: {}, dedup: {}, stale: {})",
                shard.queue_depth,
                shard.submitted,
                shard.accepted,
                shard.shed.total(),
                shard.shed.queue_full,
                shard.shed.group_full,
                shard.shed.deadline_hopeless,
                shard.shed.dedup_waiters_full,
                shard.shed.stale_model,
            );
        }
    }
    let result = last.expect("clients >= 1 and repeat >= 1");
    report_embed(&result, query, host, quiet)
}

/// Shared tail of the embed paths: summary line, mapping rows, exit
/// code.
fn report_embed(result: &QueryResponse, query: &Network, host: &Network, quiet: bool) -> ExitCode {
    if !quiet {
        eprintln!(
            "# {} mapping(s), outcome: {}, elapsed: {:?}, visited: {}, evals: {}",
            result.mappings().len(),
            result.outcome.label(),
            result.stats.elapsed,
            result.stats.nodes_visited,
            result.stats.constraint_evals,
        );
    }
    let code = match &result.outcome {
        _ if !result.mappings().is_empty() => ExitCode::SUCCESS,
        Outcome::Complete(_) => ExitCode::from(1),
        _ => ExitCode::from(3),
    };
    let mut out = std::io::stdout().lock();
    for m in result.mappings() {
        let row: Vec<String> = m
            .iter()
            .map(|(q, r)| format!("{}={}", query.node_name(q), host.node_name(r)))
            .collect();
        match writeln!(out, "{}", row.join(" ")) {
            Ok(()) => {}
            // The reader went away (`… | head -1`): the rest is unwanted.
            Err(e) if e.kind() == ErrorKind::BrokenPipe => break,
            Err(e) => {
                eprintln!("cannot write mappings: {e}");
                return ExitCode::from(2);
            }
        }
    }
    code
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let Some(kind) = args.first() else {
        eprintln!("gen requires a generator name\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("gen requires --out FILE");
        return ExitCode::from(2);
    };
    let nodes: usize = flag_value(args, "--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut rng = topogen::rng(seed);

    let net = match kind.as_str() {
        "planetlab" => topogen::planetlab_like(
            &topogen::PlanetlabParams {
                sites: nodes,
                ..topogen::PlanetlabParams::default()
            },
            &mut rng,
        ),
        "brite" => topogen::brite_like(&topogen::BriteParams::paper_default(nodes), &mut rng),
        "waxman" => topogen::brite_like(
            &topogen::BriteParams {
                mode: topogen::BriteMode::Waxman,
                ..topogen::BriteParams::paper_default(nodes)
            },
            &mut rng,
        ),
        "clique" => topogen::regular::clique(nodes),
        "ring" => topogen::regular::ring(nodes),
        "star" => topogen::regular::star(nodes),
        // Datacenter-scale substrates for the hierarchy: `--nodes` is a
        // budget, met by scaling hosts-per-edge-switch (fattree) or
        // taken exactly (powerlaw).
        "fattree" => {
            let k = 4usize;
            let switches = topogen::FatTreeParams::classic(k).node_count() - k * (k / 2) * (k / 2); // switches only
            let hosts_per_edge = nodes.saturating_sub(switches).div_ceil(k * (k / 2)).max(1);
            topogen::fat_tree(&topogen::FatTreeParams { k, hosts_per_edge }, &mut rng)
        }
        "powerlaw" => topogen::power_law(&topogen::PowerLawParams::paper_default(nodes), &mut rng),
        other => {
            eprintln!("unknown generator `{other}`");
            return ExitCode::from(2);
        }
    };
    let doc = graphml::to_string(&net);
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "# wrote {} ({} nodes, {} edges)",
        out,
        net.node_count(),
        net.edge_count()
    );
    ExitCode::SUCCESS
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("inspect requires a file");
        return ExitCode::from(2);
    };
    let net = match load_network(path) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("name:        {}", net.name());
    println!(
        "direction:   {}",
        if net.is_undirected() {
            "undirected"
        } else {
            "directed"
        }
    );
    println!("nodes:       {}", net.node_count());
    println!("edges:       {}", net.edge_count());
    println!("density:     {:.4}", netgraph::metrics::density(&net));
    println!("mean degree: {:.2}", netgraph::metrics::mean_degree(&net));
    println!("max degree:  {}", netgraph::metrics::max_degree(&net));
    println!("connected:   {}", netgraph::algo::is_connected(&net));
    let mut attrs: Vec<&str> = net.schema().iter().map(|(_, n)| n).collect();
    attrs.sort();
    println!("attributes:  {}", attrs.join(", "));
    ExitCode::SUCCESS
}
