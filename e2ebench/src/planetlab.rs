//! The two workloads on the paper-scale PlanetLab-like host: 296 sites
//! and ~29k measured links from the calibrated `topogen::planetlab_like`
//! generator, which stands in for the all-pairs ping trace.
//!
//! * `planetlab-open` — independent users, open loop through the
//!   `Planner` with a bounded queue. Every query is new, and each is
//!   asked by a burst of two users at once: the constraint
//!   parse, problem compile, filter build on the miss, queueing,
//!   admission and coalescing do the work; the searches are small.
//! * `planetlab-enum` — one closed-loop client enumerating with ECF on
//!   prebuilt filters: search and mapping verification do the work.
//!
//! Both key pools are stratified: a key's kind and size follow from its
//! index, and the seed draws the rest (which sites a query samples,
//! where its delay windows sit, the order of requests). Every seed thus
//! asks for the same mix of work.
//!
//! The open loop asks only new queries on purpose: with a mix of cache
//! hits (~0.1 ms) and misses (10–40 ms) every latency percentile near
//! the hit share sits on a cliff between the two modes and jumps from
//! run to run. The hit path is measured by `planetlab-enum` (all hits)
//! and `fattree-churn` (hits and repairs).

use crate::measure::{self, ms, Calibrator, Deck, Hist, Slice};
use crate::trace::{self, Counters, Layers, Path, Tracer};
use crate::{repeated_setup, Class, Config, EndToEnd, RunResult, PLANNER_SHARDS};
use netembed::{Algorithm, Engine, Mapping, Options, Problem, SearchMode};
use netgraph::Network;
use rand::rngs::StdRng;
use rand::Rng;
use service::{
    AdmissionPolicy, NetEmbedService, Planner, QueryRequest, QueryResponse, ServiceConfig,
    ServiceError, ShedMode,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use topogen::{PlanetlabParams, SubgraphParams, CLIQUE_CONSTRAINT};

const HOST: &str = "planetlab";
/// The host is fixed: it is the measured network, not an input the seed
/// varies.
const HOST_SEED: u64 = 0x9A7E;

/// `planetlab-open`: traffic and admission. Bursts of [`BURST`]
/// identical requests arrive at a fixed rate. When these rates were set,
/// the service answered about 50 bursts/s on a 2-core box: the steady
/// rate is about a sixth of that, and the overload rate about four times
/// it, so that a faster service still meets more work than it can do.
const BURST: usize = 2;
const STEADY_BURSTS: f64 = 8.0;
const OVERLOAD_BURSTS: f64 = 200.0;
const OPEN_BUDGET: Duration = Duration::from_millis(500);
/// Share of the window the steady phase takes; the overload phase takes
/// the rest.
const STEADY_SHARE: f64 = 0.7;
const QUEUE_DEPTH: usize = 16;
/// Queries run once at set-up, before the measured stream.
const OPEN_WARMUP: usize = 5;
/// Fresh queries for a traced run's closed loops after its open loop
/// (reused in turn should the loops outrun them).
const OPEN_TRACED: usize = 1000;

/// `planetlab-enum`: one key per filter-cache slot, so every request in
/// the window is a hit.
const ENUM_KEYS: usize = service::cache::DEFAULT_CAPACITY;
/// Rings of 6, 7 and 8 nodes.
const ENUM_RING_SIZES: usize = 3;
const ENUM_UP_TO: usize = 256;
const ENUM_BUDGET: Duration = Duration::from_millis(250);

/// One in this many requests is re-run off the clock by the oracle.
const OPEN_CHECK_EVERY: u64 = 64;
const ENUM_CHECK_EVERY: u64 = 32;
/// At most this many enumeration responses wait for the oracle, so the
/// kept mappings do not grow `peak_rss_mb` with the request rate.
const ENUM_CHECKED: usize = 512;

fn host(quick: bool) -> Network {
    let params = if quick {
        PlanetlabParams {
            sites: 60,
            measured_prob: 0.66,
            clusters: 4,
        }
    } else {
        PlanetlabParams::default()
    };
    topogen::planetlab_like(&params, &mut topogen::rng(HOST_SEED))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Sampled from the host: feasible by construction.
    Planted,
    /// A planted query with every delay window poisoned.
    Infeasible,
    /// Ring, clique or band ring with delay windows: no promise either way.
    Regular,
}

struct Key {
    kind: Kind,
    request: QueryRequest,
}

fn key(kind: Kind, query: Network, constraint: &str, options: Options) -> Key {
    Key {
        kind,
        request: QueryRequest {
            host: HOST.to_string(),
            query,
            constraint: constraint.to_string(),
            options,
        },
    }
}

/// A spanning tree of `n` sampled sites with windows around their
/// links' delays. Trees keep a query's filter-build cost a function of
/// its size alone (`n − 1` links), where thinned induced subgraphs vary
/// it from key to key.
fn planted(host: &Network, n: usize, rng: &mut StdRng) -> topogen::QueryWorkload {
    topogen::subgraph_query(
        host,
        &SubgraphParams {
            n,
            edge_keep: 0.0,
            slack: 0.02,
        },
        rng,
    )
}

/// `count` distinct queries. Three in five are planted trees (first
/// match), one in five infeasible twins of planted trees (every window
/// poisoned, proven infeasible), one in five triangles, 4-rings and
/// 4-cliques with random delay windows (up to 16 matches). Sizes cycle:
/// planted trees have 4, 5 or 6 nodes.
fn open_keys(host: &Network, seed: u64, count: usize) -> Vec<Key> {
    let mut rng = topogen::rng(seed ^ 0x0BE1);
    let options = |mode| Options {
        mode,
        timeout: Some(OPEN_BUDGET),
        ..Options::default()
    };
    (0..count)
        .map(|i| {
            let size = (i / 5) % 3;
            match i % 5 {
                0..=2 => {
                    let w = planted(host, 4 + size, &mut rng);
                    key(
                        Kind::Planted,
                        w.query,
                        &w.constraint,
                        options(SearchMode::First),
                    )
                }
                3 => {
                    let w = planted(host, 4 + size, &mut rng);
                    let twin = topogen::make_infeasible(&w, 1.0, &mut rng);
                    key(
                        Kind::Infeasible,
                        twin.query,
                        &twin.constraint,
                        options(SearchMode::All),
                    )
                }
                _ => {
                    let mut q = match size {
                        0 => topogen::ring(3),
                        1 => topogen::ring(4),
                        _ => topogen::clique(4),
                    };
                    topogen::assign_random_windows(&mut q, 1.0, 350.0, 60.0, &mut rng);
                    key(
                        Kind::Regular,
                        q,
                        CLIQUE_CONSTRAINT,
                        options(SearchMode::UpTo(16)),
                    )
                }
            }
        })
        .collect()
}

/// 64 rings of 6, 7 or 8 nodes whose every link asks for the same
/// 80 ms-wide delay band, centred between 90 and 200 ms where links are
/// plentiful: each request enumerates up to 256 mappings, so the
/// search and the verification of every mapping do the work,
/// and no key is a pathological outlier. Each ring size gets centres
/// stratified over the whole range; the seed jitters each centre within
/// its stratum.
fn enum_keys(seed: u64) -> Vec<Key> {
    let mut rng = topogen::rng(seed ^ 0xE7E7);
    let per_size = ENUM_KEYS.div_ceil(ENUM_RING_SIZES);
    (0..ENUM_KEYS)
        .map(|i| {
            let mut q = topogen::ring(6 + i % ENUM_RING_SIZES);
            let stratum =
                ((i / ENUM_RING_SIZES) as f64 + rng.random_range(0.0..1.0)) / per_size as f64;
            let centre = 90.0 + 110.0 * stratum;
            let edges: Vec<_> = q.edge_refs().map(|e| e.id).collect();
            for e in edges {
                q.set_edge_attr(e, "dmin", centre - 40.0);
                q.set_edge_attr(e, "dmax", centre + 40.0);
            }
            key(
                Kind::Regular,
                q,
                CLIQUE_CONSTRAINT,
                Options {
                    algorithm: Algorithm::Ecf,
                    mode: SearchMode::UpTo(ENUM_UP_TO),
                    timeout: Some(ENUM_BUDGET),
                    ..Options::default()
                },
            )
        })
        .collect()
}

/// The planner's ledger must balance once every ticket has resolved.
fn check_ledger(svc: &NetEmbedService) -> Result<(), String> {
    let tel = svc.telemetry();
    if tel.queue_depth != 0 || tel.accepted + tel.shed.total() != tel.submitted {
        return Err(format!(
            "planner ledger broken: accepted {} + shed {} != submitted {} (queue depth {})",
            tel.accepted,
            tel.shed.total(),
            tel.submitted,
            tel.queue_depth
        ));
    }
    Ok(())
}

/// Per-kind answer checks: a planted key is never proven infeasible, an
/// infeasible twin never maps.
fn check_kind(kind: Kind, r: &QueryResponse) -> Result<(), String> {
    match (kind, Class::of(&r.outcome)) {
        (Kind::Planted, Class::Infeasible) => {
            Err("a planted (feasible) key came back proven infeasible".into())
        }
        (Kind::Infeasible, Class::Found) => Err("an infeasible key returned a mapping".into()),
        _ => Ok(()),
    }
}

/// An answered response must agree on outcome class with a fresh,
/// unlimited engine run of the same request.
fn check_fresh_class(host: &Network, k: &Key, r: &QueryResponse) -> Result<(), String> {
    let class = Class::of(&r.outcome);
    if !class.answered() {
        return Ok(());
    }
    let req = &k.request;
    let problem = Problem::new(&req.query, host, &req.constraint).map_err(|e| e.to_string())?;
    let fresh = Engine::run(
        &problem,
        &Options {
            algorithm: Algorithm::Ecf,
            timeout: None,
            ..req.options.clone()
        },
    )
    .map_err(|e| e.to_string())?;
    let fresh_class = Class::of(&fresh.outcome);
    if fresh_class != class {
        return Err(format!(
            "service answered {class:?} but a fresh unlimited run says {fresh_class:?}"
        ));
    }
    Ok(())
}

fn open_config() -> ServiceConfig {
    ServiceConfig::default()
        .planner_shards(PLANNER_SHARDS)
        .admission(
            AdmissionPolicy::default()
                .max_queue_depth(QUEUE_DEPTH)
                .shed(ShedMode::Reject),
        )
}

/// Register the host and run the warm-up queries through the planner,
/// so the timed stream finds the scratch space and caches in use.
fn open_setup(host: Network, warmup: &[Key]) -> Result<NetEmbedService, String> {
    let svc = NetEmbedService::with_config(open_config());
    svc.registry().register(HOST, host);
    for k in warmup {
        svc.planner()
            .run(&k.request)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok(svc)
}

/// What one phase of the open loop saw.
#[derive(Default)]
struct Phase {
    /// Due time to result, for requests the service accepted, as
    /// measured and scaled to the reference speed.
    latency: Hist,
    scaled: Hist,
    attempted: u64,
    shed: u64,
    failed: u64,
    /// Answered within the request's budget, counted from due time.
    good: u64,
    /// The same answers, each weighted by the slowdown when it was given.
    scaled_good: f64,
    counters: Counters,
    /// Every [`OPEN_CHECK_EVERY`]th response, for the off-clock oracle.
    sampled: Vec<(usize, QueryResponse)>,
    /// The first cheap check that failed.
    fault: Option<String>,
}

impl Phase {
    fn add(
        &mut self,
        keys: &[Key],
        key: usize,
        latency: f64,
        slowdown: f64,
        r: Result<QueryResponse, ServiceError>,
    ) {
        let i = self.attempted;
        self.attempted += 1;
        let r = match r {
            Ok(r) => r,
            Err(ServiceError::Overloaded(_)) => {
                self.shed += 1;
                return;
            }
            Err(_) => {
                self.failed += 1;
                return;
            }
        };
        self.latency.add(latency);
        self.scaled.add(latency / slowdown);
        if Class::of(&r.outcome).answered() && latency <= ms(OPEN_BUDGET) {
            self.good += 1;
            self.scaled_good += slowdown;
        }
        self.counters.add(&r, false);
        if let Err(e) = check_kind(keys[key].kind, &r) {
            self.fault.get_or_insert(e);
        }
        if i.is_multiple_of(OPEN_CHECK_EVERY) {
            self.sampled.push((key, r));
        }
    }
}

/// One open-loop phase through the planner: bursts at `rate` for
/// `window`, burst `i` asking for `keys[i]`, each burst submitted whole so
/// its requests coalesce into one group. The same thread waits on the
/// tickets in order between sends, and waiting runs the planner's
/// dispatch, so the service's work and the calibrator share that thread.
/// Each request is scaled by the slowdown of the [`measure::SLICE`] in
/// which it resolved. Returns the phase and the sends' lateness.
fn open_phase(
    planner: &Planner<'_>,
    cal: &mut Calibrator,
    keys: &[Key],
    rate: f64,
    window: Duration,
) -> (Phase, Vec<Duration>) {
    let start = Instant::now();
    let mut sent = Vec::new();
    let lateness = measure::open_loop(
        rate,
        window,
        cal,
        |i, due| {
            let key = i as usize;
            (0..BURST)
                .map(|_| (key, due, planner.submit(&keys[key].request)))
                .collect::<Vec<_>>()
        },
        |(key, due, sub)| {
            let r = match sub {
                Ok(ticket) => service::Ticket::wait(ticket),
                Err(e) => Err(e),
            };
            sent.push((key, due, Instant::now(), r));
        },
    );
    let slices = measure::slices(start, Instant::now());
    let slowdowns: Vec<f64> = slices.iter().map(|&(a, b)| cal.slowdown(a, b)).collect();
    let mut phase = Phase::default();
    for (key, due, done, r) in sent {
        let k = slices.partition_point(|&(_, end)| end < done);
        let slowdown = slowdowns[k.min(slices.len() - 1)];
        phase.add(keys, key, ms(done - due), slowdown, r);
    }
    (phase, lateness)
}

/// Bursts an open-loop phase sends.
fn bursts(rate: f64, window: Duration) -> usize {
    (window.as_secs_f64() * rate).floor() as usize
}

pub fn run_open(cfg: &Config) -> Result<RunResult, String> {
    let host = host(cfg.quick);
    let untraced = cfg.untraced_window();
    let steady_window = untraced.mul_f64(STEADY_SHARE);
    let overload_window = untraced - steady_window;
    let n_steady = bursts(STEADY_BURSTS, steady_window);
    let n_overload = bursts(OVERLOAD_BURSTS, overload_window);
    let mut keys = open_keys(
        &host,
        cfg.seed,
        OPEN_WARMUP + n_steady + n_overload + OPEN_TRACED,
    );
    let warmup: Vec<Key> = keys.drain(..OPEN_WARMUP).collect();
    let (svc, setup_s) = repeated_setup(
        cfg.setup_repeats(),
        || host.clone(),
        |h| open_setup(h, &warmup),
    );
    let svc = svc?;
    let mut cal = Calibrator::default();
    let mut out = RunResult::default();

    let planner = svc.planner();
    let (steady, mut lateness) = open_phase(
        &planner,
        &mut cal,
        &keys[..n_steady],
        STEADY_BURSTS,
        steady_window,
    );
    let overload_keys = &keys[n_steady..n_steady + n_overload];
    let (overload, late) = open_phase(
        &planner,
        &mut cal,
        overload_keys,
        OVERLOAD_BURSTS,
        overload_window,
    );
    lateness.extend(late);
    check_ledger(&svc)?;
    for (phase, keys) in [(&steady, &keys[..n_steady]), (&overload, overload_keys)] {
        if let Some(e) = &phase.fault {
            return Err(e.clone());
        }
        for (k, r) in &phase.sampled {
            check_fresh_class(&host, &keys[*k], r)?;
        }
    }
    out.attempted = steady.attempted + overload.attempted;
    out.failed = steady.failed + overload.failed;
    out.notes.push(format!(
        "steady: {} sent, {} shed; overload: {} sent, {} shed, {} answered within budget",
        steady.attempted, steady.shed, overload.attempted, overload.shed, overload.good
    ));
    let late = lateness.iter().fold(Hist::default(), |mut h, d| {
        h.add(ms(*d));
        h
    });
    if let Some(t) = late.tail() {
        out.tails.push(("send_lateness_ms".into(), t));
    }

    if !cfg.trace {
        EndToEnd {
            setup_s,
            latency: steady.latency,
            scaled: steady.scaled,
            answered: overload.good,
            scaled_answered: overload.scaled_good,
            seconds: overload_window.as_secs_f64(),
        }
        .metrics(cfg.quick, &cal, &mut out)?;
        return Ok(out);
    }

    let mut layers = Layers::default();
    let mut counters = steady.counters;
    counters.merge(&overload.counters);
    counters.record(
        untraced.as_secs_f64(),
        &svc.telemetry(),
        planner.groups_dispatched(),
        &mut layers,
    );
    layers.set("bench.open_loop_late_frac", trace::late_frac(&lateness));
    layers.set("service.feed.lag_max", 0.0);

    // The traced pass is a closed loop, one new query at a time. Its
    // overhead baseline is the same closed loop untraced, just before:
    // the open loop's latencies include queueing the traced pass lacks.
    let mut tracer = Tracer::start(&svc, HOST, cfg.seed, layers);
    let mut traced_keys = keys[n_steady + n_overload..].iter().cycle();
    let mut fault = None;
    let mut issue = |k: &Key, tracer: Option<&mut Tracer>| {
        let req = &k.request;
        let call = || planner.submit(req)?.wait();
        let t = Instant::now();
        let r = match tracer {
            Some(tracer) => tracer.request(
                Path::Planner,
                &req.query,
                &req.constraint,
                &req.options,
                call,
            ),
            None => call(),
        };
        let latency = ms(t.elapsed());
        out.attempted += 1;
        match &r {
            Ok(r) => {
                if let Err(e) = check_kind(k.kind, r) {
                    fault.get_or_insert(e);
                }
            }
            Err(ServiceError::Overloaded(_)) => {}
            Err(_) => out.failed += 1,
        }
        (latency, r.is_ok())
    };
    let quarter = (cfg.window - untraced) / 2;
    let baseline = measure::closed_loop(quarter, &mut cal, |_| {
        issue(traced_keys.next().expect("cycled"), None)
    });
    measure::closed_loop(quarter, &mut cal, |_| {
        issue(traced_keys.next().expect("cycled"), Some(&mut tracer))
    });
    if let Some(e) = fault {
        return Err(e);
    }
    let baseline_p50 = Slice::merged(&baseline).percentile(0.5);
    tracer
        .finish(baseline_p50, &mut out)
        .into_metrics(&mut out)?;
    Ok(out)
}

/// The enumeration oracle: every mapping verifies and is distinct; an
/// answer its sink cut short holds exactly [`ENUM_UP_TO`] mappings; a
/// complete answer equals a fresh sequential exhaustive enumeration.
fn check_enum(host: &Network, k: &Key, r: &QueryResponse) -> Result<(), String> {
    let req = &k.request;
    let problem = Problem::new(&req.query, host, &req.constraint).map_err(|e| e.to_string())?;
    let mappings = r.mappings();
    for m in mappings {
        netembed::check_mapping(&problem, m).map_err(|e| format!("bad mapping: {e}"))?;
    }
    let distinct: HashSet<&Mapping> = mappings.iter().collect();
    if distinct.len() != mappings.len() {
        return Err("duplicate mappings in one response".into());
    }
    if !matches!(r.outcome, netembed::Outcome::Complete(_)) {
        if !r.stats.timed_out && mappings.len() != ENUM_UP_TO {
            return Err(format!(
                "an up-to answer stopped by its sink holds {} mappings, not {ENUM_UP_TO}",
                mappings.len()
            ));
        }
        return Ok(());
    }
    let fresh = Engine::run(
        &problem,
        &Options {
            algorithm: Algorithm::Ecf,
            mode: SearchMode::All,
            timeout: None,
            ..Options::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let want: HashSet<&Mapping> = fresh.mappings.iter().collect();
    if want != distinct {
        return Err(format!(
            "complete answer has {} mappings, a fresh sequential enumeration {}",
            distinct.len(),
            want.len()
        ));
    }
    Ok(())
}

fn enum_setup(host: Network, keys: &[Key]) -> Result<NetEmbedService, String> {
    let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(PLANNER_SHARDS));
    svc.registry().register(HOST, host);
    for k in keys {
        svc.submit(&k.request)
            .map_err(|e| format!("prebuild submit failed: {e}"))?;
    }
    if svc.cache().len() != keys.len() {
        return Err(format!(
            "prebuilt {} filters for {} keys",
            svc.cache().len(),
            keys.len()
        ));
    }
    Ok(svc)
}

pub fn run_enum(cfg: &Config) -> Result<RunResult, String> {
    let host = host(cfg.quick);
    let keys = enum_keys(cfg.seed);
    let mut deck = Deck::new(keys.len(), topogen::rng(cfg.seed ^ 0x5EED));
    let (svc, setup_s) = repeated_setup(
        cfg.setup_repeats(),
        || host.clone(),
        |h| enum_setup(h, &keys),
    );
    let svc = svc?;
    let mut cal = Calibrator::default();
    let mut out = RunResult::default();

    let untraced = cfg.untraced_window();
    let mut counters = Counters::default();
    let mut sampled = Vec::new();
    let slices = measure::closed_loop(untraced, &mut cal, |i| {
        let k = deck.draw();
        let t = Instant::now();
        let r = svc.submit(&keys[k].request);
        let latency = ms(t.elapsed());
        let answered = match r {
            Ok(r) => {
                counters.add(&r, false);
                let answered = Class::of(&r.outcome).answered();
                if i.is_multiple_of(ENUM_CHECK_EVERY) && sampled.len() < ENUM_CHECKED {
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
    for (k, r) in &sampled {
        check_enum(&host, &keys[*k], r)?;
    }
    out.attempted = slices.iter().map(|s| s.attempted).sum();
    let hits: u64 = counters.cache_hits;
    if hits != counters.responses {
        return Err(format!(
            "{} of {} requests missed the prebuilt filters",
            counters.responses - hits,
            counters.responses
        ));
    }

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
    measure::closed_loop(cfg.window - untraced, &mut cal, |_| {
        let req = &keys[deck.draw()].request;
        let t = Instant::now();
        let r = tracer.request(
            Path::Submit,
            &req.query,
            &req.constraint,
            &req.options,
            || svc.submit(req),
        );
        out.attempted += 1;
        out.failed += u64::from(r.is_err());
        (ms(t.elapsed()), r.is_ok())
    });
    tracer
        .finish(untraced_p50, &mut out)
        .into_metrics(&mut out)?;
    Ok(out)
}
