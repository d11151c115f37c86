//! `fattree-churn`: writes between reads on a k=16 fat-tree (~2.4k
//! nodes). A closed loop of rounds: each round commits one delta through
//! a `RegistryFeed` (85% raise a host link's delay past every query's
//! threshold, a removal the cache can patch in place; 15% restore an
//! earlier victim, an addition that forces a rebuild), then runs each of
//! 24 prepared queries once. Every read thus finds a new model epoch:
//! the per-snapshot recompile, the cache's repair decision (patch,
//! promote or rebuild) and every commit's copy of the model are on the
//! measured path.
//!
//! Writer and reader take turns rather than run side by side: with a
//! writer thread on its own schedule, whether a read patched or rebuilt
//! depended on how reads and deltas happened to interleave, and the
//! reader's throughput flipped between two levels from run to run.

use crate::measure::{self, ms, Calibrator, Deck, Hist, Slice};
use crate::trace::{Counters, Layers, Path, Tracer};
use crate::{repeated_setup, Class, Config, EndToEnd, RunResult, PLANNER_SHARDS};
use netembed::{Engine, Options, Problem, SearchMode};
use netgraph::{AttrValue, Direction, Network, NodeId};
use rand::rngs::StdRng;
use rand::Rng;
use service::{
    DeltaMutation, DirtySet, FeedConfig, FeedSnapshot, FeedState, NetEmbedService, PreparedQuery,
    RegistryDelta, RegistryFeed, ServiceConfig,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use topogen::FatTreeParams;

const HOST: &str = "fattree";
const HOST_SEED: u64 = 0xC0FE;
/// Prepared queries, each read once per round.
const QUERIES: usize = 24;
const DEGRADE_SHARE: f64 = 0.85;
/// Far above every query's delay threshold.
const DEGRADED_DELAY: f64 = 1.0;
const READ_BUDGET: Duration = Duration::from_millis(50);
/// The oracle checks every prepared query this many times, evenly
/// through the window.
const CHECKPOINTS: u32 = 5;

fn host(quick: bool) -> Network {
    let params = if quick {
        FatTreeParams {
            k: 8,
            hosts_per_edge: 8,
        }
    } else {
        FatTreeParams {
            k: 16,
            hosts_per_edge: 16,
        }
    };
    topogen::fat_tree(&params, &mut topogen::rng(HOST_SEED))
}

fn read_options() -> Options {
    Options {
        mode: SearchMode::First,
        timeout: Some(READ_BUDGET),
        ..Options::default()
    }
}

/// 3-node paths (host, switch, host), each with a link-delay ceiling and
/// a host CPU floor (the switch position asks for no CPU). Both
/// thresholds are stratified over their ranges, and a fixed permutation
/// pairs the strata, so every seed asks for the same spread of
/// selectivity; the seed jitters each threshold within its stratum. One
/// shape keeps the read latencies in one mode: with edges, paths and
/// stars mixed, each shape's rebuild cost formed its own mode and the
/// median sat on the step between two of them.
fn queries(seed: u64) -> Vec<(Network, String)> {
    let mut rng = topogen::rng(seed ^ 0xFA77);
    let stratum =
        |i: usize, rng: &mut StdRng| (i as f64 + rng.random_range(0.0..1.0)) / QUERIES as f64;
    (0..QUERIES)
        .map(|i| {
            let delay = 0.018 + 0.010 * stratum(i, &mut rng);
            // 7 is coprime to the 24 queries: a permutation of the strata.
            let cpu = (4.0 + 28.0 * stratum(i * 7 % QUERIES, &mut rng)).round();
            let mut q = Network::new(Direction::Undirected);
            let switch = q.add_node("s");
            q.set_node_attr(switch, "minCpu", 0.0);
            for l in 0..2 {
                let h = q.add_node(format!("h{l}"));
                q.set_node_attr(h, "minCpu", cpu);
                q.add_edge(switch, h);
            }
            let constraint = format!("rEdge.delay <= {delay:.5} && rNode.cpu >= vNode.minCpu");
            (q, constraint)
        })
        .collect()
}

/// The seeded delta stream: degrade a random healthy host link, or
/// restore a random degraded one to its original delay.
struct Churn {
    rng: StdRng,
    /// `(src, dst, original delay)` of every host link.
    links: Vec<(u32, u32, f64)>,
    healthy: Vec<usize>,
    degraded: Vec<usize>,
    seq: u64,
}

impl Churn {
    fn new(host: &Network, seed: u64) -> Self {
        let is_host = |n: NodeId| {
            host.node_attr_by_name(n, "tier")
                .and_then(AttrValue::as_str)
                == Some("host")
        };
        let links: Vec<(u32, u32, f64)> = host
            .edge_refs()
            .filter(|e| is_host(e.src) || is_host(e.dst))
            .map(|e| {
                let delay = host
                    .edge_attr_by_name(e.id, "delay")
                    .and_then(AttrValue::as_num)
                    .expect("fat-tree links carry a delay");
                (e.src.0, e.dst.0, delay)
            })
            .collect();
        Churn {
            rng: topogen::rng(seed ^ 0xC4A2),
            healthy: (0..links.len()).collect(),
            links,
            degraded: Vec::new(),
            seq: 0,
        }
    }

    fn next(&mut self) -> RegistryDelta {
        let degrade = self.degraded.is_empty()
            || (!self.healthy.is_empty() && self.rng.random_bool(DEGRADE_SHARE));
        let (from, to) = if degrade {
            (&mut self.healthy, &mut self.degraded)
        } else {
            (&mut self.degraded, &mut self.healthy)
        };
        let link = from.swap_remove(self.rng.random_range(0..from.len()));
        to.push(link);
        let (src, dst, original) = self.links[link];
        let delay = if degrade { DEGRADED_DELAY } else { original };
        self.seq += 1;
        RegistryDelta {
            host: HOST.to_string(),
            base_seq: self.seq - 1,
            next_seq: self.seq,
            mutation: DeltaMutation::SetEdgeAttr {
                src,
                dst,
                attr: "delay".into(),
                value: AttrValue::from(delay),
            },
            dirty: DirtySet::from_ids([src, dst]),
        }
    }
}

type Feed = RegistryFeed<VecDeque<RegistryDelta>, fn() -> Option<FeedSnapshot>>;

fn no_snapshot() -> Option<FeedSnapshot> {
    None
}

/// Register the host, then prepare every query and run it once,
/// building its filter.
fn setup<'s>(
    svc: &'s NetEmbedService,
    host: Network,
    queries: &[(Network, String)],
) -> Result<Vec<PreparedQuery<'s>>, String> {
    svc.registry().register(HOST, host);
    queries
        .iter()
        .map(|(q, c)| {
            let mut p = svc
                .prepare(HOST, q.clone(), c)
                .map_err(|e| format!("prepare failed: {e}"))?;
            p.run(&read_options())
                .map_err(|e| format!("cold run failed: {e}"))?;
            Ok(p)
        })
        .collect()
}

fn service() -> NetEmbedService {
    NetEmbedService::with_config(ServiceConfig::default().planner_shards(PLANNER_SHARDS))
}

/// The delta stream, its feed, and what committing it observed.
struct Writer {
    feed: Feed,
    churn: Churn,
    /// Each `pump` call, in ms.
    commit_ms: Hist,
    lag_max: u64,
    degraded: bool,
    /// Reads left before the next delta.
    reads_left: usize,
}

impl Writer {
    /// Apply the next delta through the feed.
    fn commit(&mut self, svc: &NetEmbedService) {
        self.feed.stream().push_back(self.churn.next());
        let t = Instant::now();
        let state = self.feed.pump(svc);
        self.commit_ms.add(ms(t.elapsed()));
        self.degraded |= state != FeedState::Live;
        self.lag_max = self.lag_max.max(svc.feed_status().lag());
    }

    /// A closed loop of rounds for `window`: each round commits one delta,
    /// then `read`s every prepared query once, in deck order. Returns the
    /// reads' slices; their time includes the commits.
    fn rounds(
        &mut self,
        svc: &NetEmbedService,
        window: Duration,
        cal: &mut Calibrator,
        deck: &mut Deck,
        mut read: impl FnMut(usize) -> (f64, bool),
    ) -> Vec<Slice> {
        measure::closed_loop(window, cal, |_| {
            if self.reads_left == 0 {
                self.commit(svc);
                self.reads_left = QUERIES;
            }
            self.reads_left -= 1;
            read(deck.draw())
        })
    }
}

/// With the writer paused, every prepared query must answer exactly
/// what a fresh engine run on the current snapshot answers.
fn checkpoint(
    svc: &NetEmbedService,
    prepared: &mut [PreparedQuery<'_>],
    queries: &[(Network, String)],
) -> Result<(), String> {
    let snapshot = svc.registry().model(HOST).expect("host registered");
    for (p, (q, c)) in prepared.iter_mut().zip(queries) {
        let r = p.run(&read_options()).map_err(|e| e.to_string())?;
        if !Class::of(&r.outcome).answered() {
            continue;
        }
        let problem = Problem::new(q, &snapshot, c).map_err(|e| e.to_string())?;
        let fresh = Engine::run(
            &problem,
            &Options {
                timeout: None,
                ..read_options()
            },
        )
        .map_err(|e| e.to_string())?;
        if r.mappings() != fresh.mappings.as_slice() {
            return Err(format!(
                "prepared query `{c}` answered {:?}, a fresh run on the same snapshot {:?}",
                r.mappings(),
                fresh.mappings
            ));
        }
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let host = host(cfg.quick);
    let queries = queries(cfg.seed);
    let mut deck = Deck::new(queries.len(), topogen::rng(cfg.seed ^ 0x5EED));
    let mut out = RunResult::default();

    // Set up on fresh services; the last one serves the run. A prepared
    // query borrows its service, so the services outlive the loop.
    let services: Vec<NetEmbedService> = (0..cfg.setup_repeats()).map(|_| service()).collect();
    let mut next = services.iter();
    let (prepared, setup_s) = repeated_setup(
        services.len(),
        || (next.next().expect("one service per setup"), host.clone()),
        |(svc, h)| setup(svc, h, &queries),
    );
    let mut prepared = prepared?;
    let svc = services.last().expect("at least one setup");
    let mut cal = Calibrator::default();
    let mut writer = Writer {
        feed: RegistryFeed::new(VecDeque::new(), no_snapshot, FeedConfig::default()),
        churn: Churn::new(&host, cfg.seed),
        commit_ms: Hist::default(),
        lag_max: 0,
        degraded: false,
        reads_left: 0,
    };

    // At each checkpoint the oracle compares every prepared query with a
    // fresh run on the current snapshot.
    let untraced = cfg.untraced_window();
    let mut reads = Counters::default();
    let mut slices = Vec::new();
    for _ in 0..CHECKPOINTS {
        slices.extend(
            writer.rounds(svc, untraced / CHECKPOINTS, &mut cal, &mut deck, |k| {
                let t = Instant::now();
                let r = prepared[k].run(&read_options());
                let latency = ms(t.elapsed());
                let answered = r.as_ref().is_ok_and(|r| {
                    reads.add(r, false);
                    Class::of(&r.outcome).answered()
                });
                (latency, answered)
            }),
        );
        checkpoint(svc, &mut prepared, &queries)?;
    }
    check_feed(svc, &writer)?;
    let tel = svc.telemetry();
    out.attempted = slices.iter().map(|s| s.attempted).sum();
    out.failed = out.attempted - reads.responses;
    if let Some(t) = writer.commit_ms.tail() {
        out.tails.push(("commit_ms".into(), t));
    }
    out.notes.push(format!(
        "deltas applied {}, commit p50 {:.3} ms, patches {}, patch rebuilds {}",
        tel.feed.applied,
        writer.commit_ms.percentile(0.5),
        reads.patches,
        reads.patch_rebuilds
    ));

    if !cfg.trace {
        EndToEnd::closed(setup_s, &slices).metrics(cfg.quick, &cal, &mut out)?;
        return Ok(out);
    }

    let mut layers = Layers::default();
    let seconds: f64 = slices.iter().map(|s| s.seconds).sum();
    reads.record(seconds, &tel, 0, &mut layers);
    layers.set("bench.open_loop_late_frac", 0.0);
    layers.set("service.feed.lag_max", writer.lag_max as f64);
    let untraced_p50 = Slice::merged(&slices).percentile(0.5);

    // The traced pass keeps the rounds going, so its parents see the same
    // churn as the untraced reads; replays use the snapshot taken here.
    let mut tracer = Tracer::start(svc, HOST, cfg.seed, layers);
    let options = read_options();
    writer.rounds(svc, cfg.window - untraced, &mut cal, &mut deck, |k| {
        let (q, c) = &queries[k];
        let p = &mut prepared[k];
        let t = Instant::now();
        let r = tracer.request(Path::Prepared, q, c, &options, || p.run(&options));
        out.attempted += 1;
        out.failed += u64::from(r.is_err());
        (ms(t.elapsed()), r.is_ok())
    });
    check_feed(svc, &writer)?;
    tracer
        .finish(untraced_p50, &mut out)
        .into_metrics(&mut out)?;
    Ok(out)
}

/// The feed stayed live, rejected nothing and its ledger balances.
fn check_feed(svc: &NetEmbedService, writer: &Writer) -> Result<(), String> {
    let feed = svc.telemetry().feed;
    if writer.degraded || !feed.balanced() || feed.rejected > 0 {
        return Err(format!("feed left its clean state: {feed:?}"));
    }
    Ok(())
}
