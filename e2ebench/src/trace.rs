//! The `--trace 1` pass: per-layer numbers measured from outside.
//!
//! Each traced request is issued for real (the parent span), then its
//! layers are replayed one by one through their public functions on
//! the same model snapshot and inputs, each replay a child span:
//! `cexpr::parse` + `check_constraint`, `Problem::from_parsed`,
//! `FilterMatrix::build`, a clone plus `FilterMatrix::patch`,
//! `SubstrateHierarchy::refine` plus `FilterMatrix::build_restricted`,
//! `compute_order`, `Engine::run_prebuilt` and `check_mapping`. Every
//! layer is replayed on every workload, so every per-layer time has
//! samples everywhere; a child is marked *on path* when the real call
//! ran that layer too (a miss built, a patch patched, a hierarchical run
//! refined), and the parent's self time deducts only those. Replays run
//! with their own scratch space, so on requests made almost wholly of
//! replayed layers the self time can read a little below zero.

use crate::measure::{self, Hist, Metric, SpanRecorder};
use crate::RunResult;
use netembed::order::compute_order;
use netembed::{
    check_mapping, Deadline, EmbedScratch, Engine, FilterMatrix, Options, Problem, Refinement,
    SearchStats, SubstrateHierarchy,
};
use netgraph::{AttrValue, Network, NodeId};
use rand::Rng;
use service::{
    DeltaMutation, DirtySet, FeedConfig, FeedSnapshot, NetEmbedService, QueryResponse,
    RegistryDelta, RegistryFeed, ServiceError, ServiceTelemetry,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commits a traced run times on a replica of its host.
const REPLICA_COMMITS: u64 = 8;

/// Per-layer metric names and units, in `BENCHMARK.json` order.
/// Replayed quantities are medians over the traced requests; counters
/// read from untraced responses are means per request; ratios and rates
/// cover the whole untraced pass.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("cexpr.parse_lint_us", "us"),
    ("core.problem.compile_us", "us"),
    ("core.filter.build_ms", "ms"),
    ("core.filter.evals_per_build", "count"),
    ("core.filter.evals_per_us", "1/us"),
    ("core.filter.clone_us", "us"),
    ("core.filter.patch_us", "us"),
    ("core.filter.build_restricted_us", "us"),
    ("core.hierarchy.coarsen_s", "s"),
    ("core.hierarchy.refine_us", "us"),
    ("core.hierarchy.abstract_evals", "count"),
    ("core.hierarchy.expanded_ratio", "ratio"),
    ("core.hierarchy.pruned", "count"),
    ("core.order.us", "us"),
    ("core.search.ms", "ms"),
    ("core.search.nodes_visited", "count"),
    ("core.search.visits_per_us", "1/us"),
    ("core.verify.us", "us"),
    ("service.self_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.dedup_waits", "count"),
    ("service.cache.patch_ratio", "ratio"),
    ("service.cache.repairs_per_s", "1/s"),
    ("service.cache.hierarchy_hit_ratio", "ratio"),
    ("service.planner.queued_frac", "ratio"),
    ("service.planner.coalesced_share", "ratio"),
    ("service.planner.groups_per_s", "1/s"),
    ("service.admission.shed_frac", "ratio"),
    ("service.admission.shed_frac.queue_full", "ratio"),
    ("service.admission.shed_frac.deadline_hopeless", "ratio"),
    ("service.registry.commit_us", "us"),
    ("service.feed.pump_us", "us"),
    ("service.feed.lag_max", "count"),
    ("bench.open_loop_late_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Per-layer samples (times, reported as medians) and values (counts,
/// ratios and rates, reported as given) of one run.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, sample: f64) {
        self.samples.entry(name).or_default().push(sample);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Emit every [`PER_LAYER`] metric; a metric nothing measured is a
    /// bug in the workload, not a zero.
    pub fn into_metrics(self, out: &mut RunResult) -> Result<(), String> {
        let Layers { samples, values } = self;
        for (name, unit) in PER_LAYER {
            let value = if let Some(s) = samples.get(name) {
                let mut h = Hist::default();
                s.iter().for_each(|v| h.add(*v));
                if let Some(t) = h.tail() {
                    out.tails.push((name.to_string(), t));
                }
                out.notes.push(format!("{name}: {} samples", s.len()));
                measure::median(s)
            } else {
                *values
                    .get(name)
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))?
            };
            out.metrics.push(Metric::new(name, value, unit));
        }
        Ok(())
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The counters each untraced response carries, rolled up. Every
/// workload feeds its responses here so the cache and planner
/// metrics come from the run that reports end-to-end numbers.
#[derive(Debug, Default)]
pub struct Counters {
    pub responses: u64,
    pub filter_runs: u64,
    pub cache_hits: u64,
    pub dedup_waits: u64,
    pub coalesced: u64,
    pub patches: u64,
    pub patch_rebuilds: u64,
    pub hier_runs: u64,
    pub hier_hits: u64,
}

impl Counters {
    pub fn add(&mut self, r: &QueryResponse, hierarchical: bool) {
        let s = &r.stats;
        self.responses += 1;
        if hierarchical {
            self.hier_runs += 1;
            self.hier_hits += s.hierarchy_cache_hits;
        } else {
            self.filter_runs += 1;
            self.cache_hits += s.filter_cache_hits + s.coalesced_requests;
        }
        self.dedup_waits += s.dedup_waits;
        self.coalesced += s.coalesced_requests;
        self.patches += s.patches;
        self.patch_rebuilds += s.patch_rebuilds;
    }

    pub fn merge(&mut self, o: &Counters) {
        self.responses += o.responses;
        self.filter_runs += o.filter_runs;
        self.cache_hits += o.cache_hits;
        self.dedup_waits += o.dedup_waits;
        self.coalesced += o.coalesced;
        self.patches += o.patches;
        self.patch_rebuilds += o.patch_rebuilds;
        self.hier_runs += o.hier_runs;
        self.hier_hits += o.hier_hits;
    }

    /// Cache and planner-share metrics over a window of
    /// `seconds`, plus the admission and planner ledgers from the
    /// service's telemetry (all zero on the direct paths).
    pub fn record(&self, seconds: f64, tel: &ServiceTelemetry, groups: u64, layers: &mut Layers) {
        let n = self.responses.max(1) as f64;
        layers.set(
            "service.cache.hit_ratio",
            ratio(self.cache_hits as f64, self.filter_runs as f64),
        );
        layers.set("service.cache.dedup_waits", self.dedup_waits as f64 / n);
        layers.set(
            "service.cache.patch_ratio",
            ratio(
                self.patches as f64,
                (self.patches + self.patch_rebuilds) as f64,
            ),
        );
        layers.set(
            "service.cache.repairs_per_s",
            (self.patches + self.patch_rebuilds) as f64 / seconds,
        );
        layers.set(
            "service.cache.hierarchy_hit_ratio",
            ratio(self.hier_hits as f64, self.hier_runs as f64),
        );
        layers.set(
            "service.planner.coalesced_share",
            ratio(self.coalesced as f64, self.responses as f64),
        );
        layers.set("service.planner.groups_per_s", groups as f64 / seconds);
        // Queue waits of 1 ms or more: histogram buckets from [1024 µs,
        // 2048 µs) up (bucket i ≥ 1 covers [2^(i-1), 2^i) µs).
        let waits = &tel.queue_wait.buckets;
        let queued: u64 = waits.iter().skip(11).sum();
        layers.set(
            "service.planner.queued_frac",
            ratio(queued as f64, tel.queue_wait.count() as f64),
        );
        let submitted = tel.submitted as f64;
        layers.set(
            "service.admission.shed_frac",
            ratio(tel.shed.total() as f64, submitted),
        );
        layers.set(
            "service.admission.shed_frac.queue_full",
            ratio(tel.shed.queue_full as f64, submitted),
        );
        layers.set(
            "service.admission.shed_frac.deadline_hopeless",
            ratio(tel.shed.deadline_hopeless as f64, submitted),
        );
    }
}

/// Share of open-loop sends that started 1 ms or more after their due
/// time; 0 for workloads without an open loop.
pub fn late_frac(lateness: &[Duration]) -> f64 {
    let late = lateness
        .iter()
        .filter(|d| **d >= Duration::from_millis(1))
        .count();
    ratio(late as f64, lateness.len() as f64)
}

/// Which service path a traced request took, which decides whether its
/// parse replay is on the path: prepared queries parse once, up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Planner,
    Submit,
    Prepared,
}

/// The traced pass of one run.
pub struct Tracer {
    /// The model snapshot every replay runs on.
    host: Arc<Network>,
    hier: SubstrateHierarchy,
    /// The dirty window the patch replay repairs: both endpoints of one
    /// seeded host edge.
    dirty: Vec<NodeId>,
    scratch: EmbedScratch,
    spans: SpanRecorder,
    layers: Layers,
    parents_ms: Vec<f64>,
    next_request: u64,
}

impl Tracer {
    /// Start the traced pass on `host`'s current snapshot: coarsen it
    /// for the refine replay and time commits on a replica, both into
    /// `layers`.
    pub fn start(svc: &NetEmbedService, host: &str, seed: u64, mut layers: Layers) -> Self {
        let host = svc
            .registry()
            .model(host)
            .expect("workload host registered");
        let (hier, secs) =
            crate::timed(|| SubstrateHierarchy::build(&host, &netembed::HierarchySpec::default()));
        layers.set("core.hierarchy.coarsen_s", secs);
        replica_commits(&host, REPLICA_COMMITS, seed, &mut layers);
        let mut rng = topogen::rng(seed ^ 0x7ACE);
        let e = host
            .edge_refs()
            .nth(rng.random_range(0..host.edge_count()))
            .expect("host has edges");
        let dirty = vec![e.src, e.dst];
        Tracer {
            host,
            hier,
            dirty,
            scratch: EmbedScratch::new(),
            spans: SpanRecorder::default(),
            layers,
            parents_ms: Vec::new(),
            next_request: 0,
        }
    }

    /// Issue one request for real through `call`, then replay its
    /// layers.
    pub fn request(
        &mut self,
        path: Path,
        query: &Network,
        constraint: &str,
        options: &Options,
        call: impl FnOnce() -> Result<QueryResponse, ServiceError>,
    ) -> Result<QueryResponse, ServiceError> {
        let id = self.next_request;
        self.next_request += 1;
        let start = Instant::now();
        let response = call();
        let end = Instant::now();
        let parent = self.spans.record(id, "request", None, true, start, end);
        self.parents_ms.push(measure::ms(end - start));
        if let Ok(r) = &response {
            self.replay(id, parent, path, query, constraint, options, r);
        }
        response
    }

    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        id: u64,
        parent: usize,
        path: Path,
        query: &Network,
        constraint: &str,
        options: &Options,
        r: &QueryResponse,
    ) {
        let Tracer {
            host,
            hier,
            dirty,
            scratch,
            spans,
            layers,
            ..
        } = self;
        let host: &Network = host;
        let st = &r.stats;
        let hierarchical = options.hierarchy.is_some();
        let built = !hierarchical && st.filter_cache_hits == 0 && st.coalesced_requests == 0;
        let repaired = st.patches + st.patch_rebuilds > 0;

        let (expr, s) = spans.time(
            id,
            "cexpr.parse_lint",
            parent,
            path != Path::Prepared,
            || {
                let e = cexpr::parse(constraint).ok()?;
                cexpr::check_constraint(&e).ok()?;
                Some(e)
            },
        );
        layers.push("cexpr.parse_lint_us", spans.span(s).us());
        let Some(expr) = expr else { return };
        // A prepared query compiles once per model snapshot: a repair or
        // a miss is the sign the snapshot moved.
        let compiled = path != Path::Prepared || repaired || built;
        let (problem, s) = spans.time(id, "core.problem.compile", parent, compiled, || {
            Problem::from_parsed(query, host, &expr)
        });
        layers.push("core.problem.compile_us", spans.span(s).us());
        let Ok(problem) = problem else { return };

        let mut build = SearchStats::default();
        let (filter, s) = spans.time(id, "core.filter.build", parent, built, || {
            FilterMatrix::build(&problem, &mut Deadline::unlimited(), &mut build)
        });
        let build_us = spans.span(s).us();
        layers.push("core.filter.build_ms", build_us / 1e3);
        layers.push("core.filter.evals_per_build", build.constraint_evals as f64);
        layers.push(
            "core.filter.evals_per_us",
            ratio(build.constraint_evals as f64, build_us),
        );
        let Ok(filter) = filter else { return };
        let (mut copy, s) =
            spans.time(id, "core.filter.clone", parent, repaired, || filter.clone());
        layers.push("core.filter.clone_us", spans.span(s).us());
        let (_, s) = spans.time(id, "core.filter.patch", parent, repaired, || {
            copy.patch(
                &problem,
                dirty,
                &mut Deadline::unlimited(),
                &mut SearchStats::default(),
            )
        });
        layers.push("core.filter.patch_us", spans.span(s).us());

        let mut abs = SearchStats::default();
        let (refinement, s) = spans.time(id, "core.hierarchy.refine", parent, hierarchical, || {
            hier.refine(&problem, &mut Deadline::unlimited(), &mut abs)
        });
        layers.push("core.hierarchy.refine_us", spans.span(s).us());
        layers.push("core.hierarchy.abstract_evals", abs.constraint_evals as f64);
        layers.push(
            "core.hierarchy.expanded_ratio",
            ratio(abs.hier_expanded_cells as f64, abs.hier_full_cells as f64),
        );
        layers.push("core.hierarchy.pruned", abs.hier_pruned as f64);
        let restricted = match refinement {
            Refinement::Restricted(allowed) => {
                let (f, s) = spans.time(
                    id,
                    "core.filter.build_restricted",
                    parent,
                    hierarchical,
                    || {
                        FilterMatrix::build_restricted(
                            &problem,
                            &allowed,
                            &mut Deadline::unlimited(),
                            &mut SearchStats::default(),
                        )
                    },
                );
                layers.push("core.filter.build_restricted_us", spans.span(s).us());
                f.ok()
            }
            Refinement::Infeasible | Refinement::TimedOut => None,
        };

        // The matrix the real call searched: a hierarchical run that
        // proved infeasibility at a coarse level searched nothing.
        let searched = if hierarchical {
            restricted.as_ref()
        } else {
            Some(&filter)
        };
        if let Some(f) = searched {
            // Ordering runs inside the search too; its own span is off
            // the path so the parent's self time does not deduct it twice.
            let (_, s) = spans.time(id, "core.order", parent, false, || {
                compute_order(query, f, options.order)
            });
            layers.push("core.order.us", spans.span(s).us());
            let (res, s) = spans.time(id, "core.search", parent, true, || {
                Engine::run_prebuilt(&problem, f, options, scratch)
            });
            let search_us = spans.span(s).us();
            layers.push("core.search.ms", search_us / 1e3);
            if let Ok(res) = res {
                layers.push("core.search.nodes_visited", res.stats.nodes_visited as f64);
                layers.push(
                    "core.search.visits_per_us",
                    ratio(res.stats.nodes_visited as f64, search_us),
                );
            }
        }
        if !r.mappings().is_empty() {
            let (_, s) = spans.time(id, "core.verify", parent, true, || {
                r.mappings()
                    .iter()
                    .all(|m| check_mapping(&problem, m).is_ok())
            });
            layers.push("core.verify.us", spans.span(s).us());
        }
        layers.push("service.self_us", spans.self_us(parent));
    }

    /// Close the pass: the traced-vs-untraced median gap, and the spans
    /// for the result directory.
    pub fn finish(mut self, untraced_p50_ms: f64, out: &mut RunResult) -> Layers {
        let overhead = if self.parents_ms.is_empty() {
            0.0
        } else {
            measure::median(&self.parents_ms) / untraced_p50_ms - 1.0
        };
        self.layers.set("bench.trace_overhead_frac", overhead);
        out.notes.push(format!(
            "traced requests {}, spans {}",
            self.next_request,
            self.spans.len()
        ));
        out.spans = Some(self.spans);
        self.layers
    }
}

/// Commits measured on a replica: `count` single-attribute deltas, each
/// pumped through a `RegistryFeed`, and as many direct
/// `ModelRegistry::update_dirty` calls. The replica keeps the live
/// service's model and caches untouched.
fn replica_commits(host: &Network, count: u64, seed: u64, layers: &mut Layers) {
    let svc = NetEmbedService::new();
    svc.registry().register("replica", host.clone());
    let mut feed = RegistryFeed::new(
        VecDeque::new(),
        || None::<FeedSnapshot>,
        FeedConfig::default(),
    );
    let mut rng = topogen::rng(seed ^ 0xC0FF);
    let edges: Vec<(u32, u32)> = host.edge_refs().map(|e| (e.src.0, e.dst.0)).collect();
    for i in 0..count {
        let (src, dst) = edges[rng.random_range(0..edges.len())];
        let value = AttrValue::from(i as f64);
        feed.stream().push_back(RegistryDelta {
            host: "replica".into(),
            base_seq: i,
            next_seq: i + 1,
            mutation: DeltaMutation::SetEdgeAttr {
                src,
                dst,
                attr: "probe".into(),
                value: value.clone(),
            },
            dirty: DirtySet::from_ids([src, dst]),
        });
        let t = Instant::now();
        feed.pump(&svc);
        layers.push("service.feed.pump_us", measure::us(t.elapsed()));
        let t = Instant::now();
        svc.registry()
            .update_dirty("replica", DirtySet::from_ids([src, dst]), |net| {
                let e = net
                    .find_edge(NodeId(src), NodeId(dst))
                    .expect("edge taken from the host");
                net.set_edge_attr(e, "probe", value);
            })
            .expect("replica host is registered");
        layers.push("service.registry.commit_us", measure::us(t.elapsed()));
    }
    assert!(
        svc.telemetry().feed.balanced(),
        "replica feed ledger must balance"
    );
}
