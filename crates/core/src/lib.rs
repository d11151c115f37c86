//! # netembed — the network embedding engine
//!
//! This crate implements the paper's contribution: three complete-and-
//! correct search algorithms for embedding a constrained *query (virtual)
//! network* into a *hosting (real) network*, plus the machinery around them
//! (candidate filters, node orderings, deadlines, outcome classification,
//! and an independent mapping verifier).
//!
//! ## Algorithms (§V of the paper)
//!
//! * [`ecf`] — **Exhaustive search with Constraint Filtering**: builds the
//!   3-D filter matrix `F[(v, r, v′)] → {r′}` by evaluating the
//!   constraint expression for every (query edge, host edge) pair, orders
//!   query nodes ascending by candidate count (Lemma 1), and runs a DFS of
//!   the permutation tree that intersects filters at every extension.
//!   Complete: finds *all* feasible embeddings. The filter is stored as a
//!   flat CSR arena — a dense `(vj, vi)` pair table over per-`rj` offset
//!   rows into one contiguous candidate vector — so cell lookup is O(1)
//!   with no hashing, and dense cells carry bitset mirrors that the DFS
//!   intersects word-by-word into per-depth reusable scratch masks
//!   (zero allocation on the hot path). Construction itself parallelizes
//!   over query edges on a persistent worker pool
//!   ([`FilterMatrix::build_par_pooled`]) with a bitwise-identical
//!   result. See [`filter`] for the layout and
//!   `benches/abl_filter_layout.rs` for the hashmap-vs-CSR ablation.
//! * [`rwb`] — **Random Walk with Backtracking**: the same filters, but
//!   candidates are tried in random order and the search stops at the first
//!   feasible embedding.
//! * [`lns`] — **Lazy Neighborhood Search**: keeps no global filter state
//!   (worst-case filter space is O(n⁵), §V-C); instead grows a covered set
//!   from a maximum-degree seed, always extending by the neighbor with the
//!   most links into the covered set and checking connecting edges lazily.
//! * [`parallel`] — a parallel ECF that schedules subtrees of the
//!   permutation tree over a work-stealing thread pool (the paper's
//!   "distributed implementation" direction, §VIII); the engine builds
//!   its filter on the same pool with the same thread budget.
//!
//! ## Batching and scratch reuse
//!
//! Each algorithm module has one entry point, `search`. It takes the
//! caller's scratch and, except LNS, a prebuilt [`FilterMatrix`], so one
//! filter build serves any number of searches. Every search's mutable
//! state (per-depth DFS frames, assignment array, used-node mask, LNS
//! buffers) lives in a caller-held [`scratch::SearchScratch`], so
//! services embedding thousands of queries allocate the arenas once.
//! [`Engine`] is the code that pairs a filter build with a search:
//! [`Engine::run`] builds and searches, [`Engine::run_prebuilt`] reuses a
//! filter, and the `service` crate's `submit_batch` is the end-to-end
//! batch path. For the parallel search, [`scratch::ParallelScratch`]
//! keeps one scratch per worker plus a persistent [`pool::WorkerPool`]:
//! the worker threads park between calls instead of being re-spawned per
//! search, so a warm caller's parallel runs (and their filter builds,
//! [`FilterMatrix::build_par_pooled`]) are spawn-free —
//! [`SearchStats::pool_reuse`] reports how many warm threads a run
//! found.
//!
//! ## Quick start
//!
//! ```
//! use netembed::{Engine, Options, Algorithm, SearchMode};
//! use netgraph::{Direction, Network};
//!
//! // Host: a triangle with delays.
//! let mut host = Network::new(Direction::Undirected);
//! let (a, b, c) = (host.add_node("a"), host.add_node("b"), host.add_node("c"));
//! for (u, v, d) in [(a, b, 10.0), (b, c, 20.0), (a, c, 30.0)] {
//!     let e = host.add_edge(u, v);
//!     host.set_edge_attr(e, "avgDelay", d);
//! }
//!
//! // Query: one edge requesting avgDelay ≤ 15.
//! let mut query = Network::new(Direction::Undirected);
//! let (x, y) = (query.add_node("x"), query.add_node("y"));
//! query.add_edge(x, y);
//!
//! let engine = Engine::new(&host);
//! let result = engine
//!     .embed(&query, "rEdge.avgDelay <= 15.0", &Options::default())
//!     .unwrap();
//! // Only the (a, b) edge qualifies, in both orientations.
//! assert_eq!(result.mappings.len(), 2);
//!
//! // First-match mode with a different algorithm:
//! let opts = Options { algorithm: Algorithm::Lns, mode: SearchMode::First, ..Default::default() };
//! let result = engine.embed(&query, "rEdge.avgDelay <= 15.0", &opts).unwrap();
//! assert_eq!(result.mappings.len(), 1);
//! ```

pub mod automorph;
pub mod deadline;
pub mod ecf;
pub mod engine;
pub mod filter;
pub mod hierarchy;
pub mod lns;
pub mod mapping;
pub mod order;
pub mod outcome;
pub mod parallel;
pub mod pathmap;
pub mod pool;
pub mod problem;
pub mod rwb;
pub mod scratch;
pub mod sink;
pub mod stats;
pub mod verify;

pub use deadline::Deadline;
pub use engine::{Algorithm, EmbedResult, Engine, Options, SearchMode};
pub use filter::{FilterMatrix, PatchOutcome};
pub use hierarchy::{HierarchySpec, Refinement, SubstrateHierarchy};
pub use mapping::Mapping;
pub use order::NodeOrder;
pub use outcome::Outcome;
pub use parallel::StealPolicy;
pub use pool::WorkerPool;
pub use problem::{Problem, ProblemError};
pub use scratch::{EmbedScratch, ParallelScratch, SearchScratch};
pub use sink::{CollectAll, CollectUpTo, CountOnly, SinkControl, SolutionSink};
pub use stats::{BuildCharge, HistogramSnapshot, LatencyHistogram, SearchStats, LATENCY_BUCKETS};
pub use verify::{check_mapping, VerifyError};
