//! Shared fixtures for the ablation benches.
//!
//! The crate holds three ablations, each writing a committed
//! `BENCH_*.json` at the workspace root: `abl_filter_layout` (filter
//! layout and search scratch, `BENCH_filter.json`), `abl_hierarchy`
//! (flat build vs. the substrate hierarchy, `BENCH_scale.json`) and
//! `abl_churn` (filter patching under model churn, `BENCH_churn.json`).
//! The paper's figures are regenerated by the experiment harness
//! (`cargo run -p harness --release -- list`), at any `--scale`.

use netgraph::Network;
use topogen::{subgraph_query, PlanetlabParams, QueryWorkload, SubgraphParams};

/// Benchmark-scale PlanetLab-like host (60 sites ≈ 1/5 of the trace).
pub fn bench_planetlab() -> Network {
    topogen::planetlab_like(
        &PlanetlabParams {
            sites: 60,
            measured_prob: 0.66,
            clusters: 4,
        },
        &mut topogen::rng(0xBEEF),
    )
}

/// Benchmark-scale BRITE-like host.
pub fn bench_brite(n: usize) -> Network {
    topogen::brite_like(
        &topogen::BriteParams::paper_default(n),
        &mut topogen::rng(0xB17E),
    )
}

/// Planted subgraph query of size `n`.
pub fn planted(host: &Network, n: usize, seed: u64) -> QueryWorkload {
    subgraph_query(
        host,
        &SubgraphParams {
            n,
            edge_keep: 0.3,
            slack: 0.02,
        },
        &mut topogen::rng(seed),
    )
}
