//! Partitioned (hierarchical) query processing — the paper's §VIII
//! decentralization direction: *"for truly large-scale networks, a
//! complete view of the network may not be available to a single domain
//! … we are currently looking into a hierarchical approach to a
//! decentralized implementation of NETEMBED."*
//!
//! The host network is partitioned into *regions* by a categorical node
//! attribute (e.g. the `cluster` attribute of the PlanetLab-like hosts, or
//! `domain` of transit-stub topologies). A query is first fanned out to
//! every region in parallel — each worker runs the ordinary engine on its
//! region's induced subnetwork, exactly as a per-domain NETEMBED replica
//! would — and any region-local embedding is translated back to global
//! node ids and returned. Only when no region can host the query alone
//! does the coordinator fall back to the full network, preserving
//! completeness.
//!
//! Region-first search is sound (a region is an induced subgraph, so a
//! region-local embedding is a global embedding) and is a large win for
//! intra-domain queries on hosts whose regions are small relative to the
//! whole.

use crate::ServiceError;
use netembed::{Engine, Mapping, Options, Outcome, SearchMode};
use netgraph::{AttrValue, Network, NodeId};

/// A host partitioned into attribute-defined regions.
pub struct PartitionedHost {
    full: Network,
    regions: Vec<Region>,
}

struct Region {
    /// Attribute value defining the region.
    label: String,
    /// Induced subnetwork.
    net: Network,
    /// Region node index → global [`NodeId`].
    origin: Vec<NodeId>,
}

/// Where a result came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Locality {
    /// Satisfied entirely inside one region.
    Region(String),
    /// Required the cross-region fallback on the full network.
    Global,
}

/// Result of a partitioned query.
#[derive(Debug, Clone)]
pub struct PartitionedResponse {
    /// Classified outcome with **global** node ids.
    pub outcome: Outcome,
    /// Which tier answered.
    pub locality: Locality,
}

impl PartitionedHost {
    /// Partition `host` by the categorical/numeric node attribute `attr`.
    /// Nodes missing the attribute form their own `"<none>"` region.
    pub fn new(host: Network, attr: &str) -> Self {
        let mut groups: Vec<(String, Vec<NodeId>)> = Vec::new();
        for v in host.node_ids() {
            let label = host
                .node_attr_by_name(v, attr)
                .map(AttrValue::to_string)
                .unwrap_or_else(|| "<none>".to_string());
            match groups.iter_mut().find(|(l, _)| *l == label) {
                Some((_, members)) => members.push(v),
                None => groups.push((label, vec![v])),
            }
        }
        let regions = groups
            .into_iter()
            .map(|(label, members)| {
                let (net, origin) = host.induced_subgraph(&members);
                Region { label, net, origin }
            })
            .collect();
        PartitionedHost {
            full: host,
            regions,
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Region labels in partition order.
    pub fn region_labels(&self) -> Vec<&str> {
        self.regions.iter().map(|r| r.label.as_str()).collect()
    }

    /// The full (unpartitioned) host.
    pub fn full(&self) -> &Network {
        &self.full
    }

    /// Run `query` region-first, falling back to the full network.
    ///
    /// Regions are searched concurrently; the first region (in partition
    /// order) with a non-empty result wins, so results are deterministic.
    /// The fallback runs with the caller's exact options; region probes
    /// run in first-match mode (they only decide *whether* a region can
    /// host the query — the caller's mode applies to the winning tier).
    pub fn submit(
        &self,
        query: &Network,
        constraint: &str,
        options: &Options,
    ) -> Result<PartitionedResponse, ServiceError> {
        // Probe regions in parallel: one thread per region at least as
        // large as the query.
        let probe_options = &Options {
            mode: SearchMode::First,
            ..options.clone()
        };
        let probes: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .regions
                .iter()
                .map(|region| {
                    (region.net.node_count() >= query.node_count()).then(|| {
                        scope.spawn(move || {
                            Engine::new(&region.net)
                                .embed(query, constraint, probe_options)
                                .is_ok_and(|r| !r.mappings.is_empty())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.is_some_and(|h| h.join().expect("probe thread panicked")))
                .collect()
        });

        // First hosting region in partition order wins.
        for (region, _) in self.regions.iter().zip(probes).filter(|&(_, ok)| ok) {
            let engine = Engine::new(&region.net);
            let result = engine.embed(query, constraint, options)?;
            if result.mappings.is_empty() {
                continue; // probe raced a timeout; try the next region
            }
            let outcome = translate_outcome(result.outcome, &region.origin);
            return Ok(PartitionedResponse {
                outcome,
                locality: Locality::Region(region.label.clone()),
            });
        }

        // Cross-region fallback: the full network, full completeness.
        let engine = Engine::new(&self.full);
        let result = engine.embed(query, constraint, options)?;
        Ok(PartitionedResponse {
            outcome: result.outcome,
            locality: Locality::Global,
        })
    }
}

fn translate_outcome(outcome: Outcome, origin: &[NodeId]) -> Outcome {
    let translate = |m: &Mapping| -> Mapping {
        Mapping::new(m.iter().map(|(_, r)| origin[r.index()]).collect())
    };
    match outcome {
        Outcome::Complete(ms) => {
            // Region-complete is NOT globally complete (other regions and
            // cross-region placements exist) — downgrade to partial.
            Outcome::Partial(ms.iter().map(translate).collect())
        }
        Outcome::Partial(ms) => Outcome::Partial(ms.iter().map(translate).collect()),
        Outcome::Inconclusive => Outcome::Inconclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Direction;

    /// Two fully-meshed clusters of 4 joined by one inter-cluster edge.
    fn two_cluster_host() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let mut ids = Vec::new();
        for c in 0..2 {
            for i in 0..4 {
                let n = h.add_node(format!("c{c}n{i}"));
                h.set_node_attr(n, "cluster", c as f64);
                ids.push(n);
            }
        }
        for c in 0..2 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let e = h.add_edge(ids[c * 4 + i], ids[c * 4 + j]);
                    h.set_edge_attr(e, "d", 5.0);
                }
            }
        }
        let bridge = h.add_edge(ids[0], ids[4]);
        h.set_edge_attr(bridge, "d", 100.0);
        h
    }

    fn triangle_query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
        for i in 0..3 {
            q.add_edge(ids[i], ids[(i + 1) % 3]);
        }
        q
    }

    #[test]
    fn partitioning_by_cluster() {
        let p = PartitionedHost::new(two_cluster_host(), "cluster");
        assert_eq!(p.region_count(), 2);
        assert_eq!(p.region_labels(), vec!["0", "1"]);
    }

    #[test]
    fn intra_region_query_answered_locally() {
        let p = PartitionedHost::new(two_cluster_host(), "cluster");
        let q = triangle_query();
        let resp = p
            .submit(&q, "rEdge.d <= 10.0", &Options::default())
            .unwrap();
        assert!(matches!(resp.locality, Locality::Region(_)));
        let mappings = resp.outcome.mappings();
        assert!(!mappings.is_empty());
        // Global ids must be valid in the full host; verify independently.
        let problem = netembed::Problem::new(&q, p.full(), "rEdge.d <= 10.0").unwrap();
        for m in mappings {
            netembed::check_mapping(&problem, m).unwrap();
        }
        // Region-complete results are downgraded to partial.
        assert!(matches!(resp.outcome, Outcome::Partial(_)));
    }

    #[test]
    fn cross_region_query_falls_back_to_global() {
        let p = PartitionedHost::new(two_cluster_host(), "cluster");
        // An edge requiring the 100ms bridge: no single region has it.
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let resp = p
            .submit(&q, "rEdge.d >= 50.0", &Options::default())
            .unwrap();
        assert_eq!(resp.locality, Locality::Global);
        assert_eq!(resp.outcome.mappings().len(), 2); // bridge, 2 orientations
        assert!(matches!(resp.outcome, Outcome::Complete(_)));
    }

    #[test]
    fn infeasible_query_is_globally_definitive() {
        let p = PartitionedHost::new(two_cluster_host(), "cluster");
        let q = triangle_query();
        let resp = p.submit(&q, "rEdge.d > 1e9", &Options::default()).unwrap();
        assert_eq!(resp.locality, Locality::Global);
        assert!(resp.outcome.definitively_infeasible());
    }

    #[test]
    fn query_larger_than_any_region_skips_probes() {
        let p = PartitionedHost::new(two_cluster_host(), "cluster");
        // 5-node query cannot fit a 4-node region.
        let mut q = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..5).map(|i| q.add_node(format!("q{i}"))).collect();
        for w in ids.windows(2) {
            q.add_edge(w[0], w[1]);
        }
        let resp = p.submit(&q, "true", &Options::default()).unwrap();
        assert_eq!(resp.locality, Locality::Global);
        assert!(resp.outcome.found_any());
    }

    #[test]
    fn missing_attribute_forms_own_region() {
        let mut h = two_cluster_host();
        h.add_node("orphan");
        let p = PartitionedHost::new(h, "cluster");
        assert_eq!(p.region_count(), 3);
        assert!(p.region_labels().contains(&"<none>"));
    }
}
