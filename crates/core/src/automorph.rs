//! Query-automorphism detection and solution-set compression.
//!
//! §II notes that Considine & Byers' constraint-satisfaction embedder used
//! automorphisms "to represent multiple equivalent mappings efficiently
//! using a single mapping". Regular query topologies (the paper's §VII-D
//! worst case) have large automorphism groups — a k-clique has k!, a
//! k-ring has 2k — so the complete solution sets ECF enumerates contain
//! huge orbits of equivalent embeddings. This module:
//!
//! * enumerates the **attribute-preserving automorphisms** of a query
//!   network (permutations preserving adjacency, node attributes and edge
//!   attributes) by self-embedding the query with ECF and post-filtering
//!   on attribute equality;
//! * compresses a solution set to **orbit representatives**: the unique
//!   embeddings modulo query automorphism, each with its orbit size.
//!
//! Enumeration is capped (automorphism groups are factorial in the worst
//! case); a hit on the cap is reported so callers never mistake a
//! truncated group for the full one.

use crate::deadline::Deadline;
use crate::ecf;
use crate::filter::FilterMatrix;
use crate::mapping::Mapping;
use crate::order::NodeOrder;
use crate::problem::Problem;
use crate::scratch::SearchScratch;
use crate::sink::{FnSink, SinkControl};
use crate::stats::SearchStats;
use netgraph::{Network, NodeId};
use rustc_hash::FxHashSet;

/// Result of automorphism enumeration.
#[derive(Debug, Clone)]
pub struct Automorphisms {
    /// The permutations found (always includes the identity). Each entry
    /// maps query node index → query node.
    pub perms: Vec<Mapping>,
    /// True when enumeration stopped at the cap — `perms` is then only a
    /// subset of the group and must not be used for exact orbit counts.
    pub truncated: bool,
}

impl Automorphisms {
    /// Group order (exact only when not truncated).
    pub fn order(&self) -> usize {
        self.perms.len()
    }
}

/// Enumerate the attribute-preserving automorphisms of `query`, up to
/// `cap` permutations.
pub fn query_automorphisms(query: &Network, cap: usize) -> Automorphisms {
    // Self-embedding under the trivially-true constraint enumerates all
    // adjacency-preserving permutations; attribute preservation is checked
    // per solution (the expression language compares *query to host*
    // attributes by name, which coincide here, but exact multi-attribute
    // equality is simpler and stricter done directly).
    let problem = Problem::new(query, query, "true").expect("self-embedding is well-formed");
    let mut perms: Vec<Mapping> = Vec::new();
    let mut truncated = false;
    {
        let mut sink = FnSink(|m: &Mapping| {
            if preserves_attrs(query, m) {
                perms.push(m.clone());
                if perms.len() >= cap {
                    truncated = true;
                    return SinkControl::Stop;
                }
            }
            SinkControl::Continue
        });
        let mut deadline = Deadline::unlimited();
        let mut stats = SearchStats::default();
        if let Ok(filter) = FilterMatrix::build(&problem, &mut deadline, &mut stats) {
            ecf::search(
                &problem,
                &filter,
                NodeOrder::AscendingCandidates,
                &mut deadline,
                &mut sink,
                &mut stats,
                &mut SearchScratch::new(),
            );
        }
    }
    Automorphisms { perms, truncated }
}

/// Does the permutation preserve every node and edge attribute?
fn preserves_attrs(query: &Network, perm: &Mapping) -> bool {
    for v in query.node_ids() {
        let w = perm.get(v);
        let a: Vec<_> = query.node_attrs(v).collect();
        let b: Vec<_> = query.node_attrs(w).collect();
        if a != b {
            return false;
        }
    }
    for e in query.edge_refs() {
        let (s, d) = (perm.get(e.src), perm.get(e.dst));
        let Some(f) = query.find_edge(s, d) else {
            return false; // adjacency should already hold, but be safe
        };
        let a: Vec<_> = query.edge_attrs(e.id).collect();
        let b: Vec<_> = query.edge_attrs(f).collect();
        if a != b {
            return false;
        }
    }
    true
}

/// One orbit of equivalent embeddings.
#[derive(Debug, Clone)]
pub struct Orbit {
    /// The canonical (lexicographically-least) member.
    pub representative: Mapping,
    /// Number of solutions in this orbit that were present in the input.
    pub size: usize,
}

/// Compress `solutions` modulo the query automorphisms: group solutions
/// whose compositions with a permutation coincide, keeping the
/// lexicographically-least member of each group.
///
/// With a truncated group this still produces a valid partition — just a
/// finer one than the full group would give.
pub fn compress_orbits(solutions: &[Mapping], autos: &Automorphisms) -> Vec<Orbit> {
    let mut seen: FxHashSet<Vec<NodeId>> = FxHashSet::default();
    let mut orbits: Vec<Orbit> = Vec::new();
    for sol in solutions {
        if seen.contains(sol.as_slice()) {
            continue;
        }
        // Generate the orbit of `sol`: sol ∘ π for every automorphism π.
        let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(autos.perms.len());
        for perm in &autos.perms {
            // (sol ∘ perm)(v) = sol(perm(v)).
            let composed: Vec<NodeId> = (0..sol.len())
                .map(|i| sol.get(perm.get(NodeId(i as u32))))
                .collect();
            members.push(composed);
        }
        members.sort();
        members.dedup();
        let mut present = 0usize;
        for m in &members {
            if solutions.iter().any(|s| s.as_slice() == m.as_slice()) {
                seen.insert(m.clone());
                present += 1;
            }
        }
        let representative = Mapping::new(members.into_iter().next().expect("orbit non-empty"));
        orbits.push(Orbit {
            representative,
            size: present,
        });
    }
    orbits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Options};
    use netgraph::Direction;

    fn ring(n: usize) -> Network {
        let mut g = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("q{i}"))).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n]);
        }
        g
    }

    fn clique(n: usize) -> Network {
        let mut g = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("q{i}"))).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(ids[i], ids[j]);
            }
        }
        g
    }

    #[test]
    fn ring_group_is_dihedral() {
        // Aut(C5) = D5, order 10.
        let autos = query_automorphisms(&ring(5), 1000);
        assert!(!autos.truncated);
        assert_eq!(autos.order(), 10);
    }

    #[test]
    fn clique_group_is_symmetric() {
        // Aut(K4) = S4, order 24.
        let autos = query_automorphisms(&clique(4), 1000);
        assert!(!autos.truncated);
        assert_eq!(autos.order(), 24);
    }

    #[test]
    fn path_group_is_order_two() {
        let mut g = Network::new(Direction::Undirected);
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        let autos = query_automorphisms(&g, 100);
        assert_eq!(autos.order(), 2); // identity + end-swap
    }

    #[test]
    fn attributes_break_symmetry() {
        let mut g = ring(4); // Aut(C4) = D4, order 8
        assert_eq!(query_automorphisms(&g, 100).order(), 8);
        // Pinning one node's attribute kills all rotations/reflections
        // except those fixing it: stabilizer of a vertex in D4 has order 2.
        g.set_node_attr(NodeId(0), "pin", true);
        assert_eq!(query_automorphisms(&g, 100).order(), 2);
        // Distinct edge attributes kill everything but the identity.
        let mut g2 = ring(4);
        for (i, e) in g2.edge_refs().collect::<Vec<_>>().into_iter().enumerate() {
            g2.set_edge_attr(e.id, "w", i as f64);
        }
        assert_eq!(query_automorphisms(&g2, 100).order(), 1);
    }

    #[test]
    fn cap_truncates() {
        let autos = query_automorphisms(&clique(5), 10); // |S5| = 120 > 10
        assert!(autos.truncated);
        assert_eq!(autos.order(), 10);
    }

    #[test]
    fn orbit_compression_on_triangle_solutions() {
        // Embed K3 into K4: 4·3·2 = 24 solutions; modulo Aut(K3) (order 6)
        // that is 4 orbits (one per chosen 3-subset... times 1) — each
        // orbit has the full 6 members present.
        let q = clique(3);
        let h = clique(4);
        let engine = Engine::new(&h);
        let res = engine.embed(&q, "true", &Options::default()).unwrap();
        assert_eq!(res.mappings.len(), 24);
        let autos = query_automorphisms(&q, 100);
        assert_eq!(autos.order(), 6);
        let orbits = compress_orbits(&res.mappings, &autos);
        assert_eq!(orbits.len(), 4);
        for o in &orbits {
            assert_eq!(o.size, 6);
        }
        // Orbit sizes account for every solution exactly once.
        let total: usize = orbits.iter().map(|o| o.size).sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn identity_only_group_compresses_nothing() {
        let mut q = ring(4);
        for (i, e) in q.edge_refs().collect::<Vec<_>>().into_iter().enumerate() {
            q.set_edge_attr(e.id, "w", i as f64);
        }
        let autos = query_automorphisms(&q, 100);
        assert_eq!(autos.order(), 1);
        let sols = vec![
            Mapping::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
            Mapping::new(vec![NodeId(1), NodeId(2), NodeId(3), NodeId(0)]),
        ];
        let orbits = compress_orbits(&sols, &autos);
        assert_eq!(orbits.len(), 2);
    }
}
