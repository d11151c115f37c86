//! Independent mapping verification — the correctness oracle.
//!
//! The searches are supposed to return only feasible embeddings (§IV);
//! this module re-checks a mapping against the raw networks and the
//! constraint expression without using any search data structure, so a
//! bug in the filter matrices or the DFS cannot hide itself. The service
//! layer verifies every mapping before handing it to a client, and the
//! test suite verifies every solution produced in every test.

use crate::mapping::Mapping;
use crate::problem::Problem;
use cexpr::EvalError;
use netgraph::NodeId;
use std::fmt;

/// Why a mapping failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// Mapping length differs from the query node count.
    WrongLength {
        /// Mapping length.
        got: usize,
        /// Query node count.
        want: usize,
    },
    /// A host node is out of range.
    BadHostNode(NodeId),
    /// Two query nodes map to the same host node.
    NotInjective {
        /// First query node.
        a: NodeId,
        /// Second query node.
        b: NodeId,
        /// The shared host node.
        host: NodeId,
    },
    /// A query edge has no corresponding host edge.
    MissingHostEdge {
        /// Query edge source.
        v_src: NodeId,
        /// Query edge target.
        v_dst: NodeId,
    },
    /// The edge constraint rejected a query-edge image.
    EdgeConstraint {
        /// Query edge source.
        v_src: NodeId,
        /// Query edge target.
        v_dst: NodeId,
    },
    /// The node constraint rejected a node image.
    NodeConstraint {
        /// Query node.
        v: NodeId,
    },
    /// The constraint expression raised a type error.
    Eval(EvalError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::WrongLength { got, want } => {
                write!(f, "mapping has {got} entries, query has {want} nodes")
            }
            VerifyError::BadHostNode(r) => write!(f, "host node {r} out of range"),
            VerifyError::NotInjective { a, b, host } => {
                write!(f, "query nodes {a} and {b} both map to host node {host}")
            }
            VerifyError::MissingHostEdge { v_src, v_dst } => {
                write!(f, "no host edge for query edge ({v_src}, {v_dst})")
            }
            VerifyError::EdgeConstraint { v_src, v_dst } => {
                write!(f, "edge constraint fails on query edge ({v_src}, {v_dst})")
            }
            VerifyError::NodeConstraint { v } => {
                write!(f, "node constraint fails on query node {v}")
            }
            VerifyError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<EvalError> for VerifyError {
    fn from(e: EvalError) -> Self {
        VerifyError::Eval(e)
    }
}

/// Verify that `mapping` is a feasible embedding for `problem`.
pub fn check_mapping(problem: &Problem<'_>, mapping: &Mapping) -> Result<(), VerifyError> {
    let nq = problem.nq();
    let nr = problem.nr();
    if mapping.len() != nq {
        return Err(VerifyError::WrongLength {
            got: mapping.len(),
            want: nq,
        });
    }
    // Range + injectivity, reported for the first query node (in mapping
    // order) whose host is out of range or repeats an earlier one. Sorting
    // the `(host, query)` pairs puts each host's images side by side,
    // earliest first, so the first repeat is the smallest second-or-later
    // image and its owner is the image just before it — O(nq log nq),
    // nothing sized by the host.
    let bad = mapping.iter().find(|&(_, r)| r.index() >= nr);
    let mut by_host: Vec<(NodeId, NodeId)> = mapping.iter().map(|(q, r)| (r, q)).collect();
    by_host.sort_unstable();
    let repeat = by_host
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .min_by_key(|w| w[1].1);
    if let Some((_, r)) = bad.filter(|&(q, _)| repeat.is_none_or(|w| q < w[1].1)) {
        return Err(VerifyError::BadHostNode(r));
    }
    if let Some(w) = repeat {
        return Err(VerifyError::NotInjective {
            a: w[0].1,
            b: w[1].1,
            host: w[0].0,
        });
    }
    // Node constraints.
    for q in problem.query.node_ids() {
        if !problem.node_ok(q, mapping.get(q))? {
            return Err(VerifyError::NodeConstraint { v: q });
        }
    }
    // Topology + edge constraints, in the stored edge orientation.
    for qe in problem.query.edge_refs() {
        let rs = mapping.get(qe.src);
        let rd = mapping.get(qe.dst);
        let Some(re) = problem.host.find_edge(rs, rd) else {
            return Err(VerifyError::MissingHostEdge {
                v_src: qe.src,
                v_dst: qe.dst,
            });
        };
        if !problem.edge_ok(qe.id, qe.src, qe.dst, re, rs, rd)? {
            return Err(VerifyError::EdgeConstraint {
                v_src: qe.src,
                v_dst: qe.dst,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Direction, Network};

    fn nets() -> (Network, Network) {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let mut h = Network::new(Direction::Undirected);
        let u = h.add_node("u");
        let v = h.add_node("v");
        let w = h.add_node("w");
        let e = h.add_edge(u, v);
        h.set_edge_attr(e, "d", 5.0);
        let e = h.add_edge(v, w);
        h.set_edge_attr(e, "d", 50.0);
        (q, h)
    }

    #[test]
    fn accepts_valid_mapping() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "rEdge.d < 10.0").unwrap();
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        assert_eq!(check_mapping(&p, &m), Ok(()));
    }

    #[test]
    fn rejects_constraint_violation() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "rEdge.d < 10.0").unwrap();
        let m = Mapping::new(vec![NodeId(1), NodeId(2)]); // d = 50
        assert!(matches!(
            check_mapping(&p, &m),
            Err(VerifyError::EdgeConstraint { .. })
        ));
    }

    #[test]
    fn rejects_missing_edge() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "true").unwrap();
        let m = Mapping::new(vec![NodeId(0), NodeId(2)]); // u-w not an edge
        assert!(matches!(
            check_mapping(&p, &m),
            Err(VerifyError::MissingHostEdge { .. })
        ));
    }

    #[test]
    fn rejects_non_injective() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "true").unwrap();
        let m = Mapping::new(vec![NodeId(0), NodeId(0)]);
        assert!(matches!(
            check_mapping(&p, &m),
            Err(VerifyError::NotInjective { .. })
        ));
    }

    #[test]
    fn reports_the_first_repeat_in_mapping_order() {
        // Six edge-less query nodes over six host nodes. Host 3 repeats
        // at positions 2 and 5 (owner 0), host 0 at position 3 (owner 1),
        // and position 4 is out of range: the first repeat in mapping
        // order is position 2, although host 0 sorts before host 3.
        let mut q = Network::new(Direction::Undirected);
        for i in 0..6 {
            q.add_node(format!("q{i}"));
        }
        let mut h = Network::new(Direction::Undirected);
        for i in 0..6 {
            h.add_node(format!("h{i}"));
        }
        let p = Problem::new(&q, &h, "true").unwrap();
        let ids = |v: &[u32]| Mapping::new(v.iter().map(|&i| NodeId(i)).collect());
        assert_eq!(
            check_mapping(&p, &ids(&[3, 0, 3, 0, 99, 3])),
            Err(VerifyError::NotInjective {
                a: NodeId(0),
                b: NodeId(2),
                host: NodeId(3),
            })
        );
        // An out-of-range id before the first repeat wins.
        assert_eq!(
            check_mapping(&p, &ids(&[3, 99, 3, 0, 1, 2])),
            Err(VerifyError::BadHostNode(NodeId(99)))
        );
        // A repeated out-of-range id is reported as out of range.
        assert_eq!(
            check_mapping(&p, &ids(&[0, 99, 99, 1, 2, 3])),
            Err(VerifyError::BadHostNode(NodeId(99)))
        );
    }

    #[test]
    fn rejects_wrong_length_and_range() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "true").unwrap();
        assert!(matches!(
            check_mapping(&p, &Mapping::new(vec![NodeId(0)])),
            Err(VerifyError::WrongLength { got: 1, want: 2 })
        ));
        assert!(matches!(
            check_mapping(&p, &Mapping::new(vec![NodeId(0), NodeId(99)])),
            Err(VerifyError::BadHostNode(_))
        ));
    }

    #[test]
    fn rejects_node_constraint_violation() {
        let (q, mut h) = nets();
        h.set_node_attr(NodeId(0), "cpu", 1.0);
        h.set_node_attr(NodeId(1), "cpu", 8.0);
        let p = Problem::new(&q, &h, "rNode.cpu >= 4.0").unwrap();
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        assert!(matches!(
            check_mapping(&p, &m),
            Err(VerifyError::NodeConstraint { v }) if v == NodeId(0)
        ));
    }
}
