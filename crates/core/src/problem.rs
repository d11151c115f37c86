//! Problem definition: a (query, host, constraint) triple with the
//! constraint compiled against both schemas.
//!
//! The constraint expression is an input *separate from* the query topology
//! (§VI-B): callers can tighten or relax it without touching the GraphML,
//! which is what the service layer's negotiation loop relies on.
//!
//! A constraint is checked two ways over one evaluator. The one-shot
//! [`Problem::edge_ok`] / [`Problem::node_ok`] walk the compiled tree and
//! allocate nothing: verification, local search and the baselines check
//! each pair once. The filter build checks one query element against
//! many host elements, so it binds first: [`Problem::bind_edge`] /
//! [`Problem::bind_node`] fold the query side once (see
//! [`cexpr::compile`]) and give the same result, error for error.

use cexpr::{
    parse, BinOp, BoundEdge, BoundNode, Compiled, EdgeCtx, EvalError, Expr, NodeCtx, ParseError,
};
use netgraph::{EdgeId, Network, NodeId};
use std::fmt;

/// Flatten a top-level `&&` chain into its conjuncts.
fn split_conjunction(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary(BinOp::And, l, r) => {
            let mut out = split_conjunction(l);
            out.extend(split_conjunction(r));
            out
        }
        other => vec![other],
    }
}

/// Rebuild a conjunction (empty ⇒ `true`).
fn fold_and(parts: Vec<Expr>) -> Expr {
    let mut iter = parts.into_iter();
    match iter.next() {
        None => cexpr::always_true(),
        Some(first) => iter.fold(first, |acc, e| {
            Expr::Binary(BinOp::And, Box::new(acc), Box::new(e))
        }),
    }
}

/// Errors raised when building or running a problem.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// Constraint failed to parse.
    Parse(ParseError),
    /// Constraint raised a type error during evaluation — the query is
    /// malformed (e.g. comparing a string attribute with a number).
    Eval(EvalError),
    /// Query and host disagree on edge directionality.
    DirectionMismatch,
    /// The query has more nodes than the host — no injective mapping can
    /// exist (§IV requires m to be one-to-one).
    QueryLargerThanHost {
        /// Query node count.
        query: usize,
        /// Host node count.
        host: usize,
    },
    /// The query has no nodes.
    EmptyQuery,
    /// One `&&`-conjunct mixes node-context (`vNode`/`rNode`) and
    /// edge-context (Table I) objects; such constraints have no single
    /// evaluation context.
    MixedConjunct(String),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::Parse(e) => write!(f, "constraint parse error: {e}"),
            ProblemError::Eval(e) => write!(f, "constraint evaluation error: {e}"),
            ProblemError::DirectionMismatch => {
                write!(f, "query and host must both be directed or both undirected")
            }
            ProblemError::QueryLargerThanHost { query, host } => write!(
                f,
                "query has {query} nodes but host only {host}; no injective mapping exists"
            ),
            ProblemError::EmptyQuery => write!(f, "query network has no nodes"),
            ProblemError::MixedConjunct(c) => write!(
                f,
                "conjunct `{c}` mixes node-context (vNode/rNode) and edge-context objects; \
                 split it into separate && conjuncts"
            ),
        }
    }
}

impl std::error::Error for ProblemError {}

impl From<ParseError> for ProblemError {
    fn from(e: ParseError) -> Self {
        ProblemError::Parse(e)
    }
}

impl From<EvalError> for ProblemError {
    fn from(e: EvalError) -> Self {
        ProblemError::Eval(e)
    }
}

/// A fully-specified embedding problem.
#[derive(Debug)]
pub struct Problem<'a> {
    /// Query (virtual) network.
    pub query: &'a Network,
    /// Hosting (real) network.
    pub host: &'a Network,
    edge_expr: Compiled,
    node_expr: Option<Compiled>,
}

impl<'a> Problem<'a> {
    /// Build a problem from a constraint expression source string.
    ///
    /// The expression's top-level conjunction is split by context: each
    /// `&&`-conjunct referencing `vNode`/`rNode` becomes part of the *node*
    /// constraint (applied to every query-node/host-node pair); the rest
    /// form the per-edge constraint of §VI-B. So
    /// `rNode.cpu >= vNode.cpu && rEdge.avgDelay <= vEdge.dmax` does what
    /// it reads like. A single conjunct mixing both contexts is rejected —
    /// use [`Problem::with_exprs`] for exotic combinations.
    pub fn new(
        query: &'a Network,
        host: &'a Network,
        constraint: &str,
    ) -> Result<Self, ProblemError> {
        let expr = parse(constraint)?;
        Self::from_parsed(query, host, &expr)
    }

    /// [`Problem::new`] over an already-parsed constraint: same
    /// conjunct splitting, no re-parse. This is the repeated-compile
    /// path for callers that keep a query prepared across many runs
    /// (the service layer's `PreparedQuery` re-binds the same parsed
    /// expression against each new model snapshot).
    pub fn from_parsed(
        query: &'a Network,
        host: &'a Network,
        expr: &Expr,
    ) -> Result<Self, ProblemError> {
        let mut edge_parts: Vec<Expr> = Vec::new();
        let mut node_parts: Vec<Expr> = Vec::new();
        for conjunct in split_conjunction(expr) {
            let uses_node = conjunct.uses_node_objects();
            let uses_edge = conjunct
                .attr_refs()
                .iter()
                .any(|(o, _)| !matches!(o, cexpr::Object::VNode | cexpr::Object::RNode));
            if uses_node && uses_edge {
                return Err(ProblemError::MixedConjunct(conjunct.to_string()));
            }
            if uses_node {
                node_parts.push(conjunct.clone());
            } else {
                edge_parts.push(conjunct.clone());
            }
        }
        let edge_expr = fold_and(edge_parts);
        let node_expr = if node_parts.is_empty() {
            None
        } else {
            Some(fold_and(node_parts))
        };
        Self::with_exprs(query, host, &edge_expr, node_expr.as_ref())
    }

    /// Build a problem from parsed edge and (optional) node constraints.
    pub fn with_exprs(
        query: &'a Network,
        host: &'a Network,
        edge_expr: &Expr,
        node_expr: Option<&Expr>,
    ) -> Result<Self, ProblemError> {
        if query.node_count() == 0 {
            return Err(ProblemError::EmptyQuery);
        }
        if query.is_undirected() != host.is_undirected() {
            return Err(ProblemError::DirectionMismatch);
        }
        if query.node_count() > host.node_count() {
            return Err(ProblemError::QueryLargerThanHost {
                query: query.node_count(),
                host: host.node_count(),
            });
        }
        Ok(Problem {
            query,
            host,
            edge_expr: Compiled::new(edge_expr, query, host),
            node_expr: node_expr.map(|e| Compiled::new(e, query, host)),
        })
    }

    /// Number of query nodes.
    #[inline]
    pub fn nq(&self) -> usize {
        self.query.node_count()
    }

    /// Number of host nodes.
    #[inline]
    pub fn nr(&self) -> usize {
        self.host.node_count()
    }

    /// Whether a node constraint is present.
    pub fn has_node_expr(&self) -> bool {
        self.node_expr.is_some()
    }

    /// Compiled edge constraint, for abstract (bounds) evaluation.
    pub(crate) fn edge_expr(&self) -> &Compiled {
        &self.edge_expr
    }

    /// Compiled node constraint, if any, for abstract (bounds) evaluation.
    pub(crate) fn node_expr(&self) -> Option<&Compiled> {
        self.node_expr.as_ref()
    }

    /// Evaluate the edge constraint for query edge `(v_src → v_dst)` mapped
    /// onto host pair `(r_src → r_dst)` over host edge `r_edge`.
    #[inline]
    pub fn edge_ok(
        &self,
        v_edge: EdgeId,
        v_src: NodeId,
        v_dst: NodeId,
        r_edge: EdgeId,
        r_src: NodeId,
        r_dst: NodeId,
    ) -> Result<bool, EvalError> {
        self.edge_expr.eval_edge(&EdgeCtx {
            q: self.query,
            r: self.host,
            v_edge,
            v_src,
            v_dst,
            r_edge,
            r_src,
            r_dst,
        })
    }

    /// Evaluate the node constraint for `v → r`; `true` when no node
    /// constraint was supplied.
    #[inline]
    pub fn node_ok(&self, v: NodeId, r: NodeId) -> Result<bool, EvalError> {
        match &self.node_expr {
            None => Ok(true),
            Some(c) => c.eval_node(&NodeCtx {
                q: self.query,
                r: self.host,
                v_node: v,
                r_node: r,
            }),
        }
    }

    /// The edge constraint bound to query edge `v_edge` (`v_src → v_dst`):
    /// `bound.eval(self.host, r_edge, r_src, r_dst)` equals
    /// `self.edge_ok(v_edge, v_src, v_dst, r_edge, r_src, r_dst)` for every
    /// host edge and orientation, with the query side folded once. Binding
    /// allocates the folded tree, so it pays for a query edge checked
    /// against many host edges, as in the filter build.
    pub fn bind_edge(&self, v_edge: EdgeId, v_src: NodeId, v_dst: NodeId) -> BoundEdge<'_> {
        self.edge_expr.bind_edge(self.query, v_edge, v_src, v_dst)
    }

    /// The node constraint bound to query node `v`, or `None` when no node
    /// constraint was supplied (every host node passes):
    /// `bound.eval(self.host, r)` equals `self.node_ok(v, r)`.
    pub fn bind_node(&self, v: NodeId) -> Option<BoundNode<'_>> {
        self.node_expr.as_ref().map(|c| c.bind_node(self.query, v))
    }

    /// Check one candidate pair `(v_src→r_src, v_dst→r_dst)` for query edge
    /// `v_edge`: the host edge must exist and the edge constraint (plus
    /// node constraints on both endpoints) must hold.
    #[inline]
    pub fn pair_ok(
        &self,
        v_edge: EdgeId,
        v_src: NodeId,
        v_dst: NodeId,
        r_src: NodeId,
        r_dst: NodeId,
    ) -> Result<bool, EvalError> {
        let Some(r_edge) = self.host.find_edge(r_src, r_dst) else {
            return Ok(false);
        };
        if !self.node_ok(v_src, r_src)? || !self.node_ok(v_dst, r_dst)? {
            return Ok(false);
        }
        self.edge_ok(v_edge, v_src, v_dst, r_edge, r_src, r_dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Direction;

    fn nets() -> (Network, Network) {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let mut h = Network::new(Direction::Undirected);
        let u = h.add_node("u");
        let v = h.add_node("v");
        let w = h.add_node("w");
        let e1 = h.add_edge(u, v);
        h.set_edge_attr(e1, "d", 5.0);
        let e2 = h.add_edge(v, w);
        h.set_edge_attr(e2, "d", 50.0);
        h.set_node_attr(u, "cpu", 8.0);
        (q, h)
    }

    #[test]
    fn build_and_eval_edge_constraint() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "rEdge.d < 10.0").unwrap();
        assert!(!p.has_node_expr());
        assert_eq!(
            p.pair_ok(EdgeId(0), NodeId(0), NodeId(1), NodeId(0), NodeId(1)),
            Ok(true)
        );
        assert_eq!(
            p.pair_ok(EdgeId(0), NodeId(0), NodeId(1), NodeId(1), NodeId(2)),
            Ok(false)
        );
        // No host edge u-w.
        assert_eq!(
            p.pair_ok(EdgeId(0), NodeId(0), NodeId(1), NodeId(0), NodeId(2)),
            Ok(false)
        );
    }

    #[test]
    fn node_expression_autodetected() {
        let (q, h) = nets();
        let p = Problem::new(&q, &h, "rNode.cpu >= 4.0").unwrap();
        assert!(p.has_node_expr());
        assert_eq!(p.node_ok(NodeId(0), NodeId(0)), Ok(true)); // u: cpu 8
        assert_eq!(p.node_ok(NodeId(0), NodeId(1)), Ok(false)); // v: missing
    }

    #[test]
    fn errors() {
        let (q, h) = nets();
        assert!(matches!(
            Problem::new(&q, &h, "1 +"),
            Err(ProblemError::Parse(_))
        ));
        let mut big = Network::new(Direction::Undirected);
        for i in 0..5 {
            big.add_node(format!("n{i}"));
        }
        assert!(matches!(
            Problem::new(&big, &h, "true"),
            Err(ProblemError::QueryLargerThanHost { query: 5, host: 3 })
        ));
        let empty = Network::new(Direction::Undirected);
        assert!(matches!(
            Problem::new(&empty, &h, "true"),
            Err(ProblemError::EmptyQuery)
        ));
        let directed = Network::new(Direction::Directed);
        let mut dq = directed.clone();
        dq.add_node("a");
        assert!(matches!(
            Problem::new(&dq, &h, "true"),
            Err(ProblemError::DirectionMismatch)
        ));
    }
}

#[cfg(test)]
mod split_tests {
    use super::*;
    use netgraph::Direction;

    fn nets2() -> (Network, Network) {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let e = q.add_edge(a, b);
        q.set_edge_attr(e, "dmax", 40.0);
        q.set_node_attr(a, "cpu", 2.0);
        q.set_node_attr(b, "cpu", 2.0);
        let mut h = Network::new(Direction::Undirected);
        let u = h.add_node("u");
        let v = h.add_node("v");
        let w = h.add_node("w");
        for (x, y, d) in [(u, v, 30.0), (v, w, 60.0)] {
            let e = h.add_edge(x, y);
            h.set_edge_attr(e, "avgDelay", d);
        }
        h.set_node_attr(u, "cpu", 4.0);
        h.set_node_attr(v, "cpu", 4.0);
        h.set_node_attr(w, "cpu", 1.0);
        (q, h)
    }

    #[test]
    fn mixed_conjunction_splits_by_context() {
        let (q, h) = nets2();
        let p = Problem::new(
            &q,
            &h,
            "rNode.cpu >= vNode.cpu && rEdge.avgDelay <= vEdge.dmax",
        )
        .unwrap();
        assert!(p.has_node_expr());
        // Node side: u, v pass (cpu 4 ≥ 2), w fails.
        assert_eq!(p.node_ok(NodeId(0), NodeId(0)), Ok(true));
        assert_eq!(p.node_ok(NodeId(0), NodeId(2)), Ok(false));
        // Edge side: (u,v) delay 30 ≤ 40 passes; (v,w) fails.
        assert_eq!(
            p.pair_ok(EdgeId(0), NodeId(0), NodeId(1), NodeId(0), NodeId(1)),
            Ok(true)
        );
        assert_eq!(
            p.pair_ok(EdgeId(0), NodeId(0), NodeId(1), NodeId(1), NodeId(2)),
            Ok(false)
        );
    }

    #[test]
    fn single_conjunct_mixing_contexts_rejected() {
        let (q, h) = nets2();
        let err = Problem::new(&q, &h, "rNode.cpu >= vEdge.dmax").unwrap_err();
        assert!(matches!(err, ProblemError::MixedConjunct(_)));
        // Mixing under || (not a top-level conjunction) is also one
        // conjunct and gets rejected too.
        let err = Problem::new(&q, &h, "rNode.cpu >= 1.0 || rEdge.avgDelay <= 1.0").unwrap_err();
        assert!(matches!(err, ProblemError::MixedConjunct(_)));
    }

    #[test]
    fn pure_constraints_unchanged() {
        let (q, h) = nets2();
        let edge_only = Problem::new(&q, &h, "rEdge.avgDelay <= 40.0").unwrap();
        assert!(!edge_only.has_node_expr());
        let node_only = Problem::new(&q, &h, "rNode.cpu >= 2.0").unwrap();
        assert!(node_only.has_node_expr());
    }
}
