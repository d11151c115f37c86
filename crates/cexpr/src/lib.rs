//! # cexpr — the NETEMBED constraint expression language
//!
//! The paper (§VI-B) specifies a Java-like boolean expression language used
//! to relate query-network elements to hosting-network elements, evaluated
//! for every (virtual edge, real edge) candidate pair. The original
//! implementation generated its lexer and parser with JFlex and CUP; this
//! crate is the from-scratch Rust equivalent:
//!
//! * [`token`] — hand-written lexer;
//! * [`ast`] — expression AST with the Table I objects (`vEdge`, `rEdge`,
//!   `vSource`, `vTarget`, `rSource`, `rTarget`) plus the node-context
//!   extension (`vNode`, `rNode`);
//! * [`parser`] — recursive-descent parser with Java operator precedence;
//! * [`compile`] — schema-resolved compilation, binding to one query
//!   element ([`Compiled::bind_edge`], [`Compiled::bind_node`]: the query
//!   side is folded once, host attribute comparisons become single
//!   leaves, and folding never crosses a short-circuit, so bound and
//!   one-shot evaluations agree error for error), and the one hot-path
//!   evaluator both kinds of call share;
//! * [`value`] — runtime values with `Missing` (absent attribute)
//!   semantics, borrowing their strings so evaluation never clones one;
//! * [`bounds`] — abstract interpretation over aggregated attribute
//!   bounds with a tri-state [`Verdict`], the
//!   soundness layer beneath the multilevel substrate hierarchy.
//!
//! ## Example
//!
//! ```
//! use cexpr::{parse, Compiled, EdgeCtx};
//! use netgraph::{Direction, Network};
//!
//! let mut q = Network::new(Direction::Undirected);
//! let (a, b) = (q.add_node("a"), q.add_node("b"));
//! let qe = q.add_edge(a, b);
//! q.set_edge_attr(qe, "avgDelay", 100.0);
//!
//! let mut r = Network::new(Direction::Undirected);
//! let (u, v) = (r.add_node("u"), r.add_node("v"));
//! let re = r.add_edge(u, v);
//! r.set_edge_attr(re, "avgDelay", 95.0);
//!
//! let expr = parse(
//!     "vEdge.avgDelay >= 0.90*rEdge.avgDelay && vEdge.avgDelay <= 1.10*rEdge.avgDelay",
//! ).unwrap();
//! let compiled = Compiled::new(&expr, &q, &r);
//! let ok = compiled.eval_edge(&EdgeCtx {
//!     q: &q, r: &r,
//!     v_edge: qe, v_src: a, v_dst: b,
//!     r_edge: re, r_src: u, r_dst: v,
//! }).unwrap();
//! assert!(ok);
//! ```

pub mod ast;
pub mod bounds;
pub mod compile;
pub mod parser;
pub mod token;
pub mod types;
pub mod value;

pub use ast::{BinOp, Expr, Func, Object, UnOp};
pub use bounds::{AbsEdgeCtx, AbsNodeCtx, AttrBounds, BoundsMap, Verdict};
pub use compile::{BoundEdge, BoundNode, Compiled, EdgeCtx, NodeCtx};
pub use parser::{parse, ParseError};
pub use types::{check_constraint, infer, Ty, TypeError};
pub use value::{EvalError, Value};

/// Convenience: the constraint that accepts every candidate pair
/// (`true`). Used by under-constrained experiments such as the clique
/// queries with only a delay window.
pub fn always_true() -> Expr {
    Expr::Bool(true)
}
