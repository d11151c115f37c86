//! Compilation of parsed expressions against a (query, host) network pair,
//! binding to one query element, and the evaluator that runs on the
//! embedding search's hot path.
//!
//! Compilation resolves every `object.attr` reference to an interned
//! [`AttrId`] on the owning network's schema — attribute names are hashed
//! once per query, not once per candidate pair. An attribute name that does
//! not exist in the owning schema compiles to a reference that always
//! evaluates to [`Value::Missing`] (the element can never carry it).
//!
//! ## Binding
//!
//! The filter build evaluates one constraint against many host elements
//! for the same query element, so [`Compiled::bind_edge`] and
//! [`Compiled::bind_node`] fix the query side once. Binding folds every
//! subtree that reads no host element — literals, query attributes,
//! attribute names a schema lacks, objects the context does not offer —
//! into the `Result<Value, EvalError>` the evaluator gives it, and turns a
//! strict operator over a host attribute and such a constant
//! (`rEdge.maxDelay <= 80.0`, `rNode.region == "eu"`, either side) into a
//! single leaf: one attribute read and one operator.
//!
//! Folding never crosses a short-circuit. A folded subtree stays a node of
//! the bound tree, raised or read only where the walk reaches it: in
//! `rEdge.d > 1.0 && vEdge.name < 2.0` with `name` a string, the folded
//! type error surfaces for exactly the host edges whose guard passes, as
//! in the unbound walk. A bound evaluation therefore returns what
//! [`Compiled::eval_edge`] / [`Compiled::eval_node`] return for the same
//! elements, error for error.
//!
//! ## The evaluator
//!
//! One tree walker serves bound and one-shot calls alike. Its [`Value`]s
//! borrow strings from the networks and the compiled tree, so an
//! evaluation never touches a reference count. One-shot calls walk the
//! compiled tree and allocate nothing; a binding allocates its folded
//! tree once, which pays when it serves more than a few host elements.

use crate::ast::{BinOp, Expr, Func, Object, UnOp};
use crate::value::{EvalError, Value};
use netgraph::{AttrId, EdgeId, Network, NodeId};
use std::sync::Arc;

/// A compiled constraint expression, bound to one query/host schema pair.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub(crate) root: Node<'static>,
    uses_node_objects: bool,
    uses_edge_objects: bool,
}

/// Resolved expression node. Compilation mirrors [`Expr`] with attribute
/// references resolved to `(Object, Option<AttrId>)`; binding adds folded
/// constants and [`Node::HostOp`] leaves.
#[derive(Debug, Clone)]
pub(crate) enum Node<'a> {
    /// A number or boolean literal, or a subtree a binding folded: the
    /// result it gives for every host element.
    Const(Result<Value<'a>, EvalError>),
    /// A string literal.
    Str(Arc<str>),
    Attr(Object, Option<AttrId>),
    Unary(UnOp, Box<Node<'a>>),
    Binary(BinOp, Box<Node<'a>>, Box<Node<'a>>),
    Call(Func, Vec<Node<'a>>),
    /// Bound leaf: the strict operator `op` over host attribute
    /// `obj.attr` and a folded constant, the attribute on the left when
    /// `host_left`.
    HostOp {
        op: BinOp,
        obj: Object,
        attr: AttrId,
        lit: Value<'a>,
        host_left: bool,
    },
}

/// Evaluation context for edge constraints: one query edge mapped onto one
/// host edge, with an explicit endpoint orientation. For undirected
/// networks the engine evaluates both orientations of the host edge.
#[derive(Debug, Clone, Copy)]
pub struct EdgeCtx<'a> {
    /// Query (virtual) network.
    pub q: &'a Network,
    /// Hosting (real) network.
    pub r: &'a Network,
    /// Query edge.
    pub v_edge: EdgeId,
    /// Query edge source.
    pub v_src: NodeId,
    /// Query edge target.
    pub v_dst: NodeId,
    /// Host edge.
    pub r_edge: EdgeId,
    /// Host node that `v_src` maps to.
    pub r_src: NodeId,
    /// Host node that `v_dst` maps to.
    pub r_dst: NodeId,
}

/// Evaluation context for node constraints (isolated query nodes, or
/// node-only attribute requirements).
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// Query (virtual) network.
    pub q: &'a Network,
    /// Hosting (real) network.
    pub r: &'a Network,
    /// Query node.
    pub v_node: NodeId,
    /// Candidate host node.
    pub r_node: NodeId,
}

/// An edge constraint bound to one query edge by [`Compiled::bind_edge`].
#[derive(Debug, Clone)]
pub struct BoundEdge<'a> {
    q: &'a Network,
    v_edge: EdgeId,
    v_src: NodeId,
    v_dst: NodeId,
    root: Node<'a>,
}

/// A node constraint bound to one query node by [`Compiled::bind_node`].
#[derive(Debug, Clone)]
pub struct BoundNode<'a> {
    q: &'a Network,
    v_node: NodeId,
    root: Node<'a>,
}

impl Compiled {
    /// Compile `expr` against the two networks' schemas.
    pub fn new(expr: &Expr, q: &Network, r: &Network) -> Compiled {
        fn resolve(expr: &Expr, q: &Network, r: &Network) -> Node<'static> {
            match expr {
                Expr::Num(x) => Node::Const(Ok(Value::Num(*x))),
                Expr::Str(s) => Node::Str(Arc::from(s.as_str())),
                Expr::Bool(b) => Node::Const(Ok(Value::Bool(*b))),
                Expr::Attr(o, name) => {
                    let schema = if o.is_virtual() {
                        q.schema()
                    } else {
                        r.schema()
                    };
                    Node::Attr(*o, schema.get(name))
                }
                Expr::Unary(op, e) => Node::Unary(*op, Box::new(resolve(e, q, r))),
                Expr::Binary(op, l, m) => {
                    Node::Binary(*op, Box::new(resolve(l, q, r)), Box::new(resolve(m, q, r)))
                }
                Expr::Call(f, args) => {
                    Node::Call(*f, args.iter().map(|a| resolve(a, q, r)).collect())
                }
            }
        }
        let mut uses_node_objects = false;
        let mut uses_edge_objects = false;
        expr.walk(&mut |e| {
            if let Expr::Attr(o, _) = e {
                match o {
                    Object::VNode | Object::RNode => uses_node_objects = true,
                    _ => uses_edge_objects = true,
                }
            }
        });
        Compiled {
            root: resolve(expr, q, r),
            uses_node_objects,
            uses_edge_objects,
        }
    }

    /// True when the expression references `vNode`/`rNode`.
    pub fn uses_node_objects(&self) -> bool {
        self.uses_node_objects
    }

    /// True when the expression references any of the Table I edge-context
    /// objects (`vEdge`, `rEdge`, `vSource`, …).
    pub fn uses_edge_objects(&self) -> bool {
        self.uses_edge_objects
    }

    /// Evaluate as an edge constraint. `Ok(true)` accepts the candidate
    /// pair; `Ok(false)` rejects it (including `Missing` at the root);
    /// `Err` reports a malformed query (type error or context misuse).
    pub fn eval_edge(&self, ctx: &EdgeCtx<'_>) -> Result<bool, EvalError> {
        let scope = Scope::Edge {
            q: ctx.q,
            v_edge: ctx.v_edge,
            v_src: ctx.v_src,
            v_dst: ctx.v_dst,
            host: Some((ctx.r, ctx.r_edge, ctx.r_src, ctx.r_dst)),
        };
        root_bool(eval(&self.root, &scope)?)
    }

    /// Evaluate as a node constraint.
    pub fn eval_node(&self, ctx: &NodeCtx<'_>) -> Result<bool, EvalError> {
        let scope = Scope::Node {
            q: ctx.q,
            v_node: ctx.v_node,
            host: Some((ctx.r, ctx.r_node)),
        };
        root_bool(eval(&self.root, &scope)?)
    }

    /// Bind the edge constraint to query edge `v_edge` of `q`, mapped
    /// with `v_src` and `v_dst` as its source and target: the query side
    /// is folded once (see the [module docs](self)), and
    /// [`BoundEdge::eval`] then gives what [`Compiled::eval_edge`] gives
    /// for the same elements.
    pub fn bind_edge<'a>(
        &'a self,
        q: &'a Network,
        v_edge: EdgeId,
        v_src: NodeId,
        v_dst: NodeId,
    ) -> BoundEdge<'a> {
        let scope = Scope::Edge {
            q,
            v_edge,
            v_src,
            v_dst,
            host: None,
        };
        BoundEdge {
            q,
            v_edge,
            v_src,
            v_dst,
            root: bind(&self.root, &scope),
        }
    }

    /// Bind the node constraint to query node `v_node` of `q`; see
    /// [`Compiled::bind_edge`].
    pub fn bind_node<'a>(&'a self, q: &'a Network, v_node: NodeId) -> BoundNode<'a> {
        let scope = Scope::Node {
            q,
            v_node,
            host: None,
        };
        BoundNode {
            q,
            v_node,
            root: bind(&self.root, &scope),
        }
    }
}

impl BoundEdge<'_> {
    /// [`Compiled::eval_edge`] for the bound query edge mapped onto host
    /// edge `r_edge` of `r`, its source onto `r_src` and its target onto
    /// `r_dst`.
    pub fn eval(
        &self,
        r: &Network,
        r_edge: EdgeId,
        r_src: NodeId,
        r_dst: NodeId,
    ) -> Result<bool, EvalError> {
        let scope = Scope::Edge {
            q: self.q,
            v_edge: self.v_edge,
            v_src: self.v_src,
            v_dst: self.v_dst,
            host: Some((r, r_edge, r_src, r_dst)),
        };
        root_bool(eval(&self.root, &scope)?)
    }
}

impl BoundNode<'_> {
    /// [`Compiled::eval_node`] for the bound query node mapped onto host
    /// node `r_node` of `r`.
    pub fn eval(&self, r: &Network, r_node: NodeId) -> Result<bool, EvalError> {
        let scope = Scope::Node {
            q: self.q,
            v_node: self.v_node,
            host: Some((r, r_node)),
        };
        root_bool(eval(&self.root, &scope)?)
    }
}

fn root_bool(v: Value<'_>) -> Result<bool, EvalError> {
    match v {
        Value::Bool(b) => Ok(b),
        Value::Missing => Ok(false),
        other => Err(EvalError::TypeMismatch {
            op: "constraint root",
            left: other.type_name(),
            right: "",
        }),
    }
}

/// The elements one walk reads: a query edge and the host edge it maps
/// onto, or a query node and a host node. The host side is `None` only
/// while a binding folds subtrees that read no host element.
enum Scope<'v> {
    Edge {
        q: &'v Network,
        v_edge: EdgeId,
        v_src: NodeId,
        v_dst: NodeId,
        /// Host network, edge, and the nodes `v_src` and `v_dst` map to.
        host: Option<(&'v Network, EdgeId, NodeId, NodeId)>,
    },
    Node {
        q: &'v Network,
        v_node: NodeId,
        host: Option<(&'v Network, NodeId)>,
    },
}

impl Scope<'_> {
    /// Whether `obj` names a host element of this context.
    fn is_host(&self, obj: Object) -> bool {
        match self {
            Scope::Edge { .. } => matches!(obj, Object::REdge | Object::RSource | Object::RTarget),
            Scope::Node { .. } => obj == Object::RNode,
        }
    }

    /// Whether evaluating `node` reads a host element.
    fn reads_host(&self, node: &Node<'_>) -> bool {
        match node {
            Node::Attr(obj, Some(_)) => self.is_host(*obj),
            Node::Attr(_, None) | Node::Const(_) | Node::Str(_) => false,
            Node::Unary(_, e) => self.reads_host(e),
            Node::Binary(_, l, r) => self.reads_host(l) || self.reads_host(r),
            Node::Call(_, args) => args.iter().any(|a| self.reads_host(a)),
            Node::HostOp { .. } => true,
        }
    }
}

/// The bound form of `node` over the query side of `scope` (whose host
/// side is `None`): every subtree that reads no host element becomes the
/// constant the evaluator gives it, and a strict operator over a host
/// attribute and an `Ok` constant becomes a [`Node::HostOp`] leaf.
fn bind<'a>(node: &'a Node<'a>, scope: &Scope<'a>) -> Node<'a> {
    if !scope.reads_host(node) {
        return Node::Const(eval(node, scope));
    }
    match node {
        Node::Unary(op, e) => Node::Unary(*op, Box::new(bind(e, scope))),
        Node::Binary(op, l, r) => {
            let (l, r) = (bind(l, scope), bind(r, scope));
            let strict = !matches!(op, BinOp::And | BinOp::Or);
            match (&l, &r) {
                (Node::Attr(obj, Some(attr)), Node::Const(Ok(lit))) if strict => Node::HostOp {
                    op: *op,
                    obj: *obj,
                    attr: *attr,
                    lit: *lit,
                    host_left: true,
                },
                (Node::Const(Ok(lit)), Node::Attr(obj, Some(attr))) if strict => Node::HostOp {
                    op: *op,
                    obj: *obj,
                    attr: *attr,
                    lit: *lit,
                    host_left: false,
                },
                _ => Node::Binary(*op, Box::new(l), Box::new(r)),
            }
        }
        Node::Call(f, args) => Node::Call(*f, args.iter().map(|a| bind(a, scope)).collect()),
        // A host attribute, or a leaf already bound.
        leaf => leaf.clone(),
    }
}

fn load<'v>(scope: &Scope<'v>, obj: Object, attr: Option<AttrId>) -> Result<Value<'v>, EvalError> {
    let Some(attr) = attr else {
        return Ok(Value::Missing);
    };
    if scope.is_host(obj) {
        return Ok(load_host(scope, obj, attr));
    }
    let raw = match (scope, obj) {
        (Scope::Edge { q, v_edge, .. }, Object::VEdge) => q.edge_attr(*v_edge, attr),
        (Scope::Edge { q, v_src, .. }, Object::VSource) => q.node_attr(*v_src, attr),
        (Scope::Edge { q, v_dst, .. }, Object::VTarget) => q.node_attr(*v_dst, attr),
        (Scope::Node { q, v_node, .. }, Object::VNode) => q.node_attr(*v_node, attr),
        // The node objects are meaningless when matching an edge, and
        // the edge-context objects when matching a lone node.
        _ => return Err(EvalError::ObjectUnavailable(obj)),
    };
    Ok(Value::of(raw))
}

/// `obj.attr` for a host object of the scope's context.
#[inline(always)]
fn load_host<'v>(scope: &Scope<'v>, obj: Object, attr: AttrId) -> Value<'v> {
    let raw = match (scope, obj) {
        (Scope::Edge { host: Some(h), .. }, Object::REdge) => h.0.edge_attr(h.1, attr),
        (Scope::Edge { host: Some(h), .. }, Object::RSource) => h.0.node_attr(h.2, attr),
        (Scope::Edge { host: Some(h), .. }, Object::RTarget) => h.0.node_attr(h.3, attr),
        (Scope::Node { host: Some(h), .. }, Object::RNode) => h.0.node_attr(h.1, attr),
        _ => unreachable!("host reads happen in their own context, never while folding"),
    };
    Value::of(raw)
}

/// The evaluator. Leaves a binding produces — constants and host
/// operators — evaluate inline at the call site; inner nodes recurse
/// through [`eval_inner`].
#[inline(always)]
fn eval<'v>(node: &'v Node<'v>, scope: &Scope<'v>) -> Result<Value<'v>, EvalError> {
    match node {
        Node::Const(v) => *v,
        Node::HostOp {
            op,
            obj,
            attr,
            lit,
            host_left,
        } => {
            let h = load_host(scope, *obj, *attr);
            if *host_left {
                strict(*op, h, *lit)
            } else {
                strict(*op, *lit, h)
            }
        }
        _ => eval_inner(node, scope),
    }
}

fn eval_inner<'v>(node: &'v Node<'v>, scope: &Scope<'v>) -> Result<Value<'v>, EvalError> {
    match node {
        Node::Str(s) => Ok(Value::Str(s)),
        Node::Attr(o, a) => load(scope, *o, *a),
        Node::Unary(op, e) => eval_unary(*op, e, scope),
        Node::Binary(op, l, r) => eval_binary(*op, l, r, scope),
        Node::Call(f, args) => eval_call(*f, args, scope),
        Node::Const(_) | Node::HostOp { .. } => eval(node, scope),
    }
}

fn eval_unary<'v>(op: UnOp, e: &'v Node<'v>, scope: &Scope<'v>) -> Result<Value<'v>, EvalError> {
    let v = eval(e, scope)?;
    match (op, v) {
        (_, Value::Missing) => Ok(Value::Missing),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Neg, Value::Num(x)) => Ok(Value::Num(-x)),
        (UnOp::Not, v) => Err(EvalError::TypeMismatch {
            op: "!",
            left: v.type_name(),
            right: "",
        }),
        (UnOp::Neg, v) => Err(EvalError::TypeMismatch {
            op: "-",
            left: v.type_name(),
            right: "",
        }),
    }
}

fn eval_binary<'v>(
    op: BinOp,
    l: &'v Node<'v>,
    r: &'v Node<'v>,
    scope: &Scope<'v>,
) -> Result<Value<'v>, EvalError> {
    // Kleene logic with short-circuiting for && and ||.
    match op {
        BinOp::And => {
            let lv = eval(l, scope)?;
            match lv {
                Value::Bool(false) => return Ok(Value::Bool(false)),
                Value::Bool(true) | Value::Missing => {}
                other => {
                    return Err(EvalError::TypeMismatch {
                        op: "&&",
                        left: other.type_name(),
                        right: "",
                    })
                }
            }
            let rv = eval(r, scope)?;
            match (lv, rv) {
                (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                (Value::Missing, _) | (_, Value::Missing) => Ok(Value::Missing),
                (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                (_, other) => Err(EvalError::TypeMismatch {
                    op: "&&",
                    left: "bool",
                    right: other.type_name(),
                }),
            }
        }
        BinOp::Or => {
            let lv = eval(l, scope)?;
            match lv {
                Value::Bool(true) => return Ok(Value::Bool(true)),
                Value::Bool(false) | Value::Missing => {}
                other => {
                    return Err(EvalError::TypeMismatch {
                        op: "||",
                        left: other.type_name(),
                        right: "",
                    })
                }
            }
            let rv = eval(r, scope)?;
            match (lv, rv) {
                (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                (Value::Missing, _) | (_, Value::Missing) => Ok(Value::Missing),
                (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                (_, other) => Err(EvalError::TypeMismatch {
                    op: "||",
                    left: "bool",
                    right: other.type_name(),
                }),
            }
        }
        _ => {
            let lv = eval(l, scope)?;
            let rv = eval(r, scope)?;
            strict(op, lv, rv)
        }
    }
}

/// A strict (non-short-circuit) binary operator over evaluated operands:
/// `Missing` when either is, else the operator's value or a type
/// mismatch.
#[inline(always)]
fn strict<'v>(op: BinOp, lv: Value<'v>, rv: Value<'v>) -> Result<Value<'v>, EvalError> {
    if lv.is_missing() || rv.is_missing() {
        return Ok(Value::Missing);
    }
    let mismatch = || EvalError::TypeMismatch {
        op: op.symbol(),
        left: lv.type_name(),
        right: rv.type_name(),
    };
    match op {
        BinOp::Eq | BinOp::Ne => {
            let eq = match (lv, rv) {
                (Value::Num(a), Value::Num(b)) => a == b,
                (Value::Bool(a), Value::Bool(b)) => a == b,
                (Value::Str(a), Value::Str(b)) => a == b,
                _ => return Err(mismatch()),
            };
            Ok(Value::Bool(if op == BinOp::Eq { eq } else { !eq }))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match (lv, rv) {
            (Value::Num(a), Value::Num(b)) => Ok(Value::Bool(match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            })),
            _ => Err(mismatch()),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => match (lv, rv) {
            (Value::Num(a), Value::Num(b)) => Ok(Value::Num(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                // Division by zero follows IEEE 754 (±inf / NaN), exactly
                // as Java doubles behave in the original implementation.
                BinOp::Div => a / b,
                BinOp::Rem => a % b,
                _ => unreachable!(),
            })),
            _ => Err(mismatch()),
        },
        BinOp::And | BinOp::Or => unreachable!("short-circuit operators are walked by eval_binary"),
    }
}

fn eval_call<'v>(f: Func, args: &'v [Node<'v>], scope: &Scope<'v>) -> Result<Value<'v>, EvalError> {
    match f {
        Func::IsBoundTo => {
            // isBoundTo(v, r): vacuously true when the first (query-side)
            // value is absent; false when present but the host-side value
            // is absent; equality otherwise (§VI-B).
            let a = eval(&args[0], scope)?;
            if a.is_missing() {
                return Ok(Value::Bool(true));
            }
            let b = eval(&args[1], scope)?;
            if b.is_missing() {
                return Ok(Value::Bool(false));
            }
            let eq = match (a, b) {
                (Value::Num(x), Value::Num(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => {
                    return Err(EvalError::TypeMismatch {
                        op: "isBoundTo",
                        left: a.type_name(),
                        right: b.type_name(),
                    })
                }
            };
            Ok(Value::Bool(eq))
        }
        Func::Has => {
            let a = eval(&args[0], scope)?;
            Ok(Value::Bool(!a.is_missing()))
        }
        Func::Abs | Func::Sqrt => {
            let a = eval(&args[0], scope)?;
            match a {
                Value::Missing => Ok(Value::Missing),
                Value::Num(x) => Ok(Value::Num(if f == Func::Abs {
                    x.abs()
                } else {
                    // Negative input yields NaN, like Java's Math.sqrt;
                    // NaN comparisons are false, so the pair is rejected.
                    x.sqrt()
                })),
                other => Err(EvalError::TypeMismatch {
                    op: f.name(),
                    left: other.type_name(),
                    right: "",
                }),
            }
        }
        Func::Min | Func::Max => {
            let a = eval(&args[0], scope)?;
            let b = eval(&args[1], scope)?;
            match (a, b) {
                (Value::Missing, _) | (_, Value::Missing) => Ok(Value::Missing),
                (Value::Num(x), Value::Num(y)) => {
                    Ok(Value::Num(if f == Func::Min { x.min(y) } else { x.max(y) }))
                }
                _ => Err(EvalError::TypeMismatch {
                    op: f.name(),
                    left: a.type_name(),
                    right: b.type_name(),
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use netgraph::Direction;

    /// Two-node, one-edge query and host fixtures.
    fn fixtures() -> (Network, Network) {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("qa");
        let b = q.add_node("qb");
        let e = q.add_edge(a, b);
        q.set_edge_attr(e, "avgDelay", 100.0);
        q.set_node_attr(a, "osType", "linux");
        q.set_node_attr(a, "x", 0.0);
        q.set_node_attr(a, "y", 0.0);
        q.set_node_attr(b, "x", 30.0);
        q.set_node_attr(b, "y", 40.0);

        let mut r = Network::new(Direction::Undirected);
        let u = r.add_node("ru");
        let v = r.add_node("rv");
        let f = r.add_edge(u, v);
        r.set_edge_attr(f, "avgDelay", 95.0);
        r.set_edge_attr(f, "minDelay", 80.0);
        r.set_edge_attr(f, "maxDelay", 120.0);
        r.set_node_attr(u, "osType", "linux");
        r.set_node_attr(v, "osType", "freebsd");
        (q, r)
    }

    fn edge_ctx<'a>(q: &'a Network, r: &'a Network) -> EdgeCtx<'a> {
        EdgeCtx {
            q,
            r,
            v_edge: EdgeId(0),
            v_src: NodeId(0),
            v_dst: NodeId(1),
            r_edge: EdgeId(0),
            r_src: NodeId(0),
            r_dst: NodeId(1),
        }
    }

    fn eval_edge_expr(src: &str, q: &Network, r: &Network) -> Result<bool, EvalError> {
        let e = parse(src).unwrap();
        Compiled::new(&e, q, r).eval_edge(&edge_ctx(q, r))
    }

    #[test]
    fn paper_delay_window_matches() {
        let (q, r) = fixtures();
        // 100 ∈ [0.9·95, 1.1·95] = [85.5, 104.5] → true
        assert_eq!(
            eval_edge_expr(
                "vEdge.avgDelay>=0.90*rEdge.avgDelay && vEdge.avgDelay<=1.10*rEdge.avgDelay",
                &q,
                &r
            ),
            Ok(true)
        );
    }

    #[test]
    fn paper_min_max_window() {
        let (q, r) = fixtures();
        assert_eq!(
            eval_edge_expr(
                "vEdge.avgDelay>=rEdge.minDelay && vEdge.avgDelay<=rEdge.maxDelay",
                &q,
                &r
            ),
            Ok(true)
        );
        assert_eq!(
            eval_edge_expr("vEdge.avgDelay>=rEdge.maxDelay", &q, &r),
            Ok(false)
        );
    }

    #[test]
    fn paper_is_bound_to_os_type() {
        let (q, r) = fixtures();
        // qa has osType=linux; ru has linux → true in this orientation.
        assert_eq!(
            eval_edge_expr("isBoundTo(vSource.osType, rSource.osType)", &q, &r),
            Ok(true)
        );
        // qb has no osType → vacuously true.
        assert_eq!(
            eval_edge_expr("isBoundTo(vTarget.osType, rTarget.osType)", &q, &r),
            Ok(true)
        );
        // Force mismatch: qa=linux vs rTarget=freebsd.
        assert_eq!(
            eval_edge_expr("isBoundTo(vSource.osType, rTarget.osType)", &q, &r),
            Ok(false)
        );
    }

    #[test]
    fn is_bound_to_missing_host_side() {
        let (q, r) = fixtures();
        // Query side present, host side attribute name unknown → false.
        assert_eq!(
            eval_edge_expr("isBoundTo(vSource.osType, rSource.nonexistent)", &q, &r),
            Ok(false)
        );
    }

    #[test]
    fn paper_geo_distance() {
        let (q, r) = fixtures();
        // Distance between (0,0) and (30,40) is 50 < 100.
        assert_eq!(
            eval_edge_expr(
                "sqrt( (vSource.x-vTarget.x)*(vSource.x-vTarget.x) + \
                 (vSource.y-vTarget.y)*(vSource.y-vTarget.y) ) < 100.0",
                &q,
                &r
            ),
            Ok(true)
        );
    }

    #[test]
    fn missing_attr_rejects_candidate() {
        let (q, r) = fixtures();
        assert_eq!(eval_edge_expr("vEdge.bandwidth > 10", &q, &r), Ok(false));
        // But disjunction with a true arm still matches (Kleene).
        assert_eq!(
            eval_edge_expr("vEdge.bandwidth > 10 || true", &q, &r),
            Ok(true)
        );
        // Conjunction with false short-circuits to false, not missing.
        assert_eq!(
            eval_edge_expr("false && vEdge.bandwidth > 10", &q, &r),
            Ok(false)
        );
    }

    #[test]
    fn has_function() {
        let (q, r) = fixtures();
        assert_eq!(eval_edge_expr("has(vEdge.avgDelay)", &q, &r), Ok(true));
        assert_eq!(eval_edge_expr("has(vEdge.bandwidth)", &q, &r), Ok(false));
        assert_eq!(
            eval_edge_expr("!has(vEdge.bandwidth) || vEdge.bandwidth > 5", &q, &r),
            Ok(true)
        );
    }

    #[test]
    fn arithmetic_and_functions() {
        let (q, r) = fixtures();
        assert_eq!(
            eval_edge_expr("abs(vEdge.avgDelay - rEdge.avgDelay) <= 5.0", &q, &r),
            Ok(true)
        );
        assert_eq!(
            eval_edge_expr("min(vEdge.avgDelay, rEdge.avgDelay) == 95.0", &q, &r),
            Ok(true)
        );
        assert_eq!(
            eval_edge_expr("max(vEdge.avgDelay, rEdge.avgDelay) == 100.0", &q, &r),
            Ok(true)
        );
        assert_eq!(eval_edge_expr("10.0 % 3.0 == 1.0", &q, &r), Ok(true));
    }

    #[test]
    fn type_errors_are_reported() {
        let (q, r) = fixtures();
        assert!(eval_edge_expr("vSource.osType > 3", &q, &r).is_err());
        assert!(eval_edge_expr("1 + true == 2", &q, &r).is_err());
        assert!(eval_edge_expr("!5 == true", &q, &r).is_err());
        assert!(eval_edge_expr("vEdge.avgDelay", &q, &r).is_err()); // root not bool
        assert!(eval_edge_expr("\"a\" == 1", &q, &r).is_err());
    }

    #[test]
    fn node_context_eval() {
        let (q, r) = fixtures();
        let e = parse("isBoundTo(vNode.osType, rNode.osType)").unwrap();
        let c = Compiled::new(&e, &q, &r);
        assert!(c.uses_node_objects());
        let ctx = NodeCtx {
            q: &q,
            r: &r,
            v_node: NodeId(0), // linux
            r_node: NodeId(0), // linux
        };
        assert_eq!(c.eval_node(&ctx), Ok(true));
        let ctx2 = NodeCtx {
            q: &q,
            r: &r,
            v_node: NodeId(0),
            r_node: NodeId(1), // freebsd
        };
        assert_eq!(c.eval_node(&ctx2), Ok(false));
    }

    #[test]
    fn context_misuse_is_an_error() {
        let (q, r) = fixtures();
        // Edge object in node context.
        let e = parse("vEdge.avgDelay > 0").unwrap();
        let c = Compiled::new(&e, &q, &r);
        let ctx = NodeCtx {
            q: &q,
            r: &r,
            v_node: NodeId(0),
            r_node: NodeId(0),
        };
        assert!(matches!(
            c.eval_node(&ctx),
            Err(EvalError::ObjectUnavailable(Object::VEdge))
        ));
        // Node object in edge context.
        let e = parse("vNode.x > 0").unwrap();
        let c = Compiled::new(&e, &q, &r);
        assert!(matches!(
            c.eval_edge(&edge_ctx(&q, &r)),
            Err(EvalError::ObjectUnavailable(Object::VNode))
        ));
    }

    #[test]
    fn division_by_zero_is_ieee() {
        let (q, r) = fixtures();
        assert_eq!(eval_edge_expr("1.0 / 0.0 > 100.0", &q, &r), Ok(true));
        // 0/0 = NaN, NaN > x is false.
        assert_eq!(eval_edge_expr("0.0 / 0.0 > 100.0", &q, &r), Ok(false));
    }

    #[test]
    fn sqrt_of_negative_rejects() {
        let (q, r) = fixtures();
        assert_eq!(eval_edge_expr("sqrt(0.0 - 4.0) >= 0.0", &q, &r), Ok(false));
    }

    #[test]
    fn unknown_attr_name_compiles_to_missing() {
        let (q, r) = fixtures();
        let e = parse("vEdge.neverDeclared == 1").unwrap();
        let c = Compiled::new(&e, &q, &r);
        assert_eq!(c.eval_edge(&edge_ctx(&q, &r)), Ok(false));
    }
}
