//! Property tests: a constraint bound to a query element evaluates exactly
//! as the unbound constraint does, `Ok` for `Ok` and error for error, on
//! every host element and orientation.

mod common;

use cexpr::ast::{BinOp, Expr, Func, Object, UnOp};
use cexpr::{parse, Compiled, EdgeCtx, EvalError, NodeCtx};
use common::{arb_bool_expr, arb_num_expr};
use netgraph::{Direction, Network};
use proptest::prelude::*;

const OBJECTS: [Object; 8] = [
    Object::VEdge,
    Object::REdge,
    Object::VSource,
    Object::VTarget,
    Object::RSource,
    Object::RTarget,
    Object::VNode,
    Object::RNode,
];

/// Attribute names of the fixtures: `n` numeric where present, `s` a
/// string, `flag` a bool, `mix` a number, a string or absent depending on
/// the element; `qonly` exists in the query schema only, `ronly` in the
/// host schema only, `zz` in neither.
const NAMES: [&str; 7] = ["n", "s", "flag", "mix", "qonly", "ronly", "zz"];

/// Query: triangle a-b-c. Host: four nodes, five edges. Every attribute
/// name takes several types (or none) across the elements of one network.
fn fixture() -> (Network, Network) {
    let mut q = Network::new(Direction::Undirected);
    let qn: Vec<_> = ["a", "b", "c"].iter().map(|n| q.add_node(*n)).collect();
    for (i, (x, y)) in [(0, 1), (1, 2), (0, 2)].into_iter().enumerate() {
        let e = q.add_edge(qn[x], qn[y]);
        q.set_edge_attr(e, "n", i as f64);
        match i {
            0 => q.set_edge_attr(e, "mix", 1.5),
            1 => q.set_edge_attr(e, "mix", "a"),
            _ => {}
        }
        if i != 2 {
            q.set_edge_attr(e, "s", ["a", "b"][i]);
            q.set_edge_attr(e, "qonly", i as f64);
        }
        q.set_edge_attr(e, "flag", i == 1);
    }
    for (i, &v) in qn.iter().enumerate() {
        if i != 1 {
            q.set_node_attr(v, "n", 2.0 * i as f64);
            q.set_node_attr(v, "flag", i == 0);
        }
        q.set_node_attr(v, "s", ["a", "b", "a"][i]);
        match i {
            0 => q.set_node_attr(v, "mix", "b"),
            1 => q.set_node_attr(v, "mix", 3.0),
            _ => {}
        }
    }

    let mut r = Network::new(Direction::Undirected);
    let rn: Vec<_> = ["u", "v", "w", "x"]
        .iter()
        .map(|n| r.add_node(*n))
        .collect();
    let links = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)];
    for (i, (x, y)) in links.into_iter().enumerate() {
        let e = r.add_edge(rn[x], rn[y]);
        if i != 3 {
            r.set_edge_attr(e, "n", i as f64 - 1.0);
        }
        match i % 3 {
            0 => r.set_edge_attr(e, "mix", 0.5 * i as f64),
            1 => r.set_edge_attr(e, "mix", ["a", "b"][i % 2]),
            _ => {}
        }
        r.set_edge_attr(e, "s", ["a", "b", "c"][i % 3]);
        if i % 2 == 0 {
            r.set_edge_attr(e, "flag", i == 0);
            r.set_edge_attr(e, "ronly", i as f64);
        }
    }
    for (i, &v) in rn.iter().enumerate() {
        r.set_node_attr(v, "n", i as f64);
        if i != 2 {
            r.set_node_attr(v, "s", ["a", "b"][i % 2]);
        }
        match i {
            0 => r.set_node_attr(v, "mix", 3.0),
            1 => r.set_node_attr(v, "mix", "a"),
            3 => r.set_node_attr(v, "flag", true),
            _ => {}
        }
    }
    (q, r)
}

/// `object.name` over all eight objects and every fixture name.
fn arb_attr() -> impl Strategy<Value = Expr> {
    (0..OBJECTS.len(), 0..NAMES.len())
        .prop_map(|(o, n)| Expr::Attr(OBJECTS[o], NAMES[n].to_string()))
}

/// An attribute of the host side: `rEdge`, `rSource`, `rTarget`, `rNode`.
fn arb_host_attr() -> impl Strategy<Value = Expr> {
    let host = [
        Object::REdge,
        Object::RSource,
        Object::RTarget,
        Object::RNode,
    ];
    (0..host.len(), 0..NAMES.len())
        .prop_map(move |(o, n)| Expr::Attr(host[o], NAMES[n].to_string()))
}

fn arb_cmp_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// Values of any type, ill-typed combinations included.
fn arb_value() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-2.0f64..4.0).prop_map(|x| Expr::Num(x.round())),
        prop_oneof![Just("a"), Just("b")].prop_map(|s| Expr::Str(s.to_string())),
        any::<bool>().prop_map(Expr::Bool),
        arb_attr(),
        arb_attr(),
        arb_num_expr(),
    ];
    leaf.prop_recursive(2, 16, 2, |inner| {
        prop_oneof![
            inner.clone(),
            inner.clone(),
            (
                prop_oneof![Just(BinOp::Add), Just(BinOp::Mul), Just(BinOp::Div)],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b))),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            inner.clone().prop_map(|e| Expr::Call(Func::Abs, vec![e])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call(Func::Min, vec![a, b])),
        ]
    })
}

/// A host-side guard in front of anything: `host ⋈ number && rest`, the
/// shape whose folded right arm may error only after the guard passes.
fn arb_guarded(rest: BoxedStrategy<Expr>) -> impl Strategy<Value = Expr> {
    (
        arb_host_attr(),
        arb_cmp_op(),
        (-1.0f64..3.0).prop_map(f64::round),
        rest,
        any::<bool>(),
    )
        .prop_map(|(h, op, x, rest, and)| {
            let guard = Expr::Binary(op, Box::new(h), Box::new(Expr::Num(x)));
            let op = if and { BinOp::And } else { BinOp::Or };
            Expr::Binary(op, Box::new(guard), Box::new(rest))
        })
}

/// Random boolean-rooted (mostly) expressions over every leaf kind.
fn arb_constraint() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (arb_value(), arb_cmp_op(), arb_value()).prop_map(|(a, op, b)| Expr::Binary(
            op,
            Box::new(a),
            Box::new(b)
        )),
        (arb_value(), arb_value()).prop_map(|(a, b)| Expr::Call(Func::IsBoundTo, vec![a, b])),
        arb_value().prop_map(|a| Expr::Call(Func::Has, vec![a])),
        any::<bool>().prop_map(Expr::Bool),
        arb_attr(),
        arb_bool_expr(),
    ];
    let tree = leaf.prop_recursive(2, 24, 2, |inner| {
        prop_oneof![
            inner.clone(),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::And,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Or,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
        ]
    });
    prop_oneof![tree.clone(), arb_guarded(tree)].boxed()
}

/// Every bound evaluation of `expr` against the fixture, beside the
/// unbound one: `(bound, unbound)` per query edge and orientation × host
/// edge and orientation, then per query node × host node.
fn pairs(expr: &Expr) -> Vec<(Result<bool, EvalError>, Result<bool, EvalError>)> {
    let (q, r) = fixture();
    let c = Compiled::new(expr, &q, &r);
    let mut out = Vec::new();
    for qe in q.edge_refs() {
        for (a, b) in [(qe.src, qe.dst), (qe.dst, qe.src)] {
            let bound = c.bind_edge(&q, qe.id, a, b);
            for he in r.edge_refs() {
                for (u, v) in [(he.src, he.dst), (he.dst, he.src)] {
                    let ctx = EdgeCtx {
                        q: &q,
                        r: &r,
                        v_edge: qe.id,
                        v_src: a,
                        v_dst: b,
                        r_edge: he.id,
                        r_src: u,
                        r_dst: v,
                    };
                    out.push((bound.eval(&r, he.id, u, v), c.eval_edge(&ctx)));
                }
            }
        }
    }
    for v in q.node_ids() {
        let bound = c.bind_node(&q, v);
        for h in r.node_ids() {
            let ctx = NodeCtx {
                q: &q,
                r: &r,
                v_node: v,
                r_node: h,
            };
            out.push((bound.eval(&r, h), c.eval_node(&ctx)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bound_evaluation_matches_unbound(e in arb_constraint()) {
        for (i, (bound, unbound)) in pairs(&e).into_iter().enumerate() {
            prop_assert_eq!(bound, unbound, "`{}`, pair {}", e, i);
        }
    }
}

/// A query-side error behind a host-side guard is raised exactly where the
/// guard passes: host edges with `n > 1.0` error, the others reject.
#[test]
fn folded_error_waits_for_the_host_guard() {
    let e = parse("rEdge.n > 1.0 && vEdge.s < 2.0").unwrap();
    let results = pairs(&e);
    for (bound, unbound) in &results {
        assert_eq!(bound, unbound, "`{e}`");
    }
    let mismatch = Err(EvalError::TypeMismatch {
        op: "<",
        left: "string",
        right: "num",
    });
    assert!(results.iter().any(|(b, _)| *b == mismatch));
    assert!(results.iter().any(|(b, _)| *b == Ok(false)));
}
