//! Property tests: pretty-print ∘ parse is the identity on ASTs, and the
//! evaluator is total (never panics) on well-typed random expressions.

mod common;

use cexpr::ast::{BinOp, Expr};
use cexpr::{parse, Compiled, EdgeCtx};
use common::{arb_bool_expr, arb_num_expr};
use netgraph::{Direction, Network};
use proptest::prelude::*;

fn fixture() -> (Network, Network) {
    let mut q = Network::new(Direction::Undirected);
    let (a, b) = (q.add_node("a"), q.add_node("b"));
    let e = q.add_edge(a, b);
    q.set_edge_attr(e, "d", 10.0);
    q.set_node_attr(a, "d", 1.0);
    q.set_node_attr(a, "w", 2.0);
    let mut r = Network::new(Direction::Undirected);
    let (u, v) = (r.add_node("u"), r.add_node("v"));
    let f = r.add_edge(u, v);
    r.set_edge_attr(f, "d", 11.0);
    r.set_node_attr(v, "d", 3.0);
    (q, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn print_parse_identity(e in arb_bool_expr()) {
        let printed = e.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|err| panic!("failed to reparse `{printed}`: {err}"));
        prop_assert_eq!(e, reparsed);
    }

    #[test]
    fn eval_is_total_and_deterministic(e in arb_bool_expr()) {
        let (q, r) = fixture();
        let c = Compiled::new(&e, &q, &r);
        let ctx = EdgeCtx {
            q: &q, r: &r,
            v_edge: netgraph::EdgeId(0),
            v_src: netgraph::NodeId(0),
            v_dst: netgraph::NodeId(1),
            r_edge: netgraph::EdgeId(0),
            r_src: netgraph::NodeId(0),
            r_dst: netgraph::NodeId(1),
        };
        // Well-typed by construction: must never be a type error.
        let v1 = c.eval_edge(&ctx).expect("type-correct expression");
        let v2 = c.eval_edge(&ctx).expect("type-correct expression");
        prop_assert_eq!(v1, v2);
    }

    #[test]
    fn numeric_print_parse_identity(e in arb_num_expr()) {
        // Wrap in a comparison so the root is boolean and parseable as a
        // constraint.
        let wrapped = Expr::Binary(BinOp::Le, Box::new(e), Box::new(Expr::Num(0.0)));
        let printed = wrapped.to_string();
        let reparsed = parse(&printed).unwrap();
        prop_assert_eq!(wrapped, reparsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The static lint accepts every expression that is type-correct by
    /// construction — no false positives on the well-typed fragment.
    #[test]
    fn lint_accepts_well_typed(e in arb_bool_expr()) {
        cexpr::check_constraint(&e)
            .unwrap_or_else(|err| panic!("lint rejected well-typed `{e}`: {err}"));
    }

    /// Lint soundness against the evaluator: if the lint passes and the
    /// evaluator raises an error, that error involves attribute typing
    /// (which is undecidable statically) — never a literal-only mismatch.
    #[test]
    fn lint_sound_for_literal_expressions(e in arb_bool_expr()) {
        let (q, r) = fixture();
        if cexpr::check_constraint(&e).is_ok() {
            let c = Compiled::new(&e, &q, &r);
            let ctx = EdgeCtx {
                q: &q, r: &r,
                v_edge: netgraph::EdgeId(0),
                v_src: netgraph::NodeId(0),
                v_dst: netgraph::NodeId(1),
                r_edge: netgraph::EdgeId(0),
                r_src: netgraph::NodeId(0),
                r_dst: netgraph::NodeId(1),
            };
            // arb_bool_expr only produces type-correct expressions whose
            // attributes are numeric in the fixture, so evaluation must
            // succeed outright.
            prop_assert!(c.eval_edge(&ctx).is_ok());
        }
    }
}
