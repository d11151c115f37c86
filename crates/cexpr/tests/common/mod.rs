//! Expression generators shared by the property tests of this crate.

use cexpr::ast::{BinOp, Expr, Func, Object, UnOp};
use proptest::prelude::*;

/// Random *numeric* expressions (type-correct by construction).
pub fn arb_num_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0.0f64..1e6).prop_map(Expr::Num),
        prop_oneof![
            Just(Object::VEdge),
            Just(Object::REdge),
            Just(Object::VSource),
            Just(Object::RTarget)
        ]
        .prop_flat_map(|o| {
            prop_oneof![Just("d"), Just("w"), Just("zz")]
                .prop_map(move |a| Expr::Attr(o, a.to_string()))
        }),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div)
                ],
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

/// Random *boolean* expressions over numeric leaves.
pub fn arb_bool_expr() -> impl Strategy<Value = Expr> {
    let cmp = (
        arb_num_expr(),
        prop_oneof![
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Eq),
            Just(BinOp::Ne)
        ],
        arb_num_expr(),
    )
        .prop_map(|(a, op, b)| Expr::Binary(op, Box::new(a), Box::new(b)));
    let leaf = prop_oneof![any::<bool>().prop_map(Expr::Bool), cmp];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
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
    })
}
