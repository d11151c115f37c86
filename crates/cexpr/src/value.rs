//! Runtime values and evaluation errors for constraint expressions.

use crate::ast::Object;
use netgraph::AttrValue;
use std::fmt;

/// Runtime value of a (sub)expression.
///
/// `Missing` represents an attribute reference whose attribute is not
/// present on the element under consideration. It propagates through strict
/// operators with Kleene three-valued semantics for `&&`/`||`/`!`
/// (`false && missing == false`, `true || missing == true`), and a
/// top-level `Missing` result means *no match*. The `isBoundTo` and `has`
/// built-ins observe missingness directly — that is what gives
/// `isBoundTo(vSource.osType, rSource.osType)` the paper's semantics of
/// constraining only those query nodes that carry the attribute.
///
/// Strings are borrowed from the networks or the compiled expression, so
/// a value is `Copy` and evaluating never touches a reference count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Numeric value.
    Num(f64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(&'a str),
    /// Absent attribute.
    Missing,
}

impl<'a> Value<'a> {
    /// The value of a stored attribute, `Missing` when it is absent.
    #[inline]
    pub(crate) fn of(attr: Option<&'a AttrValue>) -> Value<'a> {
        match attr {
            Some(AttrValue::Num(x)) => Value::Num(*x),
            Some(AttrValue::Bool(b)) => Value::Bool(*b),
            Some(AttrValue::Str(s)) => Value::Str(s),
            None => Value::Missing,
        }
    }

    /// Type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "num",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Missing => "missing",
        }
    }

    /// True if this is [`Value::Missing`].
    #[inline]
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Missing => write!(f, "<missing>"),
        }
    }
}

/// Evaluation error. The embedding engine surfaces type errors to the user
/// (they indicate a malformed query) while `Missing` results merely reject
/// the candidate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalError {
    /// Operator applied to operands of the wrong type.
    TypeMismatch {
        /// Operation or function name.
        op: &'static str,
        /// Left/first operand type.
        left: &'static str,
        /// Right/second operand type (`""` for unary).
        right: &'static str,
    },
    /// An attribute reference used an object that is not available in the
    /// current context (e.g. `vEdge` inside a node constraint).
    ObjectUnavailable(Object),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch { op, left, right } => {
                if right.is_empty() {
                    write!(f, "type error: `{op}` applied to {left}")
                } else {
                    write!(f, "type error: `{op}` applied to {left} and {right}")
                }
            }
            EvalError::ObjectUnavailable(o) => {
                write!(f, "object `{}` is not available in this context", o.name())
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_types() {
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Str("x").to_string(), "\"x\"");
        assert_eq!(Value::Missing.to_string(), "<missing>");
        assert!(Value::Missing.is_missing());
        assert_eq!(Value::Num(0.0).type_name(), "num");
    }
}
