//! Graphviz DOT export for dependence graphs (debugging aid).

use std::fmt::Write as _;

use crate::{DepKind, LoopBody};

/// Renders the body's dependence graph in Graphviz DOT syntax.
///
/// Flow arcs are solid, anti arcs dashed, output arcs dotted; arcs with
/// ω > 0 are labelled with their distance. Feed the output to `dot -Tsvg`.
///
/// # Example
///
/// ```
/// use lsms_ir::{LoopBuilder, OpKind, ValueType, to_dot};
///
/// let mut b = LoopBuilder::new("g");
/// let x = b.new_value(ValueType::Float);
/// let o = b.op(OpKind::FAdd, &[x, x], Some(x));
/// b.flow_dep(o, o, 1);
/// let dot = to_dot(&b.finish());
/// assert!(dot.contains("digraph"));
/// ```
pub fn to_dot(body: &LoopBody) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", body.name());
    let _ = writeln!(s, "  node [shape=box, fontname=\"monospace\"];");
    for op in body.ops() {
        let result = op
            .result
            .map(|r| format!("{} = ", body.value(r).name))
            .unwrap_or_default();
        let guard = op
            .predicate
            .map(|p| format!(" if {}", body.value(p).name))
            .unwrap_or_default();
        let args: Vec<String> = op
            .inputs
            .iter()
            .map(|&v| body.value(v).name.to_string())
            .collect();
        let _ = writeln!(
            s,
            "  {} [label=\"{}: {}{} {}{}\"];",
            op.id.index(),
            op.id,
            result,
            op.kind,
            args.join(", "),
            guard
        );
    }
    for dep in body.deps() {
        let style = match dep.kind {
            DepKind::Flow => "solid",
            DepKind::Anti => "dashed",
            DepKind::Output => "dotted",
        };
        let label = if dep.omega > 0 {
            format!(", label=\"ω={}\"", dep.omega)
        } else {
            String::new()
        };
        let _ = writeln!(
            s,
            "  {} -> {} [style={}{}];",
            dep.from.index(),
            dep.to.index(),
            style,
            label
        );
    }
    s.push_str("}\n");
    s
}

/// Renders the body as a flat textual listing: one operation per line with
/// named operands and their iteration distances — the compact companion to
/// [`to_dot`].
///
/// # Example
///
/// ```
/// use lsms_ir::{LoopBuilder, OpKind, ValueType, to_listing};
///
/// let mut b = LoopBuilder::new("l");
/// let x = b.named_value(ValueType::Float, "x");
/// b.op_with_omegas(OpKind::FAdd, &[(x, 1), (x, 2)], Some(x), None);
/// let text = to_listing(&b.finish());
/// assert!(text.contains("x = fadd x@1, x@2"));
/// ```
pub fn to_listing(body: &LoopBody) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "loop {} ({} ops):", body.name(), body.num_ops());
    for op in body.ops() {
        let result = op
            .result
            .map(|r| format!("{} = ", body.value(r).name))
            .unwrap_or_default();
        let args: Vec<String> = op
            .inputs
            .iter()
            .zip(&op.input_omegas)
            .map(|(&v, &w)| {
                let name = &body.value(v).name;
                if w == 0 {
                    name.to_string()
                } else {
                    format!("{name}@{w}")
                }
            })
            .collect();
        let guard = op
            .predicate
            .map(|p| format!(" if {}", body.value(p).name))
            .unwrap_or_default();
        let _ = writeln!(
            s,
            "  {}: {}{} {}{}",
            op.id,
            result,
            op.kind,
            args.join(", "),
            guard
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DepVia, LoopBuilder, OpKind, ValueType};

    #[test]
    fn listing_shows_omegas_and_guards() {
        let mut b = LoopBuilder::new("l");
        let p = b.named_value(ValueType::Pred, "p");
        let f = b.invariant(ValueType::Float, "c");
        let x = b.named_value(ValueType::Float, "x");
        b.op(OpKind::CmpLt, &[f, f], Some(p));
        b.op_with_omegas(OpKind::FAdd, &[(x, 1), (f, 0)], Some(x), Some(p));
        let text = to_listing(&b.finish());
        assert!(text.contains("x = fadd x@1, c if p"), "{text}");
        assert!(text.contains("p = cmplt c, c"), "{text}");
    }

    #[test]
    fn dot_mentions_every_op_and_arc() {
        let mut b = LoopBuilder::new("sample");
        let x = b.named_value(ValueType::Float, "x");
        let y = b.named_value(ValueType::Float, "y");
        let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
        let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
        b.flow_dep(o1, o2, 0);
        b.dep(o2, o1, DepKind::Anti, DepVia::Memory, 2);
        let dot = to_dot(&b.finish());
        assert!(dot.contains("x = fadd"));
        assert!(dot.contains("y = fmul"));
        assert!(dot.contains("style=dashed, label=\"ω=2\""));
        assert!(dot.contains("0 -> 1 [style=solid]"));
    }
}
