//! SVG rendering of schedules: a Gantt chart of one iteration plus the
//! lifetime bars of Figure 3 — handy for documentation and for eyeballing
//! what the bidirectional heuristic does to lifetimes.

use std::fmt::Write as _;

use lsms_ir::RegClass;

use crate::pressure::lifetimes;
use crate::{SchedProblem, Schedule};

const CELL_W: i64 = 14;
const ROW_H: i64 = 18;
const LEFT: i64 = 120;
const TOP: i64 = 30;

/// Fill colours per functional-unit class index (cycled).
const PALETTE: [&str; 6] = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2",
];

fn rect(out: &mut String, x: i64, y: i64, w: i64, h: i64, fill: &str, title: &str) {
    let _ = write!(
        out,
        r##"<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}" stroke="#333" stroke-width="0.5"><title>{title}</title></rect>"##
    );
}

fn label(out: &mut String, x: i64, y: i64, text: &str) {
    let _ = write!(
        out,
        r##"<text x="{x}" y="{y}" font-family="monospace" font-size="11" fill="#222">{text}</text>"##
    );
}

/// Renders one iteration's issue schedule (top) and the RR-value lifetimes
/// (bottom) as a standalone SVG document. Vertical gridlines mark kernel
/// (II) boundaries, so values spilling across them are exactly the ones
/// that need rotating registers.
pub fn to_svg(problem: &SchedProblem<'_>, schedule: &Schedule) -> String {
    to_svg_impl(problem, schedule, None)
}

/// As [`to_svg`], with the producing backend's name in the header label so
/// charts from different registered backends are distinguishable.
pub fn to_svg_for_backend(
    problem: &SchedProblem<'_>,
    schedule: &Schedule,
    backend: &dyn crate::ModuloScheduler,
) -> String {
    to_svg_impl(problem, schedule, Some(backend.name()))
}

fn to_svg_impl(problem: &SchedProblem<'_>, schedule: &Schedule, backend: Option<&str>) -> String {
    let body = problem.body();
    let machine = problem.machine();
    let length = schedule.length().max(1);
    let lt = lifetimes(problem, schedule);

    let live: Vec<_> = body
        .values()
        .iter()
        .filter(|v| v.reg_class() == RegClass::Rr)
        .filter(|v| v.def.is_some() && lt[v.id.index()].unwrap_or(0) > 0)
        .collect();
    let rows = body.num_ops() as i64 + live.len() as i64 + 3;
    let width = LEFT + length * CELL_W + 40;
    let height = TOP + rows * ROW_H + 40;

    let mut out = String::new();
    let _ = write!(
        out,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">"##
    );
    rect(&mut out, 0, 0, width, height, "#ffffff", "");
    label(
        &mut out,
        LEFT,
        TOP - 12,
        &format!(
            "loop {} — II {} ({} stages), MaxLive {}{}",
            body.name(),
            schedule.ii,
            schedule.stages(),
            crate::pressure::measure(problem, schedule).rr_max_live,
            backend.map(|b| format!(" — {b}")).unwrap_or_default(),
        ),
    );

    // Kernel boundary gridlines.
    let mut t = 0;
    while t <= length {
        let x = LEFT + t * CELL_W;
        let _ = write!(
            out,
            r##"<line x1="{x}" y1="{TOP}" x2="{x}" y2="{}" stroke="#bbb" stroke-dasharray="3,3"/>"##,
            TOP + rows * ROW_H
        );
        label(&mut out, x - 3, TOP + rows * ROW_H + 14, &t.to_string());
        t += i64::from(schedule.ii);
    }

    // Operation issue marks (one cell at issue, a lighter tail for the
    // latency).
    let mut y = TOP;
    for op in body.ops() {
        let t = schedule.times[op.id.index()];
        let desc = machine.desc(op.kind);
        let color = PALETTE[desc.class.index() % PALETTE.len()];
        label(&mut out, 8, y + 13, &format!("{} {}", op.id, op.kind));
        let lat = i64::from(desc.latency).max(1);
        rect(
            &mut out,
            LEFT + t * CELL_W,
            y + 2,
            CELL_W * lat,
            ROW_H - 4,
            "#dddddd",
            &format!("{} latency {}", op.kind, desc.latency),
        );
        rect(
            &mut out,
            LEFT + t * CELL_W,
            y + 2,
            CELL_W,
            ROW_H - 4,
            color,
            &format!("{} issues at {}", op.kind, t),
        );
        y += ROW_H;
    }

    y += ROW_H; // gap
    label(&mut out, 8, y + 13, "lifetimes:");
    y += ROW_H;
    for v in live {
        let def = v.def.expect("filtered");
        let start = schedule.times[def.index()];
        let len = lt[v.id.index()].unwrap_or(0);
        label(&mut out, 8, y + 13, &v.name.to_string());
        rect(
            &mut out,
            LEFT + start * CELL_W,
            y + 4,
            len * CELL_W,
            ROW_H - 8,
            "#8cd17d",
            &format!("{} live [{start}, {})", v.name, start + len),
        );
        y += ROW_H;
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlackScheduler;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    #[test]
    fn svg_is_well_formed_and_complete() {
        let mut b = LoopBuilder::new("viz");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, x], Some(y));
        let st = b.op(OpKind::Store, &[a, y], None);
        b.flow_dep(ld, add, 0);
        b.flow_dep(add, st, 0);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let svg = to_svg(&p, &s);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // One issue mark + one tail per op, plus background.
        assert!(svg.matches("<rect").count() > 2 * body.num_ops());
        // Both lifetimes rendered (x and y are live).
        assert!(svg.contains("live ["));
        // Balanced tags.
        assert_eq!(
            svg.matches("<rect").count(),
            svg.matches("/>").count() + svg.matches("</rect>").count()
                - svg.matches("<line").count()
        );
    }

    #[test]
    fn gridlines_fall_on_ii_multiples() {
        let mut b = LoopBuilder::new("grid");
        let f = b.invariant(ValueType::Float, "f");
        for _ in 0..4 {
            let r = b.new_value(ValueType::Float);
            b.op(OpKind::FAdd, &[f, f], Some(r));
        }
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        let s = SlackScheduler::new().run(&p).unwrap();
        let svg = to_svg(&p, &s);
        assert!(svg.matches("stroke-dasharray").count() >= 2);
    }
}
