//! Memory dependence analysis: every direction/kind/distance case the
//! lowering can produce, checked arc by arc.

use lsms_front::compile;
use lsms_ir::{DepKind, DepVia, LoopBody, OpKind};

fn body(src: &str) -> LoopBody {
    compile(src).unwrap().loops.remove(0).body
}

/// Memory arcs as (from-kind, to-kind, dep-kind, omega) tuples.
fn mem_arcs(body: &LoopBody) -> Vec<(OpKind, OpKind, DepKind, u32)> {
    body.deps()
        .iter()
        .filter(|d| d.via == DepVia::Memory)
        .map(|d| (body.op(d.from).kind, body.op(d.to).kind, d.kind, d.omega))
        .collect()
}

#[test]
fn store_to_later_load_same_iteration_is_flow() {
    // Two stores to x make it ineligible, keeping real loads around.
    let b = body(
        "loop t(i = 1..n) {
             real x[], y[];
             x[i] = y[i];
             x[i+1] = 1.0;
             y[i] = x[i] * 2.0;   // reads what the first store wrote
         }",
    );
    let arcs = mem_arcs(&b);
    assert!(
        arcs.contains(&(OpKind::Store, OpKind::Load, DepKind::Flow, 0)),
        "{arcs:?}"
    );
}

#[test]
fn cross_iteration_store_load_distance_is_exact() {
    let b = body(
        "loop t(i = 3..n) {
             real x[], y[];
             x[i] = y[i];
             x[i+1] = y[i] * 2.0;     // second store: x ineligible
             y[i] = x[i-3] + x[i-2];  // loads from 3 and 4 iterations back
         }",
    );
    let arcs = mem_arcs(&b);
    // store x[i] -> load x[i-3]: delta 3; store x[i+1] -> load x[i-3]:
    // delta 4; similarly 2 and 3 for x[i-2].
    for omega in [2, 3, 4] {
        assert!(
            arcs.iter().any(|&(f, t, k, w)| f == OpKind::Store
                && t == OpKind::Load
                && k == DepKind::Flow
                && w == omega),
            "missing flow omega {omega}: {arcs:?}"
        );
    }
}

#[test]
fn load_before_future_store_is_anti() {
    let b = body(
        "loop t(i = 1..n) {
             real x[], y[];
             y[i] = x[i+2];       // reads an element stored 2 iters later
             x[i] = y[i] * 0.5;
             x[i+1] = y[i];       // second store: ineligible
         }",
    );
    let arcs = mem_arcs(&b);
    assert!(
        arcs.iter().any(|&(f, t, k, w)| f == OpKind::Load
            && t == OpKind::Store
            && k == DepKind::Anti
            && (w == 1 || w == 2)),
        "{arcs:?}"
    );
}

#[test]
fn two_stores_same_element_are_output_ordered() {
    let b = body(
        "loop t(i = 1..n) {
             real x[], y[];
             x[i] = y[i];
             x[i] = y[i] * 2.0;   // same element, later statement
         }",
    );
    let arcs = mem_arcs(&b);
    assert!(
        arcs.contains(&(OpKind::Store, OpKind::Store, DepKind::Output, 0)),
        "{arcs:?}"
    );
}

#[test]
fn offset_stores_get_cross_iteration_output_arcs() {
    let b = body(
        "loop t(i = 1..n) {
             real x[], y[];
             x[i] = y[i];
             x[i+2] = y[i] * 2.0;
         }",
    );
    let arcs = mem_arcs(&b);
    // store x[i+2] (iter i) and store x[i] (iter i+2) hit the same
    // element: output arc at distance 2 from the +2 store to the +0 store.
    assert!(
        arcs.contains(&(OpKind::Store, OpKind::Store, DepKind::Output, 2)),
        "{arcs:?}"
    );
}

#[test]
fn loads_alone_never_make_memory_arcs() {
    let b = body(
        "loop t(i = 2..n) {
             real x[], y[];
             y[i] = x[i-1] + x[i] + x[i+1];
         }",
    );
    assert!(mem_arcs(&b).is_empty(), "{:?}", mem_arcs(&b));
}

#[test]
fn distinct_arrays_never_alias() {
    let b = body(
        "loop t(i = 1..n) {
             real x[], y[], z[];
             x[i] = z[i-1];
             x[i+1] = z[i];        // x ineligible
             y[i] = x[i-1];
             y[i+1] = x[i];        // y ineligible
         }",
    );
    // Memory arcs exist within x and within y, but never x<->y or with z.
    for d in b.deps().iter().filter(|d| d.via == DepVia::Memory) {
        let (f, t) = (b.op(d.from), b.op(d.to));
        // Recover which array each touches by the address operand's name.
        let array_of = |op: &lsms_ir::Op| {
            // Address value names look like "a.x+0": take the array part.
            let name = b.value(op.inputs[0]).name.to_string();
            name.trim_start_matches("a.")
                .trim_end_matches(|c: char| c.is_ascii_digit())
                .trim_end_matches(['+', '-'])
                .to_owned()
        };
        assert_eq!(array_of(f), array_of(t), "cross-array arc {d:?}");
    }
}

#[test]
fn guarded_stores_still_order_against_loads() {
    let b = body(
        "loop t(i = 1..n) {
             real x[], y[];
             param real c;
             if (y[i] > c) { x[i] = y[i]; }
             y[i+1] = x[i-1];   // load of x must respect the guarded store
         }",
    );
    let arcs = mem_arcs(&b);
    assert!(
        arcs.iter().any(|&(f, t, k, w)| f == OpKind::Store
            && t == OpKind::Load
            && k == DepKind::Flow
            && w == 1),
        "{arcs:?}"
    );
}
