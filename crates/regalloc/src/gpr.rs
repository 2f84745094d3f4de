//! GPR (loop-invariant) register assignment.
//!
//! Loop invariants never change during the loop, so their "allocation" is
//! a stable enumeration: one static register per invariant that the body
//! actually reads. The same assignment serves both code-generation
//! schemas, and its size is the GPR-pressure figure of the paper's
//! Figure 7.

use lsms_ir::{RegClass, ValueId};
use lsms_sched::SchedProblem;

/// One static register index per live GPR value, in value order.
///
/// Included are loop invariants and any loop-variant value without an
/// in-loop definition (live-in scalars kept static); values nothing reads
/// — such as placeholders orphaned by the front end's rewriting — get no
/// register.
pub fn assign_gprs(problem: &SchedProblem<'_>) -> Vec<(ValueId, u32)> {
    let body = problem.body();
    let mut read = vec![false; body.values().len()];
    for op in body.ops() {
        for v in op.reads() {
            read[v.index()] = true;
        }
    }
    let live = |v: &&lsms_ir::Value| {
        v.def.is_none() && v.reg_class() != RegClass::Icr && read[v.id.index()]
    };
    let mut bindings = Vec::with_capacity(body.values().iter().filter(live).count());
    for v in body.values().iter().filter(live) {
        bindings.push((v.id, bindings.len() as u32));
    }
    bindings
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use lsms_machine::huff_machine;
    use lsms_sched::pressure::gpr_count;

    #[test]
    fn bindings_match_the_pressure_count() {
        let unit = compile(
            "loop k(i = 1..n) {
                 real x[], y[];
                 param real a, b;
                 y[i] = a * x[i] + b * x[i-1] + 2.5;
             }",
        )
        .unwrap();
        let machine = huff_machine();
        let problem = SchedProblem::new(&unit.loops[0].body, &machine).unwrap();
        let bindings = assign_gprs(&problem);
        assert_eq!(bindings.len() as u32, gpr_count(&problem));
        // Indices are dense and ordered.
        for (i, (_, idx)) in bindings.iter().enumerate() {
            assert_eq!(*idx, i as u32);
        }
    }

    #[test]
    fn unread_invariants_get_no_register() {
        let unit = compile("loop k(i = 1..n) { real x[]; x[i] = 1.0; }").unwrap();
        let machine = huff_machine();
        let problem = SchedProblem::new(&unit.loops[0].body, &machine).unwrap();
        let bindings = assign_gprs(&problem);
        // stride8, the ref base, and the 1.0 constant are all read.
        assert!(bindings.len() >= 3);
        for (v, _) in &bindings {
            let value = problem.body().value(*v);
            assert!(value.def.is_none());
        }
    }
}
