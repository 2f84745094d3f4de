//! `rec_mii` (minimum cost-to-time ratio per recurrence component) against
//! Johnson's elementary-circuit enumeration, on hand-built graphs and on
//! the kernels plus a recurrence-heavy corpus slice.

mod johnson;

use johnson::rec_mii_by_circuits;
use lsms_ir::{LoopBody, LoopBuilder, OpId, OpKind, ValueType};
use lsms_loops::{generate_with_profile, kernels, GeneratorConfig, Profile};
use lsms_machine::huff_machine;
use lsms_sched::{ProblemError, SchedProblem};

/// A body of `kinds.len()` ops (each reading an invariant, so values never
/// constrain anything) with flow arcs `(from, to, ω)`.
fn graph(kinds: &[OpKind], arcs: &[(usize, usize, u32)]) -> LoopBody {
    let mut b = LoopBuilder::new("g");
    let f = b.invariant(ValueType::Float, "f");
    let ops: Vec<OpId> = kinds
        .iter()
        .map(|&kind| {
            let v = b.new_value(ValueType::Float);
            b.op(kind, &[f, f], Some(v))
        })
        .collect();
    for &(from, to, omega) in arcs {
        b.flow_dep(ops[from], ops[to], omega);
    }
    b.finish()
}

/// RecMII of `body`, asserted equal to the circuit oracle's.
fn checked_rec_mii(body: &LoopBody) -> u32 {
    let machine = huff_machine();
    let problem = SchedProblem::new(body, &machine).expect("buildable");
    let oracle = rec_mii_by_circuits(&problem, 1_000_000).expect("few circuits");
    assert_eq!(oracle, Some(problem.rec_mii()));
    problem.rec_mii()
}

#[test]
fn disjoint_components_take_the_larger_ratio() {
    use OpKind::{FAdd, FMul};
    // {0, 1}: two fmuls (latency 2), ω 1 back -> 4. {2, 3, 4}: three
    // fadds (latency 1), ω 2 back -> ceil(3/2) = 2. Op 5 hangs off both.
    let body = graph(
        &[FMul, FMul, FAdd, FAdd, FAdd, FAdd],
        &[
            (0, 1, 0),
            (1, 0, 1),
            (2, 3, 0),
            (3, 4, 0),
            (4, 2, 2),
            (1, 5, 0),
            (4, 5, 0),
        ],
    );
    assert_eq!(checked_rec_mii(&body), 4);
    // Loosen the first component's back arc to ω 4: the second dominates.
    let body = graph(
        &[FMul, FMul, FAdd, FAdd, FAdd],
        &[(0, 1, 0), (1, 0, 4), (2, 3, 0), (3, 4, 0), (4, 2, 2)],
    );
    assert_eq!(checked_rec_mii(&body), 2);
}

#[test]
fn a_lone_self_arc_is_a_recurrence_component() {
    use OpKind::{FAdd, FMul};
    // Op 1's self-arc (fmul, ω 1) is its own component and sets RecMII;
    // the chain through it and the loose ring {2, 3} (ω 5) do not.
    let body = graph(
        &[FAdd, FMul, FAdd, FAdd],
        &[(0, 1, 0), (1, 1, 1), (1, 2, 0), (2, 3, 0), (3, 2, 5)],
    );
    assert_eq!(checked_rec_mii(&body), 2);
}

#[test]
fn parallel_arcs_each_close_a_circuit() {
    use OpKind::FMul;
    // Two back arcs between the same ops: ω 4 gives 1, ω 1 gives 4.
    let body = graph(&[FMul, FMul], &[(0, 1, 0), (1, 0, 4), (1, 0, 1)]);
    assert_eq!(checked_rec_mii(&body), 4);
    // Parallel forward arcs with different ω: the ω 0 one is binding.
    let body = graph(&[FMul, FMul], &[(0, 1, 2), (0, 1, 0), (1, 0, 2)]);
    assert_eq!(checked_rec_mii(&body), 2);
}

#[test]
fn zero_omega_positive_circuit_is_rejected() {
    use OpKind::{FAdd, FMul};
    // A healthy component beside a zero-ω one: the whole loop is rejected.
    let body = graph(
        &[FMul, FMul, FAdd, FAdd],
        &[(0, 1, 0), (1, 0, 1), (2, 3, 0), (3, 2, 0)],
    );
    let machine = huff_machine();
    assert_eq!(
        SchedProblem::new(&body, &machine).unwrap_err(),
        ProblemError::ZeroOmegaCycle
    );
    // A zero-ω self-arc is a zero-ω circuit too.
    let body = graph(&[FAdd], &[(0, 0, 0)]);
    assert_eq!(
        SchedProblem::new(&body, &machine).unwrap_err(),
        ProblemError::ZeroOmegaCycle
    );
}

/// Circuits the oracle may list per loop before the loop is skipped: 18
/// of the 332 loops below have more, and enumerating the rest takes a few
/// seconds in a debug build.
const CORPUS_CIRCUIT_CAP: usize = 100_000;

#[test]
fn kernels_and_recurrence_heavy_loops_match_the_circuit_oracle() {
    let machine = huff_machine();
    let mut sources = kernels();
    sources.extend(generate_with_profile(
        &GeneratorConfig {
            seed: 1993,
            count: 300,
        },
        &Profile::recurrence_heavy(),
    ));
    let (mut compared, mut skipped) = (0usize, 0usize);
    for named in &sources {
        let unit = lsms_front::compile(&named.source).expect("corpus loops compile");
        for l in &unit.loops {
            let problem = SchedProblem::new(&l.body, &machine).expect("buildable");
            match rec_mii_by_circuits(&problem, CORPUS_CIRCUIT_CAP) {
                Ok(oracle) => {
                    assert_eq!(oracle, Some(problem.rec_mii()), "{}", named.name);
                    compared += 1;
                }
                Err(_) => skipped += 1,
            }
        }
    }
    assert_eq!((compared, skipped), (314, 18));
}
