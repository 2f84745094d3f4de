//! Seeded random dependence graphs shared by the crate's unit tests.

use lsms_ir::{LoopBody, LoopBuilder, OpKind, ValueType};

/// The `(case, size)` pairs of the engine's bound-oracle test: 48 graphs
/// of 12 ops, then 16 of 40.
pub(crate) fn bound_cases() -> impl Iterator<Item = (u64, usize)> {
    (0u64..48)
        .map(|case| (case, 12usize))
        .chain((48..64).map(|case| (case, 40)))
}

/// A graph of `size` multiplies with up to `2·size` random flow arcs,
/// seeded by `case`. Back arcs carry a distance, so no zero-omega cycle
/// forms.
pub(crate) fn random_graph(case: u64, size: usize) -> LoopBody {
    use lsms_prng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(0xb0d5 + case);
    let mut b = LoopBuilder::new("g");
    let fin = b.invariant(ValueType::Float, "fin");
    let ops: Vec<_> = (0..size)
        .map(|_| {
            let v = b.new_value(ValueType::Float);
            b.op(OpKind::FMul, &[fin, fin], Some(v))
        })
        .collect();
    for _ in 0..rng.gen_range(1..2 * size) {
        let (f, t) = (rng.gen_range(0..size), rng.gen_range(0..size));
        let omega = rng.gen_range(0..3u32) + u32::from(t <= f);
        b.flow_dep(ops[f], ops[t], omega);
    }
    b.finish()
}
