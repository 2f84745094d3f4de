//! Seeded random dependence graphs shared by the engine suites.

use lsms_ir::{LoopBody, LoopBuilder, OpKind, ValueType};
use lsms_prng::SmallRng;

/// A random DAG-with-back-arcs body of `n` FMuls (same construction as
/// the MinDist property suites).
pub fn body_from(arcs: &[(u8, u8, u8)], n: usize) -> LoopBody {
    let mut b = LoopBuilder::new("g");
    let fin = b.invariant(ValueType::Float, "fin");
    let ops: Vec<_> = (0..n)
        .map(|_| {
            let v = b.new_value(ValueType::Float);
            b.op(OpKind::FMul, &[fin, fin], Some(v))
        })
        .collect();
    for &(from, to, omega) in arcs {
        let (f, t) = (from as usize % n, to as usize % n);
        // Keep zero-omega arcs forward so no zero-omega cycle forms.
        let omega = if t <= f {
            u32::from(omega % 3) + 1
        } else {
            u32::from(omega % 3)
        };
        b.flow_dep(ops[f], ops[t], omega);
    }
    b.finish()
}

/// 1..`max_arcs` random arcs of (from, to, omega) with small endpoints.
pub fn random_arcs(rng: &mut SmallRng, ends: u8, max_arcs: usize) -> Vec<(u8, u8, u8)> {
    let count = rng.gen_range(1..=max_arcs);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..ends),
                rng.gen_range(0..ends),
                rng.gen_range(0..3u8),
            )
        })
        .collect()
}

/// The `case`-th slack problem body (seeds from `0x5ba7`).
pub fn slack_case(case: u64) -> LoopBody {
    let mut rng = SmallRng::seed_from_u64(0x5ba7 + case);
    body_from(&random_arcs(&mut rng, 12, 23), 12)
}

/// The `case`-th Cydrome problem body (seeds from `0xcd40`).
pub fn cydrome_case(case: u64) -> LoopBody {
    let mut rng = SmallRng::seed_from_u64(0xcd40 + case);
    body_from(&random_arcs(&mut rng, 10, 19), 10)
}
