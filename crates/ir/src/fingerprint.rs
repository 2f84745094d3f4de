//! Structural fingerprinting of loop bodies.
//!
//! A [`Fingerprint`] is a 128-bit content hash of everything about a
//! [`LoopBody`] that the schedulers can observe: operation kinds in
//! issue order, operand wiring with ω distances, predicate guards, and
//! the dependence graph. Diagnostic names — the loop name and
//! [`Value::name`](crate::Value) — are deliberately excluded, so two
//! loops that differ only by renaming (alpha-equivalent bodies, as the
//! corpus generator produces in quantity) hash to the same fingerprint
//! and can share one cached schedule.
//!
//! The hash itself is vendored (two mixed 64-bit lanes with a
//! splitmix64-style finalizer) so the crate stays dependency-free; it
//! is a *content* hash for cache keying, not a cryptographic one.
//!
//! Canonicalization rules, chosen to match what scheduling depends on:
//!
//! * **Ops keep index order.** The slack scheduler breaks priority ties
//!   by node index, so op order is identity-bearing and must be hashed
//!   as-is.
//! * **Dependence arcs are sorted** by `(from, to, kind, via, ω, value)`
//!   before hashing: MinDist and the schedulers fold over arcs with
//!   order-insensitive operations (fixpoint bound updates, counted
//!   sets), so arc insertion order is *not* identity-bearing.
//! * **Values are named by structure**, not by id or string: a defined
//!   value hashes as the index of its defining op, a live-in/invariant
//!   value as the rank of its first use in op scan order, each tagged
//!   with its type and invariant flag.

use crate::{Dep, LoopBody, Op, ValueId, ValueType};

/// A 128-bit structural content hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0xc2b2_ae3d_27d4_eb4f;
const K2: u64 = 0x1656_67b1_9e37_79f9;

/// splitmix64 finalizer: full-avalanche 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Streaming 128-bit hasher: two 64-bit lanes, cross-fed per word so a
/// collision must survive both mixes simultaneously.
#[derive(Clone)]
pub struct FpHasher {
    lo: u64,
    hi: u64,
    words: u64,
}

impl FpHasher {
    /// A hasher seeded with a domain-separation salt. Distinct salts
    /// (e.g. schema versions) produce unrelated hash families.
    pub fn new(salt: &str) -> Self {
        let mut h = FpHasher {
            lo: K0,
            hi: K1,
            words: 0,
        };
        h.write_str(salt);
        h
    }

    /// Absorbs one word.
    pub fn write_u64(&mut self, v: u64) {
        self.words = self.words.wrapping_add(1);
        self.lo = mix64(self.lo.wrapping_add(v).wrapping_mul(K0)).rotate_left(13);
        self.hi = mix64(self.hi ^ v.rotate_left(32).wrapping_mul(K1)).wrapping_add(self.lo);
    }

    /// Absorbs a length-prefixed byte string (no extension ambiguity:
    /// `"ab" + "c"` and `"a" + "bc"` hash differently).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Finalizes into a [`Fingerprint`] (the hasher may keep absorbing
    /// afterwards; `finish` does not consume state).
    pub fn finish(&self) -> Fingerprint {
        let a = mix64(self.lo ^ self.words.wrapping_mul(K2));
        let b = mix64(self.hi ^ self.words.rotate_left(17).wrapping_mul(K0) ^ a);
        Fingerprint((u128::from(a) << 64) | u128::from(b))
    }
}

fn ty_code(ty: ValueType) -> u64 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Addr => 2,
        ValueType::Pred => 3,
    }
}

/// Canonical name for one value: where it comes from, not what it is
/// called. `(tag, rank, type, invariant)` where tag 0 = defined by an
/// op (rank = defining op index), tag 1 = live-in (rank = first-use
/// rank in op scan order), tag 2 = never referenced (rank = 0; such
/// values cannot influence scheduling).
type ValueToken = (u64, u64, u64, u64);

fn value_tokens(body: &LoopBody) -> Vec<ValueToken> {
    let mut tokens: Vec<Option<ValueToken>> = vec![None; body.values().len()];
    for v in body.values() {
        if let Some(def) = v.def {
            tokens[v.id.index()] = Some((0, def.index() as u64, ty_code(v.ty), v.invariant as u64));
        }
    }
    // Live-ins rank by first use, scanning ops in order, inputs before
    // predicate — the same for any alpha-renaming of the same wiring.
    let mut next_rank = 0u64;
    let mut visit = |id: ValueId, tokens: &mut Vec<Option<ValueToken>>| {
        let slot = &mut tokens[id.index()];
        if slot.is_none() {
            let v = body.value(id);
            *slot = Some((1, next_rank, ty_code(v.ty), v.invariant as u64));
            next_rank += 1;
        }
    };
    for op in body.ops() {
        for &input in &op.inputs {
            visit(input, &mut tokens);
        }
        if let Some(p) = op.predicate {
            visit(p, &mut tokens);
        }
    }
    tokens
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.unwrap_or((2, 0, ty_code(body.values()[i].ty), 0)))
        .collect()
}

fn write_token(h: &mut FpHasher, t: ValueToken) {
    h.write_u64(t.0);
    h.write_u64(t.1);
    h.write_u64(t.2);
    h.write_u64(t.3);
}

fn write_op(h: &mut FpHasher, op: &Op, tokens: &[ValueToken]) {
    h.write_str(op.kind.mnemonic());
    h.write_u64(op.inputs.len() as u64);
    for (i, &input) in op.inputs.iter().enumerate() {
        write_token(h, tokens[input.index()]);
        h.write_u64(u64::from(op.input_omegas.get(i).copied().unwrap_or(0)));
    }
    match op.result {
        Some(r) => {
            h.write_u64(1);
            write_token(h, tokens[r.index()]);
        }
        None => h.write_u64(0),
    }
    match op.predicate {
        Some(p) => {
            h.write_u64(1);
            write_token(h, tokens[p.index()]);
        }
        None => h.write_u64(0),
    }
}

fn dep_key(d: &Dep, tokens: &[ValueToken]) -> [u64; 6] {
    [
        d.from.index() as u64,
        d.to.index() as u64,
        match d.kind {
            crate::DepKind::Flow => 0,
            crate::DepKind::Anti => 1,
            crate::DepKind::Output => 2,
        },
        match d.via {
            crate::DepVia::Register => 0,
            crate::DepVia::Memory => 1,
            crate::DepVia::Control => 2,
        },
        u64::from(d.omega),
        match d.value {
            // Fold the value token into one word; tag/rank dominate.
            Some(v) => {
                let t = tokens[v.index()];
                1 + (t.0 << 48) + (t.1 << 8) + (t.2 << 2) + t.3
            }
            None => 0,
        },
    ]
}

/// Absorbs the alpha-invariant structure of `body` into `h`.
///
/// Everything scheduling can observe is included — op kinds and order,
/// operand/predicate wiring with ω distances, the (canonically sorted)
/// dependence graph, and [`LoopMeta`](crate::LoopMeta). The loop name
/// and value names are excluded.
pub fn write_structure(h: &mut FpHasher, body: &LoopBody) {
    let tokens = value_tokens(body);

    h.write_u64(body.num_ops() as u64);
    for op in body.ops() {
        write_op(h, op, &tokens);
    }

    let mut arcs: Vec<[u64; 6]> = body.deps().iter().map(|d| dep_key(d, &tokens)).collect();
    arcs.sort_unstable();
    h.write_u64(arcs.len() as u64);
    for arc in arcs {
        for w in arc {
            h.write_u64(w);
        }
    }

    h.write_u64(u64::from(body.meta().basic_blocks));
    match body.meta().min_trip_count {
        Some(t) => {
            h.write_u64(1);
            h.write_u64(t);
        }
        None => h.write_u64(0),
    }
}

/// The structural fingerprint of a body on its own (mostly useful for
/// tests; cache keys combine this with machine/backend context via
/// [`FpHasher`]).
pub fn structural_fingerprint(body: &LoopBody) -> Fingerprint {
    let mut h = FpHasher::new("lsms-ir/structure/1");
    write_structure(&mut h, body);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DepKind, DepVia, LoopBuilder, OpKind};

    fn daxpy_like(name: &str, vals: [&str; 4]) -> LoopBody {
        let mut b = LoopBuilder::new(name);
        let base = b.invariant(ValueType::Addr, vals[0]);
        let a = b.invariant(ValueType::Float, vals[1]);
        let x = b.named_value(ValueType::Float, vals[2]);
        let t = b.named_value(ValueType::Float, vals[3]);
        let ld = b.op(OpKind::Load, &[base], Some(x));
        let mul = b.op(OpKind::FMul, &[a, x], Some(t));
        let st = b.op(OpKind::Store, &[base, t], None);
        b.flow_dep(ld, mul, 0);
        b.flow_dep(mul, st, 0);
        b.dep(st, ld, DepKind::Anti, DepVia::Memory, 1);
        b.finish()
    }

    #[test]
    fn alpha_renamed_bodies_collide() {
        let a = daxpy_like("first", ["base", "a", "x", "t"]);
        let b = daxpy_like("totally_different", ["p", "q", "r", "s"]);
        assert_ne!(a.name(), b.name());
        assert_eq!(structural_fingerprint(&a), structural_fingerprint(&b));
    }

    #[test]
    fn structural_changes_diverge() {
        let base = daxpy_like("base", ["b", "a", "x", "t"]);
        let fp = structural_fingerprint(&base);

        // Different op kind.
        let mut b = LoopBuilder::new("kind");
        let base_v = b.invariant(ValueType::Addr, "b");
        let a = b.invariant(ValueType::Float, "a");
        let x = b.new_value(ValueType::Float);
        let t = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[base_v], Some(x));
        let mul = b.op(OpKind::FAdd, &[a, x], Some(t)); // FAdd, not FMul
        let st = b.op(OpKind::Store, &[base_v, t], None);
        b.flow_dep(ld, mul, 0);
        b.flow_dep(mul, st, 0);
        b.dep(st, ld, DepKind::Anti, DepVia::Memory, 1);
        assert_ne!(structural_fingerprint(&b.finish()), fp);

        // Different omega on the memory arc.
        let mut b = LoopBuilder::new("omega");
        let base_v = b.invariant(ValueType::Addr, "b");
        let a = b.invariant(ValueType::Float, "a");
        let x = b.new_value(ValueType::Float);
        let t = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[base_v], Some(x));
        let mul = b.op(OpKind::FMul, &[a, x], Some(t));
        let st = b.op(OpKind::Store, &[base_v, t], None);
        b.flow_dep(ld, mul, 0);
        b.flow_dep(mul, st, 0);
        b.dep(st, ld, DepKind::Anti, DepVia::Memory, 2); // omega 2, not 1
        assert_ne!(structural_fingerprint(&b.finish()), fp);

        // Missing arc.
        let mut b = LoopBuilder::new("arc");
        let base_v = b.invariant(ValueType::Addr, "b");
        let a = b.invariant(ValueType::Float, "a");
        let x = b.new_value(ValueType::Float);
        let t = b.new_value(ValueType::Float);
        let ld = b.op(OpKind::Load, &[base_v], Some(x));
        let mul = b.op(OpKind::FMul, &[a, x], Some(t));
        let _st = b.op(OpKind::Store, &[base_v, t], None);
        b.flow_dep(ld, mul, 0);
        assert_ne!(structural_fingerprint(&b.finish()), fp);
    }

    #[test]
    fn dep_insertion_order_is_canonicalized() {
        let build = |flip: bool| {
            let mut b = LoopBuilder::new("order");
            let x = b.new_value(ValueType::Int);
            let y = b.new_value(ValueType::Int);
            let o1 = b.op(OpKind::IntAdd, &[y, y], Some(x));
            let o2 = b.op(OpKind::IntMul, &[x, x], Some(y));
            if flip {
                b.flow_dep(o2, o1, 1);
                b.flow_dep(o1, o2, 0);
            } else {
                b.flow_dep(o1, o2, 0);
                b.flow_dep(o2, o1, 1);
            }
            b.finish()
        };
        assert_eq!(
            structural_fingerprint(&build(false)),
            structural_fingerprint(&build(true))
        );
    }

    #[test]
    fn invariant_flag_and_type_matter() {
        let build = |ty: ValueType| {
            let mut b = LoopBuilder::new("ty");
            let a = b.invariant(ty, "a");
            let t = b.new_value(ty);
            b.op(OpKind::Copy, &[a], Some(t));
            b.finish()
        };
        assert_ne!(
            structural_fingerprint(&build(ValueType::Int)),
            structural_fingerprint(&build(ValueType::Float))
        );
    }

    #[test]
    fn hasher_has_no_trivial_extension_collisions() {
        let mut a = FpHasher::new("t");
        a.write_str("ab");
        a.write_str("c");
        let mut b = FpHasher::new("t");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(FpHasher::new("s1").finish(), FpHasher::new("s2").finish());
    }
}
