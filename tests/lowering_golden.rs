//! Golden digest of the front end's output over the whole corpus.
//!
//! Every one of the 1,525 corpus loops is lowered and rendered field by
//! field: operations (kind, operands with their ω, result, guard), values
//! (name, type, defining op, invariance), arcs in `deps()` order, each
//! op's outgoing and incoming arcs in adjacency order, and the
//! `invariants` and `initials` bindings. The FNV-1a digest of that text
//! is pinned, so any change to what lowering produces, or to the order it
//! produces it in, fails here.

use std::fmt::Write as _;

use lsms::front::CompiledLoop;
use lsms::ir::Dep;

/// The digest of the lowered corpus (seed 1993, 1,525 loops). A change
/// that alters what lowering produces on purpose updates it and says why.
const CORPUS_DIGEST: u64 = 0x3183_3b5a_9e3c_c9e8;

fn render(out: &mut String, compiled: &CompiledLoop) {
    let body = &compiled.body;
    let meta = body.meta();
    let _ = writeln!(
        out,
        "loop {} blocks {} trip {:?}",
        body.name(),
        meta.basic_blocks,
        meta.min_trip_count
    );
    for op in body.ops() {
        let _ = write!(out, "op {} {}", op.id, op.kind);
        for (v, w) in op.inputs.iter().zip(op.input_omegas.iter()) {
            let _ = write!(out, " {v}@{w}");
        }
        let _ = writeln!(out, " -> {:?} if {:?}", op.result, op.predicate);
    }
    for v in body.values() {
        let _ = writeln!(
            out,
            "val {} {} {:?} def {:?} inv {}",
            v.id, v.name, v.ty, v.def, v.invariant
        );
    }
    let arc = |out: &mut String, tag: &str, d: &Dep| {
        let _ = writeln!(
            out,
            "{tag} {} {} {} {} {} {:?}",
            d.from, d.to, d.kind, d.via, d.omega, d.value
        );
    };
    for d in body.deps() {
        arc(out, "dep", d);
    }
    for op in body.ops() {
        for d in body.deps_from(op.id) {
            arc(out, "out", d);
        }
        for d in body.deps_to(op.id) {
            arc(out, "in", d);
        }
    }
    for (v, source) in &compiled.invariants {
        let _ = writeln!(out, "invariant {v} {source:?}");
    }
    for (v, source) in &compiled.initials {
        let _ = writeln!(out, "initial {v} {source:?}");
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn the_lowered_corpus_matches_its_golden_digest() {
    let corpus = lsms::loops::corpus(lsms::loops::PAPER_CORPUS_SIZE, lsms::loops::CORPUS_SEED);
    assert_eq!(corpus.len(), 1525);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut text = String::new();
    let mut ops = 0;
    for compiled in &corpus {
        text.clear();
        render(&mut text, compiled);
        digest = fnv1a(digest, text.as_bytes());
        ops += compiled.body.num_ops();
    }
    assert_eq!(ops, 41_160, "lowered ops over the corpus");
    assert_eq!(
        digest, CORPUS_DIGEST,
        "lowered corpus digest {digest:#018x} differs from the pinned one"
    );
}
