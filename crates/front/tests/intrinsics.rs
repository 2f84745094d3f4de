//! The min/max/abs intrinsics: parsing, lowering shape, and bitwise
//! execution equivalence.

use lsms_front::{compile, CompiledLoop};
use lsms_ir::OpKind;
use lsms_machine::huff_machine;
use lsms_pipeline::{CompileSession, LsmsError, SessionConfig, VerifySpec};

/// Compiles, schedules with the bidirectional slack backend, allocates,
/// emits both the rotating-file and the MVE kernel, and simulate-verifies
/// each against the reference interpreter: one session with verify on.
fn verify(compiled: &CompiledLoop, trip: u64, seed: u64) -> Result<(), LsmsError> {
    let mut config = SessionConfig::new(huff_machine());
    config.mve = true;
    config.verify = Some(VerifySpec { trip, seed });
    CompileSession::new(config).run_loop(compiled).map(drop)
}

#[test]
fn minmax_lowers_to_compare_plus_select() {
    let unit = compile(
        "loop clamp(i = 1..n) {
             real x[], y[];
             param real lo, hi;
             y[i] = min(max(x[i], lo), hi);
         }",
    )
    .unwrap();
    let body = &unit.loops[0].body;
    assert_eq!(
        body.ops()
            .iter()
            .filter(|o| o.kind == OpKind::Select)
            .count(),
        2
    );
    assert_eq!(
        body.ops()
            .iter()
            .filter(|o| o.kind == OpKind::CmpGt)
            .count(),
        1
    );
    assert_eq!(
        body.ops()
            .iter()
            .filter(|o| o.kind == OpKind::CmpLt)
            .count(),
        1
    );
}

#[test]
fn abs_lowers_to_negate_plus_select() {
    let unit = compile("loop a(i = 1..n) { real x[], y[]; y[i] = abs(x[i]); }").unwrap();
    let body = &unit.loops[0].body;
    assert_eq!(
        body.ops()
            .iter()
            .filter(|o| o.kind == OpKind::Select)
            .count(),
        1
    );
    assert_eq!(
        body.ops().iter().filter(|o| o.kind == OpKind::FSub).count(),
        1
    );
}

#[test]
fn intrinsics_type_check() {
    // Mixed types rejected.
    assert!(compile("loop t(i=1..9){ real x[]; int k[]; x[i] = min(x[i], k[i]); }").is_err());
    // Int min/max/abs allowed.
    compile("loop t(i=1..9){ int k[], m[]; m[i] = max(abs(k[i-1]), 3); }").unwrap();
}

#[test]
fn intrinsics_compute_correctly_in_both_engines() {
    let sources = [
        "loop clamp(i = 1..n) {
             real x[], y[];
             param real lo, hi;
             y[i] = min(max(x[i], lo), hi);
         }",
        "loop l1(i = 1..n) {
             real x[], y[], d[];
             d[i] = abs(x[i] - y[i]);
         }",
        "loop intabs(i = 2..n) {
             int k[], m[];
             m[i] = abs(k[i] - m[i-1]) + min(k[i], 5);
         }",
        "loop runmin(i = 1..n) {
             real x[], out[];
             real lowest;
             lowest = min(lowest, x[i]);
             out[i] = lowest;
         }",
    ];
    for src in sources {
        let unit = compile(src).unwrap();
        for trip in [1, 3, 24] {
            verify(&unit.loops[0], trip, trip * 3 + 1)
                .unwrap_or_else(|e| panic!("{} trip {trip}: {e}", unit.loops[0].def.name));
        }
    }
}

#[test]
fn intrinsics_roundtrip_through_the_printer() {
    let src = "loop p(i = 1..n) { real x[], y[]; y[i] = min(abs(x[i-1]), max(x[i], 2.0)); }";
    let unit = lsms_front::parse(&lsms_front::lex(src).unwrap()).unwrap();
    let printed = lsms_front::print_loop(&unit[0]);
    assert!(printed.contains("min(") && printed.contains("max(") && printed.contains("abs("));
    compile(&printed).unwrap();
}
