//! Early-exit loops (`break if`, §6 citing Tirumalai et al. [22]):
//! parsing rules, the lowered `live` predicate chain, and end-to-end
//! equivalence of the speculative pipeline against the reference.

use lsms_front::{compile, CompiledLoop};
use lsms_ir::OpKind;
use lsms_machine::huff_machine;
use lsms_pipeline::{CompileSession, LsmsError, SessionConfig, VerifySpec};

const SEARCH: &str = "loop search(i = 1..n) {
    real x[], out[];
    param real needle;
    out[i] = x[i] * 2.0;
    break if (x[i] >= needle);
}";

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
fn break_lowers_to_a_carried_live_chain() {
    let unit = compile(SEARCH).unwrap();
    let body = &unit.loops[0].body;
    // live = pand(live@1, noexit@1): one PredAnd with both inputs at
    // omega 1 after resolution.
    let pands: Vec<_> = body
        .ops()
        .iter()
        .filter(|o| o.kind == OpKind::PredAnd)
        .collect();
    assert_eq!(pands.len(), 1, "{}", lsms_ir::to_listing(body));
    assert_eq!(pands[0].input_omegas[..], [1, 1]);
    // The store is guarded by live.
    let store = body.ops().iter().find(|o| o.kind == OpKind::Store).unwrap();
    assert_eq!(store.predicate, pands[0].result);
    // The chain is a *trivial* (self-arc) circuit — it constrains RecMII
    // but not the non-trivial-recurrence classification.
    assert!(!body.has_recurrence());
    assert!(body.has_conditional());
}

#[test]
fn break_must_be_last_and_unique() {
    assert!(
        compile("loop b(i = 1..9) { real x[]; break if (x[i] > 0.0); x[i] = 1.0; }")
            .unwrap_err()
            .message
            .contains("last top-level statement")
    );
    assert!(compile(
        "loop b(i = 1..9) { real x[];
             if (x[i] > 0.0) { break if (x[i] > 1.0); } }"
    )
    .unwrap_err()
    .message
    .contains("last top-level statement"));
    assert!(compile("loop b(i = 1..9) { real x[]; break; }")
        .unwrap_err()
        .message
        .contains("break if"));
}

#[test]
fn exit_pipeline_matches_the_reference_bitwise() {
    let sources = [
        SEARCH,
        // Exit on a running sum crossing a threshold: the exit condition
        // itself sits on a recurrence.
        "loop until(i = 1..n) {
             real x[], acc[];
             real s;
             s = s + x[i];
             acc[i] = s;
             break if (s > 10.0);
         }",
        // Exit combined with an ordinary conditional.
        "loop mixed(i = 1..n) {
             real x[], y[];
             param real t;
             if (x[i] > t) { y[i] = t; } else { y[i] = x[i]; }
             break if (x[i] < -40.0);
         }",
        // Integer exit condition.
        "loop ints(i = 2..n) {
             int k[], m[];
             m[i] = k[i] + m[i-1] % 100;
             break if (m[i] % 13 == 0);
         }",
    ];
    for src in sources {
        let unit = compile(src).unwrap();
        for trip in [1, 2, 5, 19, 60] {
            for seed in [1u64, 9, 42] {
                verify(&unit.loops[0], trip, seed).unwrap_or_else(|e| {
                    panic!("{} trip {trip} seed {seed}: {e}", unit.loops[0].def.name)
                });
            }
        }
    }
}

#[test]
fn exit_squashes_only_post_exit_stores() {
    use lsms_sim::{make_workspace, run_reference};
    // With data forcing an exit at a known iteration, elements beyond it
    // must keep their initial values in the reference (and, per the
    // equivalence test above, in the pipeline).
    let unit = compile(SEARCH).unwrap();
    let compiled = &unit.loops[0];
    let mut ws = make_workspace(compiled, 20, 7);
    let needle = 1.0e9f64; // never fires with the default data
    ws.params.insert("needle".into(), needle.to_bits());
    // Make iteration lo+4 fire the exit.
    let lo = ws.lo as usize;
    ws.arrays[0][lo + 4] = (2.0e9f64).to_bits();
    let out = run_reference(compiled, &ws);
    // Iterations lo..=lo+4 stored; lo+5.. untouched.
    for k in 0..5 {
        assert_ne!(out[1][lo + k], ws.arrays[1][lo + k], "iteration {k} stored");
    }
    for k in 6..15 {
        assert_eq!(
            out[1][lo + k],
            ws.arrays[1][lo + k],
            "iteration {k} squashed"
        );
    }
    // And the full pipeline agrees (workspace-specific, so run manually).
    let machine = huff_machine();
    let problem = lsms_sched::SchedProblem::new(&compiled.body, &machine).unwrap();
    let schedule = lsms_sched::SlackScheduler::new().run(&problem).unwrap();
    let rr = lsms_regalloc::allocate_rotating(
        &problem,
        &schedule,
        lsms_ir::RegClass::Rr,
        lsms_regalloc::Strategy::default(),
    )
    .unwrap();
    let icr = lsms_regalloc::allocate_rotating(
        &problem,
        &schedule,
        lsms_ir::RegClass::Icr,
        lsms_regalloc::Strategy::default(),
    )
    .unwrap();
    let kernel = lsms_codegen::emit(&problem, &schedule, &rr, &icr).unwrap();
    let got = lsms_sim::run_kernel(compiled, &problem, &schedule, &kernel, &rr, &icr, &ws).unwrap();
    assert_eq!(got.arrays, out);
}

#[test]
fn break_roundtrips_through_the_printer() {
    let parsed = lsms_front::parse(&lsms_front::lex(SEARCH).unwrap()).unwrap();
    let printed = lsms_front::print_loop(&parsed[0]);
    assert!(printed.contains("break if ("), "{printed}");
    compile(&printed).unwrap();
}
