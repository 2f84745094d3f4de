//! Small loops of every shape the front end lowers — recurrences,
//! conditionals, scalars, division, integers, store forwarding — compiled
//! and simulate-verified through the session with each direction policy,
//! at trip counts below, at and above the stage count. Each case checks
//! both the rotating-file kernel and the modulo-variable-expansion kernel
//! against the reference interpreter.

mod common;

use common::verify;
use lsms::front::compile;
use lsms::machine::huff_machine;
use lsms::pipeline::VerifySpec;

fn check(src: &str) {
    let unit = compile(src).unwrap();
    let machine = huff_machine();
    for l in &unit.loops {
        for trip in [1, 2, 7, 40] {
            for backend in ["slack", "early", "late"] {
                let spec = VerifySpec {
                    trip,
                    seed: trip.wrapping_mul(0x1234_5678),
                };
                let report = verify(l, &machine, backend, spec, true)
                    .unwrap_or_else(|e| panic!("{} (trip {trip}, {backend}): {e}", l.def.name));
                assert!(report.elements > 0);
            }
        }
    }
}

#[test]
fn figure1_sample_pipeline_computes_correctly() {
    check(
        "loop sample(i = 3..n) {
             real x[], y[];
             x[i] = x[i-1] + y[i-2];
             y[i] = y[i-1] + x[i-2];
         }",
    );
}

#[test]
fn axpy_pipeline_computes_correctly() {
    check(
        "loop axpy(i = 1..n) {
             real x[], y[];
             param real a;
             y[i] = y[i] + a * x[i];
         }",
    );
}

#[test]
fn conditional_pipeline_computes_correctly() {
    check(
        "loop clip(i = 1..n) {
             real x[], y[];
             param real t;
             if (x[i] > t) { y[i] = t; } else { y[i] = x[i] * 0.5; }
         }",
    );
}

#[test]
fn scalar_recurrence_pipeline_computes_correctly() {
    check(
        "loop scan(i = 1..n) {
             real x[], y[];
             real s;
             s = s * 0.5 + x[i];
             y[i] = s;
         }",
    );
}

#[test]
fn division_pipeline_computes_correctly() {
    check(
        "loop div(i = 1..n) {
             real x[], y[], z[];
             z[i] = x[i] / (y[i] + 3000.0) + sqrt(y[i] + 1000.0);
         }",
    );
}

#[test]
fn integer_pipeline_computes_correctly() {
    check(
        "loop ints(i = 1..n) {
             int k[], m[];
             k[i] = (m[i] * 3 + k[i-1]) % 7 + m[i] / 2;
         }",
    );
}

#[test]
fn nested_conditionals_compute_correctly() {
    check(
        "loop nest(i = 1..n) {
             real x[], y[];
             param real t;
             if (x[i] > t) {
                 if (y[i] > 0.0) { y[i] = y[i] - t; } else { y[i] = t; }
             } else {
                 y[i] = x[i];
             }
         }",
    );
}

#[test]
fn store_forwarding_computes_correctly() {
    check(
        "loop fwd(i = 1..n) {
             real x[], y[];
             x[i] = y[i] * 2.0;
             y[i+1] = x[i] + 1.0;
         }",
    );
}

#[test]
fn multi_store_arrays_compute_correctly() {
    check(
        "loop multi(i = 2..n) {
             real x[], y[];
             x[i] = y[i] + x[i-1];
             x[i+1] = x[i] * 0.25;
         }",
    );
}

/// A recurrence carried 400,000 iterations schedules at II 1 with one
/// rotating register per iteration in flight, so register allocation and
/// simulation must stay linear in the distance.
#[test]
fn a_long_recurrence_distance_verifies() {
    let unit = compile(
        "loop far(i = 1..n) {
             real x[];
             x[i] = x[i - 400000] + 1.0;
         }",
    )
    .unwrap();
    let report = verify(
        &unit.loops[0],
        &huff_machine(),
        "slack",
        VerifySpec::with_trip(50),
        false,
    )
    .unwrap_or_else(|e| panic!("far: {e}"));
    assert_eq!(report.ii, 1);
    assert!(report.elements > 400_000, "{}", report.elements);
}
