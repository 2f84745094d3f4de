//! The strongest whole-system property: any generated loop, pipelined by
//! any direction policy, computes bit-for-bit what the source says.
//!
//! Formerly a `proptest` suite; rewritten over the vendored deterministic
//! PRNG so the workspace builds without external crates.

mod common;

use common::verify;
use lsms::machine::huff_machine;
use lsms::pipeline::{Stage, VerifySpec};
use lsms_prng::SmallRng;

#[test]
fn random_loops_compute_correctly_through_the_pipeline() {
    for case in 0u64..48 {
        let mut rng = SmallRng::seed_from_u64(0xe9a1 + case);
        let seed = rng.gen_range(0..10_000u64);
        let trip = rng.gen_range(1..40u64);
        let policy_sel = rng.gen_range(0..3u8);
        let loops = lsms::loops::generate(&lsms::loops::GeneratorConfig { seed, count: 1 });
        let unit = lsms::front::compile(&loops[0].source).expect("generator emits valid DSL");
        let machine = huff_machine();
        let backend = match policy_sel {
            0 => "slack",
            1 => "early",
            _ => "late",
        };
        let spec = VerifySpec {
            trip,
            seed: seed ^ 0xdead_beef,
        };
        // Failure to pipeline is acceptable (counted elsewhere); an invalid
        // schedule or incorrect computation never is.
        match verify(&unit.loops[0], &machine, backend, spec, false) {
            Ok(report) => assert!(report.elements > 0, "case {case} seed {seed}"),
            Err(e) => {
                assert!(
                    e.stage == Stage::Schedule && e.code == "E0501",
                    "non-scheduling failure on seed {seed}: {e}"
                );
            }
        }
    }
}
