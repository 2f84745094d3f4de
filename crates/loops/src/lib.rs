//! The benchmark loop corpus.
//!
//! The paper evaluates on "all eligible DO loops in the Lawrence Livermore
//! Loops, the SPEC89 FORTRAN benchmarks, and the Perfect Club codes — a
//! total of 1,525 loops". Those inputs are not redistributable, so this
//! crate synthesizes an equivalent corpus (the calibration hint for this
//! reproduction: *dependence-graph benchmarks must be synthesized*):
//!
//! * [`kernels`] — two dozen hand-written kernels in the DSL, modelled on
//!   the Livermore Loops that fit the front end's subscript discipline
//!   (`i ± constant`), including the paper's own Figure 1 loop;
//! * [`generate`] — a seeded generator of random-but-well-formed DSL
//!   loops whose size, recurrence, conditional, and division mixes are
//!   calibrated against the paper's Table 2 and Table 3 marginals;
//! * [`corpus`] — kernels plus generated loops, compiled through
//!   `lsms-front`, sized to the paper's 1,525 by default.
//!
//! Eligibility (§6) is enforced the way the paper's compiler does it:
//! loops with more than 30 basic blocks before if-conversion or fewer
//! than 5 iterations are never generated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod kernels;

pub use generator::{generate, generate_with_profile, GeneratorConfig, Profile};
pub use kernels::kernels;

use lsms_front::{compile, CompiledLoop};

/// The paper's corpus size.
pub const PAPER_CORPUS_SIZE: usize = 1525;

/// The seed of the corpus every results file describes.
pub const CORPUS_SEED: u64 = 1993;

/// A named DSL loop, not yet compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedLoop {
    /// Diagnostic name (also the loop's name inside the source).
    pub name: String,
    /// DSL source text.
    pub source: String,
}

/// Builds the benchmark corpus: every hand-written kernel followed by
/// enough generated loops to reach `count`, all compiled.
///
/// The same `(count, seed)` always yields the same corpus.
///
/// # Panics
///
/// Panics if a generated loop fails to compile — the generator emits only
/// well-formed programs, so a failure is a bug worth a loud crash.
pub fn corpus(count: usize, seed: u64) -> Vec<CompiledLoop> {
    let mut sources = kernels();
    if sources.len() < count {
        let config = GeneratorConfig {
            seed,
            count: count - sources.len(),
        };
        sources.extend(generate(&config));
    }
    sources.truncate(count);
    sources
        .iter()
        .map(|l| {
            let unit = compile(&l.source).unwrap_or_else(|e| {
                panic!(
                    "corpus loop {} failed to compile: {e}\n{}",
                    l.name, l.source
                )
            });
            assert_eq!(unit.loops.len(), 1, "{}: one loop per source", l.name);
            unit.loops.into_iter().next().expect("checked length")
        })
        .collect()
}

/// Writes the corpus sources to `dir` as `.loop` files (one per loop),
/// for inspection or for feeding to the `lsmsc` driver.
///
/// Returns the number of files written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_corpus(dir: &std::path::Path, count: usize, seed: u64) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut sources = kernels();
    if sources.len() < count {
        let config = GeneratorConfig {
            seed,
            count: count - sources.len(),
        };
        sources.extend(generate(&config));
    }
    sources.truncate(count);
    for l in &sources {
        std::fs::write(dir.join(format!("{}.loop", l.name)), &l.source)?;
    }
    Ok(sources.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus(40, 7);
        let b = corpus(40, 7);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.def.name, y.def.name);
            assert_eq!(x.body.num_ops(), y.body.num_ops());
        }
    }

    /// A smaller corpus is a prefix of a larger one, so an evaluation of
    /// the paper's 1,525 loops also answers every 400- and 600-loop slice.
    #[test]
    fn smaller_corpora_are_prefixes_of_the_paper_corpus() {
        use lsms_ir::structural_fingerprint;
        let full = corpus(PAPER_CORPUS_SIZE, CORPUS_SEED);
        for count in [400, 600] {
            let slice = corpus(count, CORPUS_SEED);
            assert_eq!(slice.len(), count);
            for (x, y) in slice.iter().zip(&full) {
                assert_eq!(x.def.name, y.def.name);
                assert_eq!(
                    structural_fingerprint(&x.body),
                    structural_fingerprint(&y.body),
                    "{}",
                    x.def.name
                );
            }
        }
    }

    #[test]
    fn corpus_respects_eligibility() {
        for l in corpus(120, 3) {
            assert!(l.body.meta().basic_blocks <= 30, "{}", l.def.name);
            if let Some(trip) = l.body.meta().min_trip_count {
                assert!(trip >= 5, "{}", l.def.name);
            }
        }
    }

    #[test]
    fn write_corpus_round_trips_through_files() {
        let dir = std::env::temp_dir().join("lsms_corpus_test");
        let written = write_corpus(&dir, 12, 5).unwrap();
        assert_eq!(written, 12);
        let mut compiled = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "loop") {
                let src = std::fs::read_to_string(&path).unwrap();
                compile(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                compiled += 1;
            }
        }
        assert!(compiled >= 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_has_class_diversity() {
        use lsms_ir::LoopClass;
        let corpus = corpus(300, 42);
        let mut seen = std::collections::BTreeMap::new();
        for l in &corpus {
            *seen
                .entry(format!("{:?}", l.body.class()))
                .or_insert(0usize) += 1;
        }
        assert!(seen.len() == 4, "all four classes present: {seen:?}");
        // Roughly half the paper's loops are `Neither`.
        let neither = seen.get("Neither").copied().unwrap_or(0);
        assert!(neither > corpus.len() / 4, "{seen:?}");
        let _ = LoopClass::Neither;
    }
}
