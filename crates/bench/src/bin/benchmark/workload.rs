//! The workloads: which loops a run compiles, through which public entry
//! point of the pipeline, and what the benchmark keeps from each loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lsms_loops::{generate, generate_with_profile, kernels, GeneratorConfig, NamedLoop, Profile};
use lsms_machine::huff_machine;
use lsms_pipeline::{CompileSession, SessionConfig, VerifySpec};

/// Loops in one corpus: the paper's population size, so `paper-eval` at
/// the corpus seed is exactly the `results/table3.txt` population.
pub const CORPUS_LOOPS: usize = lsms_loops::PAPER_CORPUS_SIZE;

/// Trip count simulate-verify runs every pipelined loop for.
pub const VERIFY_TRIP: u64 = 25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The kernels plus calibrated generated loops through the whole
    /// pipeline: the paper's Table 2 population, every layer busy.
    Calibrated,
    /// Recurrence-heavy generated loops through the whole pipeline:
    /// circuit enumeration and II escalation dominate.
    Recurrence,
    /// The calibrated corpus through the three-scheduler evaluation
    /// behind Tables 3-4 and Figures 5-8; no back end runs.
    PaperEval,
    /// The calibrated corpus, then an alpha-renamed copy of it, in one
    /// session: the copy's schedules all come from the session cache.
    Shared,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Calibrated,
        Workload::Recurrence,
        Workload::PaperEval,
        Workload::Shared,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Calibrated => "calibrated",
            Workload::Recurrence => "recurrence",
            Workload::PaperEval => "paper-eval",
            Workload::Shared => "shared",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether loops go through `run_loop` (regalloc, codegen,
    /// simulate-verify) rather than `evaluate_variants`.
    pub fn full_pipeline(self) -> bool {
        self != Workload::PaperEval
    }

    /// The session every timed loop of this workload compiles in.
    /// `verify_seed` seeds the data simulate-verify feeds the kernels.
    pub fn session_config(self, verify_seed: u64) -> SessionConfig {
        let mut config = SessionConfig::new(huff_machine());
        if self.full_pipeline() {
            config.regalloc = true;
            config.codegen = true;
            config.verify = Some(VerifySpec {
                trip: VERIFY_TRIP,
                seed: verify_seed,
            });
        }
        config
    }

    /// The DSL sources of the first `count` loops of this workload's
    /// corpus, in the compile order `seed` picks.
    ///
    /// The loop population never depends on `seed`: it is the corpus at
    /// [`POPULATION_SEED`]. A handful of loops take a quarter of a pass
    /// (one generated loop alone takes over a second), so a population
    /// redrawn per seed would move loops/s by ±25% between seeds and
    /// bury any change to the compiler.
    pub fn sources(self, seed: u64, count: usize) -> Vec<String> {
        let mut loops = match self {
            Workload::Recurrence => generate_with_profile(
                &GeneratorConfig {
                    seed: POPULATION_SEED,
                    count,
                },
                &Profile::recurrence_heavy(),
            ),
            _ => calibrated_corpus(POPULATION_SEED, count),
        };
        shuffle(&mut loops, seed);
        let mut sources: Vec<String> = loops.iter().map(|l| l.source.clone()).collect();
        if self == Workload::Shared {
            sources.extend(loops.iter().map(alpha_renamed));
        }
        sources
    }
}

/// The seed of every workload's loop population: the experiment
/// binaries' corpus seed, so `results/*.txt` describe the same loops.
const POPULATION_SEED: u64 = 1993;

/// A Fisher-Yates shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The kernels followed by calibrated generated loops: the source list
/// `lsms_loops::corpus` compiles.
fn calibrated_corpus(seed: u64, count: usize) -> Vec<NamedLoop> {
    let mut loops = kernels();
    loops.extend(generate(&GeneratorConfig {
        seed,
        count: count.saturating_sub(loops.len()),
    }));
    loops.truncate(count);
    loops
}

/// `l` with only the loop name in its `loop NAME(` header changed, so
/// the copy is structurally identical to the original.
fn alpha_renamed(l: &NamedLoop) -> String {
    let header = format!("loop {}(", l.name);
    assert!(
        l.source.contains(&header),
        "{}: source has no `{header}` header",
        l.name
    );
    l.source
        .replacen(&header, &format!("loop {}_copy(", l.name), 1)
}

/// The name in a source's `loop NAME(` header, for failure messages.
pub fn loop_name(source: &str) -> &str {
    source
        .split_once("loop ")
        .and_then(|(_, rest)| rest.split_once('('))
        .map_or("?", |(name, _)| name.trim())
}

/// The deterministic numbers one compiled loop contributes. Fields a
/// workload's path does not produce stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopQuality {
    /// II of the slack schedule (the last II tried when it failed).
    pub ii: u64,
    pub mii: u64,
    /// RR-file MaxLive of the slack schedule.
    pub max_live: u64,
    /// The Cydrome-style baseline's II (`paper-eval`).
    pub old_ii: u64,
    /// Cycles the simulated pipeline ran (full pipeline).
    pub sim_cycles: u64,
    /// Kernel instructions emitted (full pipeline).
    pub kernel_insts: u64,
    /// Array elements simulate-verify compared (full pipeline).
    pub elements: u64,
}

/// [`LoopQuality`] summed over a corpus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    pub loops: u64,
    pub sum_ii: u64,
    pub sum_mii: u64,
    pub sum_maxlive: u64,
    pub at_mii: u64,
    pub old_sum_ii: u64,
    pub old_at_mii: u64,
    pub sim_cycles: u64,
    pub kernel_insts: u64,
    pub elements: u64,
}

impl Quality {
    pub fn add(&mut self, q: &LoopQuality) {
        self.loops += 1;
        self.sum_ii += q.ii;
        self.sum_mii += q.mii;
        self.sum_maxlive += q.max_live;
        self.at_mii += u64::from(q.ii == q.mii);
        self.old_sum_ii += q.old_ii;
        self.old_at_mii += u64::from(q.old_ii == q.mii);
        self.sim_cycles += q.sim_cycles;
        self.kernel_insts += q.kernel_insts;
        self.elements += q.elements;
    }
}

/// Compiles one source the way `lsmsc` users do: `compile_source`, then
/// `run_loop` (full pipeline) or `evaluate_variants` (`paper-eval`).
///
/// `run_loop` has already checked the schedule with the validator and the
/// simulated kernel against the reference interpreter; on top of that
/// every achieved II must be at least MII.
pub fn compile_loop(
    session: &CompileSession,
    workload: Workload,
    source: &str,
) -> Result<LoopQuality, String> {
    let unit = session.compile_source(source).map_err(|e| e.to_string())?;
    let [compiled] = unit.loops.as_slice() else {
        return Err(format!("expected one loop, got {}", unit.loops.len()));
    };
    if !workload.full_pipeline() {
        let e = session
            .evaluate_variants(compiled, false)
            .map_err(|e| e.to_string())?;
        for (backend, outcome) in [("slack", &e.new), ("early", &e.early), ("cydrome", &e.old)] {
            check_ii(backend, outcome.ii, e.mii)?;
        }
        return Ok(LoopQuality {
            ii: e.new.counted_ii(),
            mii: u64::from(e.mii),
            max_live: e
                .new
                .pressure
                .as_ref()
                .map_or(0, |p| u64::from(p.rr_max_live)),
            old_ii: e.old.counted_ii(),
            ..LoopQuality::default()
        });
    }
    let artifacts = session.run_loop(compiled).map_err(|e| e.to_string())?;
    let q = &artifacts.quality;
    check_ii("slack", q.ii, q.mii)?;
    let equiv = artifacts
        .equiv
        .as_ref()
        .ok_or("simulate-verify did not run")?;
    let kernel = artifacts.kernel.as_ref().ok_or("codegen did not run")?;
    Ok(LoopQuality {
        ii: q.counted_ii(),
        mii: u64::from(q.mii),
        max_live: u64::from(q.max_live),
        sim_cycles: equiv.cycles,
        kernel_insts: kernel.num_insts() as u64,
        elements: equiv.elements as u64,
        ..LoopQuality::default()
    })
}

pub fn check_ii(backend: &str, ii: Option<u32>, mii: u32) -> Result<(), String> {
    match ii {
        Some(ii) if ii < mii => Err(format!("{backend} achieved II {ii} below MII {mii}")),
        _ => Ok(()),
    }
}

/// One timed pass over a corpus.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of each loop, in compile order.
    pub loop_ns: Vec<u64>,
    /// Wall time of the whole pass.
    pub elapsed: Duration,
    /// The most heap any one loop's compile held beyond what was live
    /// when it started, in bytes.
    pub peak_heap: u64,
    pub quality: Quality,
    /// `name: what went wrong` for every loop that errored or panicked.
    pub failures: Vec<String>,
}

/// Runs `compile` over every source, one at a time, timing each call. A
/// loop that returns an error or panics is recorded as a failure under
/// its name and the pass goes on.
pub fn timed_round(
    sources: &[String],
    mut compile: impl FnMut(&str) -> Result<LoopQuality, String>,
) -> Round {
    let mut round = Round::default();
    let pass = Instant::now();
    for source in sources {
        let heap_base = crate::heap::start_window();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| compile(source)));
        round.loop_ns.push(started.elapsed().as_nanos() as u64);
        round.peak_heap = round.peak_heap.max(crate::heap::window_peak(heap_base));
        match outcome {
            Ok(Ok(q)) => round.quality.add(&q),
            Ok(Err(e)) => round.failures.push(format!("{}: {e}", loop_name(source))),
            Err(panic) => round.failures.push(format!(
                "{}: panicked: {}",
                loop_name(source),
                panic_message(panic.as_ref())
            )),
        }
    }
    round.elapsed = pass.elapsed();
    round
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic)")
}

/// The seed of round `round` of a run: the run's own seed first, then
/// seeds drawn from it, so each round compiles in a new order.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        seed
    } else {
        seed ^ (round as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
    }
}

/// What a timed round needs before its first loop: the sources in their
/// compile order and a fresh, validated session.
pub struct Setup {
    pub sources: Vec<String>,
    pub session: CompileSession,
    /// The seed the session's simulate-verify draws kernel inputs from.
    pub verify_seed: u64,
}

/// Builds the inputs and the session for one round.
pub fn set_up(workload: Workload, seed: u64, loops: usize) -> Result<Setup, String> {
    let sources = workload.sources(seed, loops);
    let session = CompileSession::new(workload.session_config(seed));
    session.validate().map_err(|e| e.to_string())?;
    Ok(Setup {
        sources,
        session,
        verify_seed: seed,
    })
}

/// Compiles every kernel through a throwaway session on the workload's
/// path, so lazily built process state (the backend registry, allocator
/// pools) exists before anything is timed.
pub fn warm_up(workload: Workload) {
    let session = CompileSession::new(workload.session_config(POPULATION_SEED));
    for l in kernels() {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            compile_loop(&session, workload, &l.source)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_copies_are_alpha_renamed_and_fingerprint_alike() {
        let sources = Workload::Shared.sources(7, 40);
        assert_eq!(sources.len(), 80);
        let machine = huff_machine();
        let fingerprint = |source: &str| {
            let unit = lsms_front::compile(source).expect("compiles");
            lsms_sched::problem_fingerprint(&unit.loops[0].body, &machine)
        };
        for (original, copy) in sources[..40].iter().zip(&sources[40..]) {
            assert_eq!(format!("{}_copy", loop_name(original)), loop_name(copy));
            assert_eq!(
                fingerprint(original),
                fingerprint(copy),
                "{}",
                loop_name(copy)
            );
        }
    }

    #[test]
    fn the_seed_orders_a_fixed_population() {
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        let a = Workload::Calibrated.sources(1, 60);
        let b = Workload::Calibrated.sources(2, 60);
        assert_ne!(a, b);
        assert_eq!(a, Workload::Calibrated.sources(1, 60));
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn a_panicking_loop_counts_as_failed() {
        let sources = Workload::Calibrated.sources(7, 3);
        let doomed = loop_name(&sources[1]).to_owned();
        let round = timed_round(&sources, |source| {
            if loop_name(source) == doomed {
                panic!("deliberate");
            }
            Ok(LoopQuality::default())
        });
        assert_eq!(round.loop_ns.len(), 3);
        assert_eq!(round.quality.loops, 2);
        assert_eq!(round.failures.len(), 1);
        assert!(round.failures[0].starts_with(&format!("{doomed}: panicked")));
        assert!(round.failures[0].contains("deliberate"));
    }
}
