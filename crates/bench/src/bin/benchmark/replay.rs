//! The traced run: `CompileSession`'s stage order replayed by calling each
//! layer's public functions from here, with a span around every call.
//!
//! The timed run never goes through this module, so it carries no
//! tracing. The replay keeps what the session does per loop: a fresh
//! `MinDistCache` and `EngineWorkspace` per scheduler run, its own
//! schedule memo under the session's key, and simulate-verify split into
//! the steps `lsms_sim::check_equivalence` takes. `fidelity` checks that
//! it produced what the session did.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use lsms_codegen::emit;
use lsms_front::{analyze, lex, lower_loop, parse, CompiledLoop};
use lsms_ir::{Fingerprint, RegClass};
use lsms_machine::{huff_machine, Machine};
use lsms_pipeline::{lookup_backend, BackendEntry, PassReport};
use lsms_regalloc::{allocate_rotating, Strategy};
use lsms_sched::pressure::{gpr_count, measure_cached, min_avg_cached};
use lsms_sched::{
    problem_fingerprint, schedule_key, validate, EngineWorkspace, MinDistCache, SchedContext,
    SchedFailure, SchedProblem, SchedStats, Schedule, SlackScheduler,
};
use lsms_sim::{make_workspace, run_kernel, run_reference, RunConfig};

use crate::workload::{check_ii, timed_round, LoopQuality, Quality, Round, Workload, VERIFY_TRIP};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span: every layer span sits inside its
    /// loop's `loop` span.
    parent: Option<usize>,
    loop_index: usize,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open_loop: Option<usize>,
    loops: usize,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open_loop: None,
            loops: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin_loop(&mut self) {
        let now = self.now();
        self.open_loop = Some(self.spans.len());
        self.spans.push(Span {
            name: "loop",
            start_ns: now,
            end_ns: now,
            parent: None,
            loop_index: self.loops,
        });
    }

    fn end_loop(&mut self) {
        let now = self.now();
        if let Some(i) = self.open_loop.take() {
            self.spans[i].end_ns = now;
        }
        self.loops += 1;
    }

    /// Runs `f` inside a span named `name` under the open loop.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_loop,
            loop_index: self.loops,
        });
        out
    }

    /// Seconds of self time per span name: each span's duration less the
    /// time its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete events,
    /// microseconds), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"loop\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.loop_index
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Work the layers did in one traced round, counted exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub ops: u64,
    pub nodes: u64,
    pub arcs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Scheduler runs that produced a schedule.
    pub scheduled: u64,
    /// Of those, the runs that succeeded at the first II they tried.
    pub first_try: u64,
    pub attempts: u64,
    pub central_iterations: u64,
    pub ejected_ops: u64,
    pub step6_restarts: u64,
    pub bounds_cells_touched: u64,
    pub choose_scan_len: u64,
    pub mindist_hits: u64,
    pub mindist_misses: u64,
    pub fw_computes: u64,
    pub parametric_builds: u64,
    pub materialized: u64,
    pub rr_regs: u64,
    pub icr_regs: u64,
    pub excess: u64,
}

impl LayerCounts {
    fn add_sched(&mut self, result: &Result<Schedule, SchedFailure>) {
        let stats: &SchedStats = match result {
            Ok(s) => {
                self.scheduled += 1;
                self.first_try += u64::from(s.stats.attempts == 1);
                &s.stats
            }
            Err(f) => &f.stats,
        };
        self.attempts += u64::from(stats.attempts);
        self.central_iterations += stats.central_iterations;
        self.ejected_ops += stats.ejected_ops;
        self.step6_restarts += stats.step6_restarts;
        self.bounds_cells_touched += stats.bounds_cells_touched;
        self.choose_scan_len += stats.choose_scan_len;
    }

    fn add_mindist(&mut self, cache: &MinDistCache) {
        let s = cache.stats();
        self.mindist_hits += s.hits;
        self.mindist_misses += s.misses;
        self.fw_computes += s.fw_computes;
        self.parametric_builds += s.parametric_builds;
        self.materialized += s.materializations;
    }
}

/// One traced pass over a corpus.
pub struct TracedRound {
    pub round: Round,
    pub counts: LayerCounts,
    pub tracer: Tracer,
}

/// Replays a whole corpus with tracing on.
pub fn traced_round(workload: Workload, sources: &[String], verify_seed: u64) -> TracedRound {
    let mut replay = Replay::new(verify_seed);
    let round = timed_round(sources, |source| {
        replay.tracer.begin_loop();
        let outcome = catch_unwind(AssertUnwindSafe(|| replay.run_loop(workload, source)));
        replay.tracer.end_loop();
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    });
    TracedRound {
        round,
        counts: replay.counts,
        tracer: replay.tracer,
    }
}

/// Checks that the traced replay produced exactly what the timed session
/// did on the same corpus: every schedule-quality sum, the simulated
/// cycles, kernel instructions and compared elements, and the schedule
/// cache's hits and misses as the session's report counted them.
pub fn fidelity(
    untraced: &Quality,
    report: &PassReport,
    traced: &TracedRound,
) -> Result<(), String> {
    let mut mismatches = Vec::new();
    if *untraced != traced.round.quality {
        mismatches.push(format!(
            "quality: session {untraced:?}, replay {:?}",
            traced.round.quality
        ));
    }
    let cache = report.get("sched-cache");
    for (counter, replayed) in [
        ("hits", traced.counts.cache_hits),
        ("misses", traced.counts.cache_misses),
    ] {
        let session = cache.and_then(|r| r.counters.get(counter)).copied();
        if session != Some(replayed) {
            mismatches.push(format!(
                "sched-cache {counter}: session {session:?}, replay {replayed}"
            ));
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join("; "))
    }
}

struct Replay {
    tracer: Tracer,
    machine: Machine,
    verify: RunConfig,
    /// `slack`, `early`, `cydrome`: the session's evaluation trio, whose
    /// first entry is also its default backend.
    backends: [BackendEntry; 3],
    memo: HashMap<Fingerprint, Result<Schedule, SchedFailure>>,
    counts: LayerCounts,
}

impl Replay {
    fn new(verify_seed: u64) -> Self {
        let backends = ["slack", "early", "cydrome"]
            .map(|name| lookup_backend(name).expect("built-in backend is registered"));
        let scheduler = backends[0]
            .scheduler
            .verify_config()
            .expect("slack backend verifies");
        Self {
            tracer: Tracer::new(),
            machine: huff_machine(),
            verify: RunConfig {
                trip: VERIFY_TRIP,
                seed: verify_seed,
                scheduler,
            },
            backends,
            memo: HashMap::new(),
            counts: LayerCounts::default(),
        }
    }

    fn run_loop(&mut self, workload: Workload, source: &str) -> Result<LoopQuality, String> {
        let Replay {
            tracer: t,
            machine,
            verify,
            backends,
            memo,
            counts,
        } = self;
        let compiled = front(t, counts, source)?;
        let problem = t
            .span("depgraph", || SchedProblem::new(&compiled.body, machine))
            .map_err(|e| e.to_string())?;
        counts.nodes += problem.num_nodes() as u64;
        counts.arcs += problem.arcs().len() as u64;
        let cache = MinDistCache::new();
        let mut run_backend = |t: &mut Tracer, entry: &BackendEntry| {
            memo_schedule(t, memo, counts, entry, machine, &problem, &cache)
        };

        if !workload.full_pipeline() {
            // `evaluate_variants`: the trio on one MinDist cache, each
            // schedule's pressure, then MinAvg at MII.
            let mut runs = Vec::with_capacity(3);
            for entry in backends.iter() {
                let result = run_backend(t, entry);
                let pressure = match &result {
                    Ok(s) => Some(t.span("pressure", || measure_cached(&problem, s, &cache))),
                    Err(_) => None,
                };
                check_ii(
                    entry.scheduler.name(),
                    result.as_ref().ok().map(|s| s.ii),
                    problem.mii(),
                )?;
                runs.push((result, pressure));
            }
            black_box(t.span("pressure", || {
                min_avg_cached(&problem, problem.mii(), &cache)
            }));
            counts.add_mindist(&cache);
            black_box(gpr_count(&problem));
            let counted = |r: &Result<Schedule, SchedFailure>| {
                u64::from(r.as_ref().map_or_else(|f| f.last_ii, |s| s.ii))
            };
            return Ok(LoopQuality {
                ii: counted(&runs[0].0),
                mii: u64::from(problem.mii()),
                max_live: runs[0].1.as_ref().map_or(0, |p| u64::from(p.rr_max_live)),
                old_ii: counted(&runs[2].0),
                ..LoopQuality::default()
            });
        }

        // `run_loop`: schedule, validate, pressure, both register files,
        // codegen, simulate-verify.
        let schedule = run_backend(t, &backends[0])
            .map_err(|f| format!("no schedule up to II {}", f.last_ii))?;
        check_ii("slack", Some(schedule.ii), problem.mii())?;
        t.span("validate", || validate(&problem, &schedule))
            .map_err(|e| e.to_string())?;
        let pressure = t.span("pressure", || measure_cached(&problem, &schedule, &cache));
        counts.add_mindist(&cache);
        let mut registers = |class| {
            t.span("regalloc", || {
                allocate_rotating(&problem, &schedule, class, Strategy::default())
            })
            .map_err(|e| e.to_string())
        };
        let rr = registers(RegClass::Rr)?;
        let icr = registers(RegClass::Icr)?;
        counts.rr_regs += u64::from(rr.num_regs);
        counts.icr_regs += u64::from(icr.num_regs);
        counts.excess += u64::from(rr.excess() + icr.excess());
        let kernel = t
            .span("codegen", || emit(&problem, &schedule, &rr, &icr))
            .map_err(|e| e.to_string())?;
        let (sim_cycles, elements) = simulate_verify(t, verify, machine, &compiled)?;
        Ok(LoopQuality {
            ii: u64::from(schedule.ii),
            mii: u64::from(problem.mii()),
            max_live: u64::from(pressure.rr_max_live),
            sim_cycles,
            kernel_insts: kernel.num_insts() as u64,
            elements,
            ..LoopQuality::default()
        })
    }
}

/// `compile_source`: lex and parse, sema, lower.
fn front(t: &mut Tracer, counts: &mut LayerCounts, source: &str) -> Result<CompiledLoop, String> {
    let defs = t
        .span("front.parse", || {
            lex(source).and_then(|tokens| parse(&tokens))
        })
        .map_err(|e| e.to_string())?;
    let [def] = <[_; 1]>::try_from(defs)
        .map_err(|defs| format!("expected one loop, got {}", defs.len()))?;
    let info = t
        .span("front.sema", || analyze(&def))
        .map_err(|e| e.to_string())?;
    let compiled = t
        .span("front.lower", || lower_loop(def, &info))
        .map_err(|e| e.to_string())?;
    counts.ops += compiled.body.num_ops() as u64;
    Ok(compiled)
}

/// One backend run through the memo, keyed as the session keys its
/// schedule cache.
fn memo_schedule(
    t: &mut Tracer,
    memo: &mut HashMap<Fingerprint, Result<Schedule, SchedFailure>>,
    counts: &mut LayerCounts,
    entry: &BackendEntry,
    machine: &Machine,
    problem: &SchedProblem<'_>,
    cache: &MinDistCache,
) -> Result<Schedule, SchedFailure> {
    let name = entry.scheduler.name();
    let (key, hit) = t.span("sched_cache", || {
        let key = schedule_key(
            problem_fingerprint(problem.body(), machine),
            name,
            &[],
            false,
        );
        (key, memo.get(&key).cloned())
    });
    if let Some(hit) = hit {
        counts.cache_hits += 1;
        return hit;
    }
    counts.cache_misses += 1;
    let result = t.span(entry.pass, || {
        entry
            .scheduler
            .run(
                problem,
                cache,
                &mut EngineWorkspace::new(),
                &SchedContext::new(entry.pass),
            )
            .result
    });
    counts.add_sched(&result);
    t.span("sched_cache", || memo.insert(key, result.clone()));
    result
}

/// `check_equivalence`, one span per step: input data, the reference
/// interpreter, the harness's own schedule-allocate-emit, the simulator,
/// and the element-by-element comparison. Returns (cycles, elements).
fn simulate_verify(
    t: &mut Tracer,
    run: &RunConfig,
    machine: &Machine,
    compiled: &CompiledLoop,
) -> Result<(u64, u64), String> {
    let workspace = t.span("verify.workspace", || {
        make_workspace(compiled, run.trip, run.seed)
    });
    let expected = t.span("verify.reference", || run_reference(compiled, &workspace));
    let (problem, schedule, rr, icr, kernel) = t.span("verify.redo", || {
        let problem =
            SchedProblem::new(&compiled.body, machine).map_err(|e| format!("problem: {e}"))?;
        let schedule = SlackScheduler::with_config(run.scheduler.clone())
            .run(&problem)
            .map_err(|e| format!("schedule: {e}"))?;
        validate(&problem, &schedule).map_err(|e| format!("validate: {e}"))?;
        let alloc = |class| {
            allocate_rotating(&problem, &schedule, class, Strategy::default())
                .map_err(|e| format!("{class:?} alloc: {e}"))
        };
        let rr = alloc(RegClass::Rr)?;
        let icr = alloc(RegClass::Icr)?;
        let kernel = emit(&problem, &schedule, &rr, &icr).map_err(|e| format!("codegen: {e}"))?;
        Ok::<_, String>((problem, schedule, rr, icr, kernel))
    })?;
    let outcome = t
        .span("verify.sim", || {
            run_kernel(
                compiled, &problem, &schedule, &kernel, &rr, &icr, &workspace,
            )
        })
        .map_err(|e| format!("sim: {e}"))?;
    let elements = t.span("verify.compare", || {
        let mut elements = 0u64;
        for (a, (got, want)) in outcome.arrays.iter().zip(&expected).enumerate() {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                elements += 1;
                if g != w {
                    return Err(format!(
                        "array {a} element {i}: pipeline {g:#x} != reference {w:#x}"
                    ));
                }
            }
        }
        Ok(elements)
    })?;
    Ok((outcome.cycles, elements))
}
