//! Writes every file under `results/` — the paper's tables and figures
//! and the per-loop `quality.tsv` — from one evaluation per
//! configuration.
//!
//! ```sh
//! cargo run --release -p lsms-bench --bin paper
//! git diff --exit-code -- results/
//! ```
//!
//! The configurations:
//!
//! * the huff-cydra trio (bidirectional slack, always-early, Cydrome)
//!   over the paper's 1,525 loops. Tables 2–4, Figures 5–8, §6, the
//!   decision mix and `quality.tsv` read all of it; the robustness row
//!   and the 4% policy of `ii_increment.txt` read a prefix of it, since a
//!   smaller corpus is a prefix of a larger one;
//! * each alternate machine over the first 400 loops;
//! * each back-end sweep over the first 400 loops (600 for the II
//!   escalation policy);
//! * each generator profile over 300 freshly generated loops.
//!
//! There are no options. Loops are evaluated on [`default_jobs`] worker
//! threads and every result is reassembled in corpus order, so the files
//! do not depend on the worker count. Wall clock never enters a file; the
//! scheduler wall times the paper quotes go to stdout.

mod sweeps;
mod trio;

use std::fmt;
use std::path::Path;
use std::time::Duration;

use lsms_bench::{default_jobs, evaluate_loops_session, par_map, CORPUS_SEED};
use lsms_loops::{generate_with_profile, GeneratorConfig, Profile, PAPER_CORPUS_SIZE};
use lsms_machine::{alternate_machines, huff_machine};
use lsms_pipeline::{
    BackendSelection, CompileSession, LoopEvaluation, SchedOutcome, SessionConfig,
};

/// Where the results files live, wherever `paper` is run from.
const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// The slice the alternate machines and most back-end sweeps run over.
const SLICE: usize = 400;

/// The slice the II escalation policies run over.
const POLICY_SLICE: usize = 600;

/// Generated loops per corpus-sensitivity profile.
const PROFILE_LOOPS: usize = 300;

fn write(name: &str, render: impl FnOnce(&mut String) -> fmt::Result) -> std::io::Result<()> {
    let mut text = String::new();
    render(&mut text).expect("formatting into a String cannot fail");
    std::fs::write(Path::new(RESULTS).join(name), text)
}

/// [`par_map`] keeping only the `Some` results, in index order.
fn par_filter_map<R: Send>(
    len: usize,
    jobs: usize,
    f: impl Fn(usize) -> Option<R> + Sync,
) -> Vec<R> {
    par_map(len, jobs, f).into_iter().flatten().collect()
}

fn main() -> std::io::Result<()> {
    let jobs = default_jobs();
    let machine = huff_machine();
    let session = |configure: &dyn Fn(&mut SessionConfig)| {
        let mut config = SessionConfig::new(machine.clone());
        configure(&mut config);
        CompileSession::new(config)
    };
    let huff = session(&|_| {});
    let loops = lsms_loops::corpus(PAPER_CORPUS_SIZE, CORPUS_SEED);
    let slice = &loops[..SLICE];

    let trio = evaluate_loops_session(&huff, &loops, jobs);
    trio.warn_failures();
    let records = &trio.records;
    write("table1.txt", |o| trio::table1(o, &machine))?;
    write("table2.txt", |o| trio::table2(o, records))?;
    write("table3.txt", |o| trio::table3(o, records))?;
    write("table4.txt", |o| trio::table4(o, records))?;
    write("fig5.txt", |o| trio::fig5(o, records))?;
    write("fig6.txt", |o| trio::fig6(o, records))?;
    write("fig7.txt", |o| trio::fig7(o, records))?;
    write("fig8.txt", |o| trio::fig8(o, records))?;
    write("compile_time.txt", |o| trio::compile_time(o, records))?;
    write("heuristic_stats.txt", |o| trio::heuristic_stats(o, records))?;
    write("quality.tsv", |o| trio::quality_tsv(o, &trio))?;
    let wall = |pick: fn(&LoopEvaluation) -> &SchedOutcome| -> Duration {
        records.iter().map(|r| pick(r).stats.elapsed).sum()
    };
    let (new_time, old_time) = (wall(|r| &r.new), wall(|r| &r.old));
    println!(
        "§6 scheduler wall time over {} loops: new {new_time:.2?}, old {old_time:.2?}, \
         old/new {:.2}x (paper: 6.5x)",
        records.len(),
        old_time.as_secs_f64() / new_time.as_secs_f64().max(1e-9)
    );

    let alternates: Vec<_> = alternate_machines()
        .into_iter()
        .skip(1)
        .map(|m| {
            let name = m.name().to_owned();
            let report = evaluate_loops_session(&CompileSession::with_machine(m), slice, jobs);
            report.warn_failures();
            (name, report.records)
        })
        .collect();
    let mut rows = vec![(machine.name(), trio.prefix(SLICE))];
    rows.extend(alternates.iter().map(|(n, r)| (n.as_str(), r.as_slice())));
    write("robustness.txt", |o| trio::robustness(o, SLICE, &rows))?;

    let by_one = session(&|c| {
        c.backend = BackendSelection::parse("slack:increment=by-one").expect("static backend spec");
    });
    let by_one = par_filter_map(POLICY_SLICE, jobs, |i| {
        by_one.schedule_outcome(&loops[i]).ok()
    });
    let policies = [
        (
            "4% steps",
            trio.prefix(POLICY_SLICE).iter().map(|r| &r.new).collect(),
        ),
        ("by one", by_one.iter().collect()),
    ];
    write("ii_increment.txt", |o| {
        sweeps::ii_increment(o, POLICY_SLICE, &policies)
    })?;
    for (name, outcomes) in &policies {
        let time: Duration = outcomes.iter().map(|o| o.stats.elapsed).sum();
        println!("II escalation {name}: scheduler wall time {time:.2?}");
    }

    // The huff session is the default back end: its runs serve both
    // the allocation strategies and the un-unrolled II.
    let base = par_map(SLICE, jobs, |i| huff.run_loop(&slice[i]).ok());
    let excess = par_filter_map(SLICE, jobs, |i| {
        base[i]
            .as_ref()
            .map(|a| sweeps::allocation_excess(&machine, a))
    });
    write("allocation.txt", |o| sweeps::allocation(o, &excess))?;

    let unrolled = [2, 3].map(|factor| session(&|c| c.unroll = factor));
    let unrolled = par_filter_map(SLICE, jobs, |i| {
        base[i].as_ref().map(|a| {
            let ii = |s: &CompileSession| s.run_loop(&slice[i]).ok().map(|u| u.schedule.ii);
            (a.name.as_str(), a.schedule.ii, unrolled.each_ref().map(ii))
        })
    });
    write("unrolling.txt", |o| sweeps::unrolling(o, &unrolled))?;

    let mve = session(&|c| {
        c.codegen = true;
        c.mve = true;
    });
    let mve = par_filter_map(SLICE, jobs, |i| {
        mve.run_loop(&slice[i])
            .ok()
            .as_ref()
            .and_then(sweeps::MveCost::of)
    });
    write("mve.txt", |o| sweeps::mve(o, &mve))?;

    let straight = ["slack", "early"].map(|backend| {
        session(&|c| {
            c.straight_line = true;
            c.backend = BackendSelection::named(backend);
        })
    });
    let straight = par_filter_map(SLICE, jobs, |i| {
        let [a, b] = straight.each_ref().map(|s| {
            let artifacts = s.run_loop(&slice[i]).ok()?;
            Some(sweeps::straight_line_cost(&machine, &artifacts))
        });
        Some([a?, b?])
    });
    write("straight_line.txt", |o| sweeps::straight_line(o, &straight))?;

    let profiles = [
        ("calibrated", Profile::calibrated()),
        ("recurrence-heavy", Profile::recurrence_heavy()),
        ("streaming", Profile::streaming()),
        ("division-heavy", Profile::division_heavy()),
    ]
    .map(|(name, profile)| {
        let config = GeneratorConfig {
            seed: 2024,
            count: PROFILE_LOOPS,
        };
        let sources = generate_with_profile(&config, &profile);
        let evals = par_filter_map(sources.len(), jobs, |i| {
            let unit = huff.compile_source(&sources[i].source).ok()?;
            huff.evaluate_variants(&unit.loops[0], false).ok()
        });
        (name, evals)
    });
    write("corpus_sensitivity.txt", |o| {
        sweeps::corpus_sensitivity(o, PROFILE_LOOPS, &profiles)
    })
}
