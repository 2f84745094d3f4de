//! Benchmarks: scheduler throughput and the cost of its supporting
//! analyses, per §6's compilation-time discussion.
//!
//! Hand-rolled harness (`harness = false`): the container has no registry
//! access, so instead of criterion each case is timed directly — a short
//! calibration pass sizes the batch, then the mean over the batch is
//! reported. Run with `cargo bench -p lsms-bench`; pass a substring to run
//! matching cases only.

use std::time::{Duration, Instant};

use lsms_front::compile;
use lsms_machine::{huff_machine, Mrt};
use lsms_sched::bounds::rec_mii;
use lsms_sched::{CydromeScheduler, MinDist, MinDistCache, SchedProblem, SlackScheduler};

/// Times `f`, printing mean wall-clock per iteration.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Calibrate: run until 50ms have passed to pick a batch size.
    let calib_start = Instant::now();
    let mut calib_iters = 0u32;
    while calib_start.elapsed() < Duration::from_millis(50) && calib_iters < 1_000 {
        f();
        calib_iters += 1;
    }
    let per_iter = calib_start.elapsed() / calib_iters.max(1);
    let iters = (Duration::from_millis(200).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(10, 100_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let mean = start.elapsed() / iters;
    println!(
        "{name:<44} {:>12.3} µs/iter  ({iters} iters)",
        mean.as_nanos() as f64 / 1e3
    );
}

fn kernel_source(name: &str) -> String {
    lsms_loops::kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no kernel named {name}"))
        .source
}

/// A large generated loop for the heavy cases.
fn big_loop_source() -> String {
    lsms_loops::generate(&lsms_loops::GeneratorConfig {
        seed: 77,
        count: 64,
    })
    .into_iter()
    .max_by_key(|l| l.source.len())
    .expect("generator produced loops")
    .source
}

fn bench_schedulers(filter: &str) {
    let machine = huff_machine();
    let sources = [
        ("huff_sample", kernel_source("huff_sample")),
        ("ll7_state", kernel_source("ll7_state")),
        ("ll6_recurrence", kernel_source("ll6_recurrence")),
        ("generated_big", big_loop_source()),
    ];
    for (name, source) in &sources {
        let unit = compile(source).expect("benchmark kernels compile");
        let body = unit.loops[0].body.clone();
        let problem = SchedProblem::new(&body, &machine).expect("schedulable");
        bench(filter, &format!("schedule/slack/{name}"), || {
            SlackScheduler::new().run(&problem).expect("schedules");
        });
        bench(filter, &format!("schedule/cydrome/{name}"), || {
            let _ = CydromeScheduler::new().run(&problem);
        });
    }
}

fn bench_analyses(filter: &str) {
    let machine = huff_machine();
    let unit = compile(&big_loop_source()).expect("compiles");
    let body = unit.loops[0].body.clone();
    let problem = SchedProblem::new(&body, &machine).expect("schedulable");
    let mii = problem.mii();
    bench(filter, "mindist/big", || {
        MinDist::compute(&problem, mii);
    });
    // The II sweep an escalating scheduler performs, uncached vs cached:
    // the cached variant pays one Floyd–Warshall per distinct II and then
    // answers from the table, which is the shape of a real corpus run
    // (three schedulers revisiting the same IIs).
    let sweep: Vec<u32> = (mii..mii + 4).collect();
    bench(filter, "mindist/sweep_x3/uncached", || {
        for _ in 0..3 {
            for &ii in &sweep {
                MinDist::compute(&problem, ii);
            }
        }
    });
    bench(filter, "mindist/sweep_x3/cached", || {
        let cache = MinDistCache::new();
        for _ in 0..3 {
            for &ii in &sweep {
                cache.get(&problem, ii);
            }
        }
    });
    bench(filter, "recmii/big", || {
        rec_mii(&problem);
    });
}

fn bench_mrt(filter: &str) {
    use lsms_ir::{OpId, OpKind};
    let machine = huff_machine();
    let ii = 8u32;
    let fadd = machine.desc(OpKind::FAdd).clone();
    let div = machine.desc(OpKind::FDiv).clone();
    // fits on a half-full table: the scheduler's hottest query.
    let mut mrt = Mrt::new(&machine, ii);
    for t in (0..i64::from(ii)).step_by(2) {
        mrt.place(OpId::new(t as usize), &fadd, 0, t);
    }
    bench(filter, "mrt/fits/fadd", || {
        for t in 0..i64::from(ii) {
            std::hint::black_box(mrt.fits(OpId::new(99), &fadd, 0, t));
        }
    });
    bench(filter, "mrt/fits/div_long_pattern", || {
        for t in 0..i64::from(ii) {
            std::hint::black_box(mrt.fits(OpId::new(99), &div, 0, t));
        }
    });
    bench(filter, "mrt/place_remove/fadd", || {
        let mut m = Mrt::new(&machine, ii);
        for t in 0..i64::from(ii) {
            m.place(OpId::new(t as usize), &fadd, 0, t);
        }
        for t in 0..i64::from(ii) {
            m.remove(OpId::new(t as usize), &fadd, 0, t);
        }
    });
    bench(filter, "mrt/conflicts_into/fadd", || {
        let mut buf = Vec::new();
        for t in 0..i64::from(ii) {
            mrt.conflicts_into(OpId::new(99), &fadd, 0, t, &mut buf);
            std::hint::black_box(buf.len());
        }
    });
}

fn bench_frontend(filter: &str) {
    let source = big_loop_source();
    bench(filter, "frontend/compile_big", || {
        compile(&source).expect("compiles");
    });
}

fn bench_backend(filter: &str) {
    use lsms_ir::RegClass;
    use lsms_regalloc::{allocate_rotating, Strategy};
    use lsms_sim::{make_workspace, run_kernel, run_reference};

    let machine = huff_machine();
    let unit = compile(&kernel_source("huff_sample")).expect("compiles");
    let compiled = unit.loops.into_iter().next().expect("one loop");
    let body = compiled.body.clone();
    let problem = SchedProblem::new(&body, &machine).expect("schedulable");
    let schedule = SlackScheduler::new().run(&problem).expect("schedules");

    bench(filter, "regalloc/rotating/sample", || {
        allocate_rotating(&problem, &schedule, RegClass::Rr, Strategy::default())
            .expect("allocates");
    });

    let rr = allocate_rotating(&problem, &schedule, RegClass::Rr, Strategy::default())
        .expect("allocates");
    let icr = allocate_rotating(&problem, &schedule, RegClass::Icr, Strategy::default())
        .expect("allocates");
    bench(filter, "codegen/kernel/sample", || {
        lsms_codegen::emit(&problem, &schedule, &rr, &icr).expect("emits");
    });
    bench(filter, "codegen/mve/sample", || {
        lsms_codegen::emit_mve(&problem, &schedule).expect("emits");
    });

    let kernel = lsms_codegen::emit(&problem, &schedule, &rr, &icr).expect("emits");
    let workspace = make_workspace(&compiled, 256, 7);
    bench(filter, "sim/rotating/sample/256iters", || {
        run_kernel(
            &compiled, &problem, &schedule, &kernel, &rr, &icr, &workspace,
        )
        .expect("runs");
    });
    bench(filter, "sim/reference/sample/256iters", || {
        run_reference(&compiled, &workspace);
    });
}

fn main() {
    // `cargo bench` passes `--bench`; anything else is a name filter.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_default();
    bench_schedulers(&filter);
    bench_analyses(&filter);
    bench_mrt(&filter);
    bench_frontend(&filter);
    bench_backend(&filter);
}
