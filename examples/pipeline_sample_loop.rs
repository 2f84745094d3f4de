//! The paper's running example (Figure 1) end to end: the two-recurrence
//! loop whose values stay live for more than II cycles — the motivating
//! case for rotating register files (Figures 2–4).
//!
//! ```sh
//! cargo run --example pipeline_sample_loop
//! ```

use lsms::codegen::{emit, to_asm};
use lsms::front::compile;
use lsms::ir::RegClass;
use lsms::machine::huff_machine;
use lsms::regalloc::{allocate_rotating, Strategy};
use lsms::sched::pressure::{lifetimes, live_vector, measure};
use lsms::sched::{SchedProblem, SlackScheduler};
use lsms::sim::Oracle;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let unit = compile(
        "loop sample(i = 3..n) {
             real x[], y[];
             x[i] = x[i-1] + y[i-2];
             y[i] = y[i-1] + x[i-2];
         }",
    )?;
    let compiled = &unit.loops[0];

    println!("== dependence graph after load/store elimination ==");
    println!("{}", lsms::ir::to_dot(&compiled.body));

    let machine = huff_machine();
    let problem = SchedProblem::new(&compiled.body, &machine)?;
    println!(
        "ResMII = {}, RecMII = {}, MII = {} (the paper schedules this loop at II = 2)",
        problem.res_mii(),
        problem.rec_mii(),
        problem.mii()
    );
    let schedule = SlackScheduler::new().run(&problem)?;
    assert_eq!(schedule.ii, 2, "the sample loop achieves the paper's II");

    // Reproduce the Figure 4 lifetime wrap: lifetimes from one iteration
    // folded around a vector of length II.
    let lt = lifetimes(&problem, &schedule);
    println!("\n== lifetimes (issue to last-use issue, Figure 3 convention) ==");
    for v in compiled.body.values() {
        if let Some(len) = lt[v.id.index()] {
            let def = v.def.expect("lifetimes belong to defined values");
            println!(
                "  {:<8} defined at cycle {:>2}, live {:>2} cycles",
                v.name,
                schedule.times[def.index()],
                len
            );
        }
    }
    let vector = live_vector(&problem, &schedule, &lt, RegClass::Rr);
    println!("LiveVector = {vector:?} (the paper's Figure 4 computes <4 4>)");
    let pressure = measure(&problem, &schedule);
    println!(
        "MaxLive = {}, MinAvg = {}",
        pressure.rr_max_live, pressure.rr_min_avg
    );

    // Allocate the rotating file (Figure 3 shows a naive 6-register
    // allocation; an optimal one uses 4).
    let rr = allocate_rotating(&problem, &schedule, RegClass::Rr, Strategy::default())?;
    let icr = allocate_rotating(&problem, &schedule, RegClass::Icr, Strategy::default())?;
    println!(
        "\nrotating allocation uses {} registers (MaxLive = {})",
        rr.num_regs, pressure.rr_max_live
    );

    println!("\n== kernel-only code ==");
    let kernel = emit(&problem, &schedule, &rr, &icr)?;
    print!("{}", to_asm(&kernel, &problem));

    // And prove the kernel printed above computes what the source says.
    let report = Oracle::new(compiled, 50, 0x5eed)
        .check_kernel(compiled, &problem, &schedule, &kernel, &rr, &icr)
        .map_err(std::io::Error::other)?;
    println!(
        "\npipeline verified against the reference interpreter: {} array elements identical \
         after {} cycles ({} iterations at II {})",
        report.elements, report.cycles, 50, report.ii
    );
    Ok(())
}
