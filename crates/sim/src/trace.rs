//! Execution tracing: a per-cycle issue log of the pipelined loop,
//! verifying modulo-schedule geometry dynamically and giving tests (and
//! humans) a window into ramp-up, steady state, and ramp-down.

use lsms_codegen::KernelCode;
use lsms_ir::OpId;
use lsms_sched::Schedule;

/// One issued (i.e. stage-active and guard-true-or-absent) instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Absolute machine cycle.
    pub cycle: u64,
    /// Kernel iteration (`cycle / II`).
    pub kernel_iter: u64,
    /// Source iteration the instruction executed for.
    pub source_iter: u64,
    /// The operation.
    pub op: OpId,
}

/// Computes the full issue trace for `trip` iterations of a kernel —
/// derived from the schedule's geometry alone (no data), so it doubles as
/// an oracle for what the simulator *should* execute.
pub fn issue_trace(schedule: &Schedule, kernel: &KernelCode, trip: u64) -> Vec<TraceEvent> {
    let ii = u64::from(kernel.ii);
    let mut events = Vec::new();
    for k in 0..trip + u64::from(kernel.stages) - 1 {
        for (c, slot) in kernel.slots().enumerate() {
            for inst in slot {
                let source = k as i64 - i64::from(inst.stage);
                if source < 0 || source >= trip as i64 {
                    continue;
                }
                events.push(TraceEvent {
                    cycle: k * ii + c as u64,
                    kernel_iter: k,
                    source_iter: source as u64,
                    op: inst.op,
                });
            }
        }
    }
    let _ = schedule;
    events
}

/// Statistics of a trace: utilization and overlap.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Instructions issued in total.
    pub issued: u64,
    /// Machine cycles elapsed.
    pub cycles: u64,
    /// Mean instructions per cycle.
    pub ipc: f64,
    /// Largest number of distinct source iterations in flight in any
    /// single cycle — the realized overlap depth.
    pub max_overlap: usize,
}

/// Summarizes a trace.
pub fn trace_stats(events: &[TraceEvent]) -> TraceStats {
    let issued = events.len() as u64;
    let cycles = events.iter().map(|e| e.cycle + 1).max().unwrap_or(0);
    let mut max_overlap = 0usize;
    let mut i = 0;
    while i < events.len() {
        let cycle = events[i].cycle;
        let mut iters = Vec::new();
        while i < events.len() && events[i].cycle == cycle {
            if !iters.contains(&events[i].source_iter) {
                iters.push(events[i].source_iter);
            }
            i += 1;
        }
        max_overlap = max_overlap.max(iters.len());
    }
    TraceStats {
        issued,
        cycles,
        ipc: issued as f64 / cycles.max(1) as f64,
        max_overlap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_front::compile;
    use lsms_ir::RegClass;
    use lsms_machine::huff_machine;
    use lsms_regalloc::{allocate_rotating, Strategy};
    use lsms_sched::{SchedProblem, SlackScheduler};

    fn build(src: &str) -> (Schedule, KernelCode, usize) {
        let unit = compile(src).unwrap();
        let machine = huff_machine();
        let body = unit.loops[0].body.clone();
        let problem = SchedProblem::new(&body, &machine).unwrap();
        let schedule = SlackScheduler::new().run(&problem).unwrap();
        let rr = allocate_rotating(&problem, &schedule, RegClass::Rr, Strategy::default()).unwrap();
        let icr =
            allocate_rotating(&problem, &schedule, RegClass::Icr, Strategy::default()).unwrap();
        let kernel = lsms_codegen::emit(&problem, &schedule, &rr, &icr).unwrap();
        let n = problem.num_real_ops();
        (schedule, kernel, n)
    }

    const AXPY: &str = "loop axpy(i = 1..n) {
        real x[], y[];
        param real a;
        y[i] = y[i] + a * x[i];
    }";

    #[test]
    fn every_source_iteration_issues_every_instruction_once() {
        let (schedule, kernel, n) = build(AXPY);
        let trip = 9u64;
        let events = issue_trace(&schedule, &kernel, trip);
        // brtop is implicit, so n - 1 instructions per iteration.
        assert_eq!(events.len() as u64, trip * (n as u64 - 1));
        for iter in 0..trip {
            let count = events.iter().filter(|e| e.source_iter == iter).count();
            assert_eq!(count, n - 1, "iteration {iter}");
        }
    }

    #[test]
    fn issue_cycles_match_the_schedule() {
        let (schedule, kernel, _) = build(AXPY);
        let events = issue_trace(&schedule, &kernel, 5);
        for e in &events {
            let expected =
                e.source_iter * u64::from(schedule.ii) + schedule.times[e.op.index()] as u64;
            assert_eq!(e.cycle, expected, "{:?}", e);
        }
    }

    #[test]
    fn steady_state_overlaps_stages_iterations() {
        let (schedule, kernel, _) = build(AXPY);
        // Long enough to reach steady state.
        let events = issue_trace(&schedule, &kernel, 40);
        let stats = trace_stats(&events);
        assert!(stats.max_overlap >= 2, "pipelining overlaps iterations");
        assert!(stats.max_overlap <= schedule.stages() as usize);
        assert!(stats.ipc > 1.0, "ipc = {}", stats.ipc);
    }

    #[test]
    fn short_trips_never_overrun() {
        let (schedule, kernel, n) = build(AXPY);
        let events = issue_trace(&schedule, &kernel, 1);
        assert_eq!(events.len(), n - 1);
        assert!(events.iter().all(|e| e.source_iter == 0));
        let _ = schedule;
    }
}
