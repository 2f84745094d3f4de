//! Schedules and an independent validity checker.

use std::fmt;

use lsms_machine::{assign_units, Mrt, UnitAssignment};

use crate::{SchedProblem, SchedStats};

/// A modulo schedule: an issue cycle for every operation at a common
/// initiation interval.
///
/// Issue cycles refer to the *first* iteration; iteration `i` issues each
/// operation `i · II` cycles later. The kernel packs operation `x` into
/// kernel cycle `time(x) mod II` at stage `time(x) div II`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// The achieved initiation interval.
    pub ii: u32,
    /// Issue cycle per operation, indexed by `OpId::index`.
    pub times: Vec<i64>,
    /// The functional-unit instance binding this schedule was built
    /// against. The binding is chosen *per II attempt* (still before any
    /// placement, as §4.3 requires) because which operations may share an
    /// instance depends on II; empty means "use the pre-scheduling
    /// binding of [`assign_units`]".
    pub assignments: Vec<UnitAssignment>,
    /// Counters describing how hard the scheduler worked (§6).
    pub stats: SchedStats,
}

impl Schedule {
    /// The schedule length: one past the last issue cycle (0 for an empty
    /// loop).
    pub fn length(&self) -> i64 {
        self.times.iter().map(|&t| t + 1).max().unwrap_or(0)
    }

    /// Number of kernel stages: `⌈length / II⌉`.
    pub fn stages(&self) -> u32 {
        (self.length() as u64).div_ceil(u64::from(self.ii)) as u32
    }

    /// The stage (`time div II`) of the operation at index `op`.
    pub fn stage(&self, op: usize) -> u32 {
        (self.times[op] / i64::from(self.ii)) as u32
    }

    /// The kernel cycle (`time mod II`) of the operation at index `op`.
    pub fn kernel_cycle(&self, op: usize) -> u32 {
        (self.times[op] % i64::from(self.ii)) as u32
    }
}

/// A violated schedule constraint, from [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// `times` has the wrong length for the problem.
    WrongShape,
    /// An operation was scheduled at a negative cycle.
    NegativeTime(usize),
    /// The dependence `from → to` is violated:
    /// `time(to) − time(from) < latency − ω·II`.
    DependenceViolated {
        /// Source node (problem index).
        from: usize,
        /// Sink node (problem index).
        to: usize,
    },
    /// Two operations need the same unit instance at the same cycle
    /// modulo II.
    ResourceConflict {
        /// First operation (problem index).
        a: usize,
        /// Second operation (problem index).
        b: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WrongShape => f.write_str("schedule has wrong number of times"),
            ScheduleError::NegativeTime(op) => write!(f, "op {op} scheduled before cycle 0"),
            ScheduleError::DependenceViolated { from, to } => {
                write!(f, "dependence {from} -> {to} violated")
            }
            ScheduleError::ResourceConflict { a, b } => {
                write!(f, "ops {a} and {b} collide on a unit modulo II")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Checks a schedule against the problem from first principles: every
/// dependence arc satisfies `time(to) − time(from) ≥ latency − ω·II`, every
/// issue cycle is non-negative, and replaying all reservations into a fresh
/// [`Mrt`] finds no collisions.
///
/// This checker shares no code with the schedulers, so it serves as an
/// independent oracle for unit and property tests.
///
/// # Errors
///
/// Returns the first violated constraint.
pub fn validate(problem: &SchedProblem<'_>, schedule: &Schedule) -> Result<(), ScheduleError> {
    let n = problem.num_real_ops();
    if schedule.times.len() != n {
        return Err(ScheduleError::WrongShape);
    }
    if !schedule.assignments.is_empty() && schedule.assignments.len() != n {
        return Err(ScheduleError::WrongShape);
    }
    for (op, &t) in schedule.times.iter().enumerate() {
        if t < 0 {
            return Err(ScheduleError::NegativeTime(op));
        }
    }
    for arc in problem.arcs() {
        if arc.from >= n || arc.to >= n {
            continue; // Start/Stop arcs constrain nothing once placed
        }
        let gap = schedule.times[arc.to] - schedule.times[arc.from];
        if gap < arc.weight(schedule.ii) {
            return Err(ScheduleError::DependenceViolated {
                from: arc.from,
                to: arc.to,
            });
        }
    }
    // A schedule without unit assignments (built by hand, say) is checked
    // against the pre-scheduling binding.
    let fallback;
    let assignments = if schedule.assignments.is_empty() {
        fallback = assign_units(problem.machine(), problem.body());
        &fallback
    } else {
        &schedule.assignments
    };
    let mut mrt = Mrt::new(problem.machine(), schedule.ii);
    for (op, assignment) in assignments.iter().enumerate() {
        let desc = problem.desc(op);
        let conflicts = mrt.conflicts(
            lsms_ir::OpId::new(op),
            desc,
            assignment.instance,
            schedule.times[op],
        );
        if let Some(&other) = conflicts.first() {
            return Err(ScheduleError::ResourceConflict {
                a: other.index(),
                b: op,
            });
        }
        mrt.place(
            lsms_ir::OpId::new(op),
            desc,
            assignment.instance,
            schedule.times[op],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn two_load_body() -> lsms_ir::LoopBody {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let l1 = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, y], Some(y));
        b.flow_dep(l1, add, 0);
        b.finish()
    }

    fn sched(ii: u32, times: Vec<i64>) -> Schedule {
        Schedule {
            ii,
            times,
            assignments: Vec::new(),
            stats: SchedStats::default(),
        }
    }

    #[test]
    fn valid_schedule_passes() {
        let body = two_load_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(validate(&p, &sched(1, vec![0, 13])), Ok(()));
    }

    #[test]
    fn latency_violation_is_caught() {
        let body = two_load_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(
            validate(&p, &sched(1, vec![0, 12])),
            Err(ScheduleError::DependenceViolated { from: 0, to: 1 })
        );
    }

    #[test]
    fn omega_relaxes_the_constraint() {
        // add uses the load's value from 2 iterations earlier: at II = 7,
        // the gap needed is 13 - 14 < 0.
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        let x = b.new_value(ValueType::Float);
        let y = b.new_value(ValueType::Float);
        let l1 = b.op(OpKind::Load, &[a], Some(x));
        let add = b.op(OpKind::FAdd, &[x, y], Some(y));
        b.flow_dep(l1, add, 2);
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(validate(&p, &sched(7, vec![0, 0])), Ok(()));
        // At II = 6 the constraint is gap >= 13 - 12 = 1.
        assert!(validate(&p, &sched(6, vec![0, 1])).is_ok());
        assert_eq!(
            validate(&p, &sched(6, vec![0, 0])),
            Err(ScheduleError::DependenceViolated { from: 0, to: 1 })
        );
    }

    #[test]
    fn modulo_resource_conflict_is_caught() {
        // Three loads, two ports: two of them share port 0 (round-robin)
        // and must not coincide modulo II.
        let mut b = LoopBuilder::new("t");
        let a = b.invariant(ValueType::Addr, "a");
        for _ in 0..3 {
            let x = b.new_value(ValueType::Float);
            b.op(OpKind::Load, &[a], Some(x));
        }
        let body = b.finish();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        // Ops 0 and 2 are both on port 0.
        assert_eq!(
            validate(&p, &sched(2, vec![0, 0, 2])),
            Err(ScheduleError::ResourceConflict { a: 0, b: 2 })
        );
        assert_eq!(validate(&p, &sched(2, vec![0, 0, 1])), Ok(()));
    }

    #[test]
    fn negative_time_is_caught() {
        let body = two_load_body();
        let m = huff_machine();
        let p = SchedProblem::new(&body, &m).unwrap();
        assert_eq!(
            validate(&p, &sched(1, vec![-1, 13])),
            Err(ScheduleError::NegativeTime(0))
        );
    }

    #[test]
    fn schedule_geometry() {
        let s = sched(4, vec![0, 13]);
        assert_eq!(s.length(), 14);
        assert_eq!(s.stages(), 4);
        assert_eq!(s.stage(1), 3);
        assert_eq!(s.kernel_cycle(1), 1);
    }
}
