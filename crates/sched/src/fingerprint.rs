//! Content-addressed cache keys for schedules.
//!
//! Huff's framework is deterministic per (dependence graph, machine,
//! heuristic, II-escalation policy): rerunning a scheduler on the same
//! inputs reproduces the byte-identical schedule. That makes a schedule
//! safe to memoize under a key that captures *exactly* those inputs —
//! the alpha-invariant structure of the body
//! ([`lsms_ir::fingerprint`]), the machine description, the backend
//! name with its configured options, and the straight-line flag.
//!
//! The key is salted with [`FINGERPRINT_SALT`]; bump the salt whenever
//! a scheduling algorithm, heuristic, or escalation policy changes
//! behaviour, so keys from older builds never collide with current ones.

use lsms_ir::{Fingerprint, FpHasher, LoopBody};
use lsms_machine::Machine;

/// Domain-separation salt for schedule cache keys. Versioned: bump on
/// any behavioural change to the schedulers so keys from older builds
/// miss instead of replaying outdated results.
pub const FINGERPRINT_SALT: &str = "lsms-sched-fp/1";

/// Absorbs everything about `machine` the schedulers can observe:
/// name, functional-unit classes (name and unit count), and the full
/// opcode table (class, latency, reservation pattern) in the table's
/// stable iteration order.
pub fn write_machine(h: &mut FpHasher, machine: &Machine) {
    h.write_str(machine.name());
    h.write_u64(machine.classes().len() as u64);
    for class in machine.classes() {
        h.write_str(&class.name);
        h.write_u64(u64::from(class.count));
    }
    let mut ops = 0u64;
    let mut table = FpHasher::new("machine-table");
    for (kind, desc) in machine.op_table() {
        ops += 1;
        table.write_str(kind.mnemonic());
        table.write_u64(desc.class.index() as u64);
        table.write_u64(u64::from(desc.latency));
        table.write_u64(desc.reservation.len() as u64);
        for &r in &desc.reservation {
            table.write_u64(u64::from(r));
        }
    }
    h.write_u64(ops);
    h.write_u64(table.finish().0 as u64);
    h.write_u64((table.finish().0 >> 64) as u64);
}

/// The fingerprint of one scheduling *problem*: body structure plus
/// machine description. Alpha-renamed copies of the same loop collide.
///
/// Hashes the whole machine on every call; a caller fingerprinting many
/// loops for one machine keeps a [`ProblemHasher`] instead.
pub fn problem_fingerprint(body: &LoopBody, machine: &Machine) -> Fingerprint {
    ProblemHasher::new(machine).fingerprint(body)
}

/// [`problem_fingerprint`] for one machine, with the salt and the
/// machine hashed once: each loop clones the primed hasher and absorbs
/// only its own structure. The fingerprints are the same bits.
#[derive(Clone)]
pub struct ProblemHasher {
    primed: FpHasher,
}

impl std::fmt::Debug for ProblemHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProblemHasher").finish_non_exhaustive()
    }
}

impl ProblemHasher {
    /// Absorbs [`FINGERPRINT_SALT`] and `machine`.
    pub fn new(machine: &Machine) -> Self {
        let mut primed = FpHasher::new(FINGERPRINT_SALT);
        write_machine(&mut primed, machine);
        Self { primed }
    }

    /// The problem fingerprint of `body` under the primed machine.
    pub fn fingerprint(&self, body: &LoopBody) -> Fingerprint {
        let mut h = self.primed.clone();
        lsms_ir::fingerprint::write_structure(&mut h, body);
        h.finish()
    }
}

/// The full cache key for one backend run: the problem fingerprint
/// combined with the backend's registry name, its `key=value` options
/// (order-sensitive, as `configure` applies them in order), and the
/// straight-line flag.
pub fn schedule_key(
    problem: Fingerprint,
    backend: &str,
    options: &[(String, String)],
    straight_line: bool,
) -> Fingerprint {
    let mut h = FpHasher::new(FINGERPRINT_SALT);
    h.write_u64(problem.0 as u64);
    h.write_u64((problem.0 >> 64) as u64);
    h.write_str(backend);
    h.write_u64(options.len() as u64);
    for (k, v) in options {
        h.write_str(k);
        h.write_str(v);
    }
    h.write_u64(u64::from(straight_line));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsms_ir::{LoopBuilder, OpKind, ValueType};
    use lsms_machine::huff_machine;

    fn tiny(name: &str, val: &str) -> LoopBody {
        let mut b = LoopBuilder::new(name);
        let a = b.invariant(ValueType::Float, val);
        let t = b.new_value(ValueType::Float);
        b.op(OpKind::FAdd, &[a, a], Some(t));
        b.finish()
    }

    #[test]
    fn alpha_equivalent_problems_share_a_key() {
        let m = huff_machine();
        let a = problem_fingerprint(&tiny("one", "a"), &m);
        let b = problem_fingerprint(&tiny("two", "zz"), &m);
        assert_eq!(a, b);
    }

    #[test]
    fn a_primed_hasher_gives_the_same_fingerprints() {
        for m in [huff_machine(), lsms_machine::wide_machine()] {
            let primed = ProblemHasher::new(&m);
            for body in [tiny("a", "x"), tiny("b", "y")] {
                assert_eq!(primed.fingerprint(&body), problem_fingerprint(&body, &m));
            }
        }
        let (huff, wide) = (huff_machine(), lsms_machine::wide_machine());
        assert_ne!(
            ProblemHasher::new(&huff).fingerprint(&tiny("a", "x")),
            ProblemHasher::new(&wide).fingerprint(&tiny("a", "x"))
        );
    }

    #[test]
    fn key_separates_backend_options_and_mode() {
        let m = huff_machine();
        let p = problem_fingerprint(&tiny("k", "a"), &m);
        let base = schedule_key(p, "slack", &[], false);
        assert_ne!(base, schedule_key(p, "early", &[], false));
        assert_ne!(base, schedule_key(p, "slack", &[], true));
        let opts = vec![("budget-factor".to_owned(), "3".to_owned())];
        assert_ne!(base, schedule_key(p, "slack", &opts, false));
        assert_eq!(base, schedule_key(p, "slack", &[], false));
    }

    #[test]
    fn machine_differences_separate_problems() {
        use lsms_machine::MachineBuilder;
        let body = tiny("m", "a");
        let m1 = huff_machine();
        let mut mb = MachineBuilder::new("custom");
        let fu = mb.class("ALU", 1);
        let kinds: Vec<OpKind> = m1.op_table().map(|(k, _)| k).collect();
        mb.pipelined(fu, 2, &kinds);
        let m2 = mb.finish();
        assert_ne!(
            problem_fingerprint(&body, &m1),
            problem_fingerprint(&body, &m2)
        );
    }
}
