//! The dense opcode table answers exactly what the machine was built with.
//!
//! `Machine::desc` indexes a table by `OpKind`, and `op_table` walks the
//! same table in `OpKind`'s `Ord` order. The machine fingerprint absorbs
//! `op_table` in that order, and every schedule-cache key absorbs the
//! fingerprint, so the digests pinned below must not move.

use lsms_ir::{FpHasher, OpKind};
use lsms_machine::{
    huff_machine, short_latency_machine, wide_machine, Machine, MachineBuilder, OpDesc,
};
use lsms_sched::fingerprint::write_machine;

/// A machine with custom reservation patterns and some kinds left out.
fn custom_machine() -> Machine {
    let mut b = MachineBuilder::new("custom");
    let alu = b.class("ALU", 2);
    let odd = b.class("Odd", 1);
    b.pipelined(alu, 1, &[OpKind::IntAdd, OpKind::AddrAdd, OpKind::Brtop]);
    b.custom(
        OpKind::FSqrt,
        OpDesc {
            class: odd,
            latency: 9,
            reservation: vec![0, 3, 3, 8, 25],
        },
    );
    b.custom(
        OpKind::Load,
        OpDesc {
            class: alu,
            latency: 4,
            reservation: vec![2, 1],
        },
    );
    // A later entry for the same kind replaces the earlier one.
    b.unpipelined(odd, 3, &[OpKind::FDiv]);
    b.pipelined(alu, 5, &[OpKind::FDiv]);
    b.finish()
}

fn machines() -> Vec<Machine> {
    vec![
        huff_machine(),
        short_latency_machine(),
        wide_machine(),
        custom_machine(),
    ]
}

#[test]
fn desc_agrees_with_op_table_for_every_kind() {
    for m in machines() {
        let table: Vec<(OpKind, &OpDesc)> = m.op_table().collect();
        for kind in OpKind::ALL {
            let listed = table.iter().find(|(k, _)| *k == kind).map(|(_, d)| *d);
            match listed {
                Some(d) => assert_eq!(m.desc(kind), d, "{} {kind}", m.name()),
                None => {
                    let missing = std::panic::catch_unwind(|| m.desc(kind).latency);
                    assert!(missing.is_err(), "{} lists no {kind}", m.name());
                }
            }
        }
    }
}

#[test]
fn op_table_yields_kinds_in_ord_order() {
    for m in machines() {
        let kinds: Vec<OpKind> = m.op_table().map(|(k, _)| k).collect();
        assert!(kinds.windows(2).all(|w| w[0] < w[1]), "{}", m.name());
    }
    let predefined = [huff_machine(), short_latency_machine(), wide_machine()];
    for m in predefined {
        assert_eq!(m.op_table().count(), OpKind::ALL.len(), "{}", m.name());
    }
    let custom = custom_machine();
    let kinds: Vec<OpKind> = custom.op_table().map(|(k, _)| k).collect();
    assert_eq!(
        kinds,
        [
            OpKind::AddrAdd,
            OpKind::IntAdd,
            OpKind::FDiv,
            OpKind::FSqrt,
            OpKind::Load,
            OpKind::Brtop
        ]
    );
    assert_eq!(custom.desc(OpKind::FDiv).reservation, vec![0]);
    assert_eq!(custom.desc(OpKind::FSqrt).reservation, vec![0, 3, 3, 8, 25]);
}

fn digest(m: &Machine) -> String {
    let mut h = FpHasher::new("machine-table-test");
    write_machine(&mut h, m);
    h.finish().to_string()
}

#[test]
fn machine_digests_are_unchanged() {
    assert_eq!(digest(&huff_machine()), "1f541cbff961ec28a87ce4d54e192295");
    assert_eq!(
        digest(&short_latency_machine()),
        "ca822d4bad6bba915c0066b03f604525"
    );
    assert_eq!(digest(&wide_machine()), "057dee8b0c692893019c00ae7605f9b9");
}
