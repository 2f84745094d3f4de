//! Golden rendering of one diagnostic from every pipeline stage.
//!
//! The `error[CODE]: FILE:LINE:COL: message [stage]` format, the stable
//! error codes, and the per-stage exit codes are a contract: scripts
//! match on them, so changes here must be deliberate.

use lsms::front::{FrontError, Span};
use lsms::ir::{LoopBuilder, OpKind, ValueId, ValueType};
use lsms::machine::huff_machine;
use lsms::pipeline::{
    BackendSelection, CompileSession, LsmsError, SessionConfig, Stage, VerifySpec,
};
use lsms::regalloc::AllocError;
use lsms::sched::{SchedFailure, SchedProblem, SchedStats, ScheduleError};
use lsms::sim::SimError;

const DAXPY: &str = "loop daxpy(i = 1..n) { real x[], y[]; param real a;
     y[i] = y[i] + a * x[i]; }";

fn check(err: &LsmsError, stage: Stage, code: &str, exit: u8, rendered: &str) {
    assert_eq!(err.stage, stage);
    assert_eq!(err.code, code);
    assert_eq!(err.exit_code(), exit);
    assert_eq!(err.render(Some("t.loop")), rendered);
}

#[test]
fn usage_diagnostic() {
    let mut config = SessionConfig::new(huff_machine());
    config.unroll = 2;
    config.verify = Some(VerifySpec::with_trip(10));
    let session = CompileSession::new(config);
    let unit = session.compile_source(DAXPY).expect("compiles");
    let err = session.run_loop(&unit.loops[0]).unwrap_err();
    check(
        &err,
        Stage::Usage,
        "E0002",
        2,
        "error[E0002]: t.loop: simulate-verify applies to the plain modulo \
         pipeline only (drop --unroll / --straight-line) [usage]",
    );
}

#[test]
fn backend_diagnostics() {
    // An unknown --backend name lists the registered backends. This test
    // binary registers nothing, so the list is exactly the built-ins.
    let mut config = SessionConfig::new(huff_machine());
    config.backend = BackendSelection::named("quantum");
    let err = CompileSession::new(config).validate().unwrap_err();
    check(
        &err,
        Stage::Usage,
        "E0003",
        2,
        "error[E0003]: t.loop: unknown backend `quantum` \
         (backends: slack, early, late, cydrome) [usage]",
    );

    // A malformed option spec fails at parse time with the same code.
    let err = BackendSelection::parse("slack:increment").unwrap_err();
    check(
        &err,
        Stage::Usage,
        "E0003",
        2,
        "error[E0003]: t.loop: malformed backend option `increment` \
         (want key=value) [usage]",
    );

    // An option the backend rejects carries the backend's complaint.
    let mut config = SessionConfig::new(huff_machine());
    config.backend = BackendSelection::parse("cydrome:increment=by-one").expect("parses");
    let err = CompileSession::new(config).validate().unwrap_err();
    check(
        &err,
        Stage::Usage,
        "E0003",
        2,
        "error[E0003]: t.loop: backend `cydrome`: unknown option `increment` \
         (options: budget-factor, max-ii) [usage]",
    );
}

#[test]
fn io_diagnostic() {
    let session = CompileSession::with_machine(huff_machine());
    let err = session
        .compile_file("/nonexistent/lsms/t.loop")
        .unwrap_err();
    assert_eq!(err.stage, Stage::Io);
    assert_eq!(err.code, "E0001");
    assert_eq!(err.exit_code(), 3);
    assert!(err
        .message
        .starts_with("cannot read /nonexistent/lsms/t.loop"));
}

#[test]
fn parse_diagnostic_carries_the_span() {
    let session = CompileSession::with_machine(huff_machine());
    let err = session.compile_source("loop broken(\n").unwrap_err();
    check(
        &err,
        Stage::Parse,
        "E0101",
        4,
        "error[E0101]: t.loop:2:1: expected induction variable, \
         found end of input [parse]",
    );
}

#[test]
fn sema_diagnostic_carries_the_span() {
    let session = CompileSession::with_machine(huff_machine());
    let err = session
        .compile_source("loop t(i = 1..n) { real x[]; x[i] = y + 1.0; }")
        .unwrap_err();
    check(
        &err,
        Stage::Sema,
        "E0201",
        5,
        "error[E0201]: t.loop:1:37: undeclared scalar `y` [sema]",
    );
}

#[test]
fn lower_diagnostic() {
    // The lowering walk reports through the same front-end error type.
    let err = LsmsError::from_front(
        FrontError {
            span: Span { line: 4, col: 2 },
            message: "recurrence distance is not constant".to_owned(),
        },
        Stage::Lower,
    );
    check(
        &err,
        Stage::Lower,
        "E0301",
        6,
        "error[E0301]: t.loop:4:2: recurrence distance is not constant [lower]",
    );
}

#[test]
fn depgraph_diagnostic_from_a_real_zero_omega_circuit() {
    let mut b = LoopBuilder::new("bad");
    let x = b.new_value(ValueType::Float);
    let y = b.new_value(ValueType::Float);
    let o1 = b.op(OpKind::FAdd, &[y, y], Some(x));
    let o2 = b.op(OpKind::FMul, &[x, x], Some(y));
    b.flow_dep(o1, o2, 0);
    b.flow_dep(o2, o1, 0);
    let body = b.finish();
    let machine = huff_machine();
    let err: LsmsError = SchedProblem::new(&body, &machine).unwrap_err().into();
    check(
        &err,
        Stage::DepGraph,
        "E0402",
        7,
        "error[E0402]: t.loop: dependence circuit with zero total omega \
         (unschedulable) [depgraph]",
    );
}

#[test]
fn depgraph_diagnostics_for_path_sums_out_of_range() {
    // A recurrence carried 2^27 iterations: ω·II alone passes 2^27 at
    // II 1, so no II is inside the scheduler's 32-bit range.
    let mut b = LoopBuilder::new("far");
    let x = b.new_value(ValueType::Float);
    let o = b.op(OpKind::FAdd, &[x, x], Some(x));
    b.flow_dep(o, o, 1 << 27);
    let body = b.finish();
    let machine = huff_machine();
    let err: LsmsError = SchedProblem::new(&body, &machine).unwrap_err().into();
    check(
        &err,
        Stage::DepGraph,
        "E0403",
        7,
        "error[E0403]: t.loop: dependence path sums out of range: MII 1 is \
         above the II ceiling 0 [depgraph]",
    );
    // An II search the range stopped reports the same code.
    let err: LsmsError = SchedFailure {
        last_ii: 17,
        stats: SchedStats::default(),
        deadline_capped: false,
        out_of_range: true,
    }
    .into();
    check(
        &err,
        Stage::DepGraph,
        "E0403",
        7,
        "error[E0403]: t.loop: no schedule inside the 32-bit path range; \
         last attempted II = 17 [depgraph]",
    );
}

#[test]
fn schedule_diagnostics() {
    let err: LsmsError = SchedFailure {
        last_ii: 17,
        stats: SchedStats {
            attempts: 5,
            ..SchedStats::default()
        },
        deadline_capped: false,
        out_of_range: false,
    }
    .into();
    check(
        &err,
        Stage::Schedule,
        "E0501",
        8,
        "error[E0501]: t.loop: no feasible schedule up to II 17 \
         (5 II attempts) [schedule]",
    );
    let err: LsmsError = ScheduleError::WrongShape.into();
    check(
        &err,
        Stage::Schedule,
        "E0502",
        8,
        "error[E0502]: t.loop: schedule validation failed: schedule has \
         wrong number of times [schedule]",
    );
}

#[test]
fn regalloc_diagnostic() {
    let err: LsmsError = AllocError::CapExceeded { cap: 128 }.into();
    check(
        &err,
        Stage::Regalloc,
        "E0601",
        9,
        "error[E0601]: t.loop: no conflict-free rotating allocation within \
         128 registers [regalloc]",
    );
}

#[test]
fn codegen_diagnostic() {
    let err: LsmsError = lsms::codegen::CodegenError::MissingAllocation(ValueId::new(3)).into();
    assert_eq!(err.stage, Stage::Codegen);
    assert_eq!(err.code, "E0701");
    assert_eq!(err.exit_code(), 10);
}

#[test]
fn simulate_diagnostics() {
    let err: LsmsError = SimError::MissingParam("a".to_owned()).into();
    check(
        &err,
        Stage::Simulate,
        "E0801",
        11,
        "error[E0801]: t.loop: parameter `a` missing from workspace [simulate]",
    );
    let err = LsmsError::verification("element 3 of `y` differs");
    check(
        &err,
        Stage::Simulate,
        "E0802",
        11,
        "error[E0802]: t.loop: element 3 of `y` differs [simulate]",
    );
}

#[test]
fn exit_codes_are_distinct_and_stable() {
    let stages = [
        (Stage::Usage, 2),
        (Stage::Io, 3),
        (Stage::Parse, 4),
        (Stage::Sema, 5),
        (Stage::Lower, 6),
        (Stage::DepGraph, 7),
        (Stage::Schedule, 8),
        (Stage::Regalloc, 9),
        (Stage::Codegen, 10),
        (Stage::Simulate, 11),
    ];
    for (stage, exit) in stages {
        assert_eq!(stage.exit_code(), exit, "{stage:?}");
    }
}
