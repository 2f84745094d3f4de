//! The registry's extension guarantee: a scheduler backend defined
//! entirely outside the workspace crates — here, inside this test binary
//! — registers, resolves by name, schedules the corpus, and shows up in
//! `--list-backends`, `PassReport` (`--timings`), and the trace, without
//! touching `lsms-pipeline` internals or its dispatch code.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use lsms::machine::huff_machine;
use lsms::pipeline::{
    list_backends_text, register_backend, registered_backends, BackendSelection, CompileSession,
    SessionConfig,
};
use lsms::sched::{
    BackendCaps, BackendInfo, BackendRun, EngineWorkspace, MinDistCache, ModuloScheduler,
    SchedContext, SchedProblem, SlackBackend, SlackConfig, SlackScheduler,
};

/// A synthetic backend that wraps the slack scheduler and perturbs
/// nothing: same schedules, same failures, new name.
#[derive(Debug)]
struct EchoBackend {
    inner: SlackBackend,
}

impl Default for EchoBackend {
    fn default() -> Self {
        Self {
            inner: SlackBackend::bidirectional(),
        }
    }
}

impl ModuloScheduler for EchoBackend {
    fn name(&self) -> &str {
        "echo"
    }

    fn describe(&self) -> BackendInfo {
        BackendInfo {
            summary: "test-only echo of the slack scheduler".to_owned(),
            details: String::new(),
        }
    }

    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    fn configure(&self, options: &[(String, String)]) -> Result<Arc<dyn ModuloScheduler>, String> {
        if options.is_empty() {
            Ok(Arc::new(Self::default()))
        } else {
            Err("echo takes no options".to_owned())
        }
    }

    fn verify_config(&self) -> Option<SlackConfig> {
        self.inner.verify_config()
    }

    fn run(
        &self,
        problem: &SchedProblem<'_>,
        cache: &MinDistCache,
        ws: &mut EngineWorkspace,
        ctx: &SchedContext,
    ) -> BackendRun {
        self.inner.run(problem, cache, ws, ctx)
    }
}

/// Registers `echo` exactly once, however many tests run first, and
/// returns a guard that serializes the tests of this binary: the trace
/// collector is process-global, so a `schedule:echo` pass run by one test
/// while another has tracing on would land in the other's trace.
fn ensure_echo() -> MutexGuard<'static, ()> {
    static ONCE: OnceLock<()> = OnceLock::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    ONCE.get_or_init(|| {
        register_backend(Arc::new(EchoBackend::default())).expect("first registration succeeds");
    });
    guard
}

#[test]
fn external_backend_registers_schedules_and_traces() {
    let _serial = ensure_echo();

    // Listed alongside the built-ins, with its summary and flags.
    assert!(registered_backends()
        .iter()
        .any(|e| e.scheduler.name() == "echo" && e.pass == "schedule:echo"));
    let listing = list_backends_text();
    assert!(listing.contains("echo"), "{listing}");
    assert!(
        listing.contains("test-only echo of the slack scheduler"),
        "{listing}"
    );

    // A second registration under the same name is a stable E0003.
    let err = register_backend(Arc::new(EchoBackend::default())).unwrap_err();
    assert_eq!(err.code, "E0003");
    assert!(
        err.message.contains("already registered"),
        "{}",
        err.message
    );

    // A session selects it by name — no pipeline edits anywhere.
    let machine = huff_machine();
    let mut config = SessionConfig::new(machine.clone());
    config.backend = BackendSelection::named("echo");
    let session = CompileSession::new(config);
    session.validate().expect("echo resolves");

    let loops = lsms::loops::corpus(8, lsms_bench::CORPUS_SEED);
    lsms_trace::set_enabled(true);
    for l in &loops {
        let via_echo = session.run_loop(l);
        // Byte-identical to the scheduler it wraps.
        let problem = SchedProblem::new(&l.body, &machine).expect("well-formed");
        match SlackScheduler::new().run(&problem) {
            Ok(expected) => {
                let artifacts = via_echo.expect("echo schedules what slack schedules");
                assert_eq!(expected.ii, artifacts.schedule.ii, "{}", l.def.name);
                assert_eq!(expected.times, artifacts.schedule.times, "{}", l.def.name);
                assert_eq!(
                    expected.assignments, artifacts.schedule.assignments,
                    "{}",
                    l.def.name
                );
            }
            Err(_) => assert!(via_echo.is_err(), "{}", l.def.name),
        }
    }
    lsms_trace::set_enabled(false);
    let trace = lsms_trace::drain();

    // Trace spans appear under the derived pass label.
    let has_span = trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .any(|e| e.name == "schedule:echo");
    assert!(has_span, "no schedule:echo span in the trace");

    // The PassReport row (the --timings table and the --metrics
    // exposition) carries the same label.
    let report = session.report();
    let record = report.get("schedule:echo").expect("echo pass recorded");
    assert_eq!(record.invocations, loops.len() as u64);
    assert!(record.counters.contains_key("ii"), "{:?}", record.counters);
}

#[test]
fn external_backend_can_verify_and_explain() {
    let _serial = ensure_echo();

    // Simulate-verify runs the kernel built from whatever schedule the
    // backend produced, so it works through the synthetic backend too.
    let mut config = SessionConfig::new(huff_machine());
    config.backend = BackendSelection::named("echo");
    config.verify = Some(lsms::pipeline::VerifySpec::with_trip(10));
    config.codegen = true;
    let session = CompileSession::new(config);
    let unit = session
        .compile_source(
            "loop daxpy(i = 1..n) { real x[], y[]; param real a;
             y[i] = y[i] + a * x[i]; }",
        )
        .expect("compiles");
    session
        .run_loop(&unit.loops[0])
        .expect("verified through the synthetic backend");

    // Empty details render as the graceful explain fallback.
    let entry = lsms::pipeline::lookup_backend("echo").expect("registered");
    assert!(entry.scheduler.describe().details.is_empty());
}
