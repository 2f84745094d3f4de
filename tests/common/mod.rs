//! The one way the integration tests compile and verify a loop: a
//! `CompileSession` with simulate-verify on, which schedules with the
//! named backend, allocates both register files, emits the kernels and
//! checks each of them bit for bit against the reference interpreter.

use lsms::front::CompiledLoop;
use lsms::machine::Machine;
use lsms::pipeline::{BackendSelection, CompileSession, LsmsError, SessionConfig, VerifySpec};
use lsms::sim::EquivReport;

/// Runs `compiled` through a session on `machine` with `backend`
/// (`slack`, `early`, `late`, ...), verifying the rotating-file kernel
/// and, when `mve` is set, the modulo-variable-expansion kernel too.
/// Returns the rotating kernel's report.
pub fn verify(
    compiled: &CompiledLoop,
    machine: &Machine,
    backend: &str,
    spec: VerifySpec,
    mve: bool,
) -> Result<EquivReport, LsmsError> {
    let mut config = SessionConfig::new(machine.clone());
    config.backend = BackendSelection::named(backend);
    config.mve = mve;
    config.verify = Some(spec);
    let artifacts = CompileSession::new(config).run_loop(compiled)?;
    Ok(artifacts.equiv.expect("verify is on"))
}
