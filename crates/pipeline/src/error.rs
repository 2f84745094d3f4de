//! The unified diagnostic type shared by every pipeline stage.
//!
//! Every per-crate error enum — [`FrontError`], [`BodyError`],
//! [`ProblemError`], [`SchedFailure`], [`ScheduleError`], [`AllocError`],
//! [`CodegenError`], [`SimError`] — converts into one [`LsmsError`]
//! carrying a stable error code, the [`Stage`] that produced it, and a
//! source [`Span`] when the front end has one. Drivers render the error
//! uniformly (`error[E0101]: 3:7: unexpected token`) and map the stage to
//! a process exit code, so `lsmsc`'s callers can tell a parse error from
//! a schedule failure from a simulation mismatch without scraping text.

use std::fmt;

use lsms_codegen::CodegenError;
use lsms_front::{FrontError, Span};
use lsms_ir::BodyError;
use lsms_regalloc::AllocError;
use lsms_sched::{ProblemError, SchedFailure, ScheduleError};
use lsms_sim::SimError;

/// The pipeline stage a diagnostic originated from.
///
/// Stages are ordered like the pass pipeline; each maps to a distinct
/// process exit code via [`Stage::exit_code`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Command-line / configuration misuse (exit 2).
    Usage,
    /// Reading source files or writing outputs (exit 3).
    Io,
    /// Lexing and parsing (exit 4).
    Parse,
    /// Semantic analysis (exit 5).
    Sema,
    /// Lowering: if-conversion, load/store elimination, address
    /// generation (exit 6).
    Lower,
    /// Dependence-graph construction and body validation (exit 7).
    DepGraph,
    /// Modulo scheduling (exit 8).
    Schedule,
    /// Rotating register allocation (exit 9).
    Regalloc,
    /// Kernel code emission (exit 10).
    Codegen,
    /// Simulation and equivalence verification (exit 11).
    Simulate,
}

impl Stage {
    /// The process exit code `lsmsc` uses for diagnostics from this stage.
    pub fn exit_code(self) -> u8 {
        match self {
            Stage::Usage => 2,
            Stage::Io => 3,
            Stage::Parse => 4,
            Stage::Sema => 5,
            Stage::Lower => 6,
            Stage::DepGraph => 7,
            Stage::Schedule => 8,
            Stage::Regalloc => 9,
            Stage::Codegen => 10,
            Stage::Simulate => 11,
        }
    }

    /// The stage's short name, as used in pass names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Usage => "usage",
            Stage::Io => "io",
            Stage::Parse => "parse",
            Stage::Sema => "sema",
            Stage::Lower => "lower",
            Stage::DepGraph => "depgraph",
            Stage::Schedule => "schedule",
            Stage::Regalloc => "regalloc",
            Stage::Codegen => "codegen",
            Stage::Simulate => "simulate",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic from any pipeline stage.
///
/// The `code` is stable across releases: tooling may match on it. Codes
/// are grouped by stage — `E00xx` usage/IO, `E01xx` parse, `E02xx` sema,
/// `E03xx` lower, `E04xx` dependence graph, `E05xx` schedule, `E06xx`
/// register allocation, `E07xx` codegen, `E08xx` simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct LsmsError {
    /// The stage that produced the diagnostic.
    pub stage: Stage,
    /// Stable machine-matchable error code (`E0101`, ...).
    pub code: &'static str,
    /// Source location, where the front end has one.
    pub span: Option<Span>,
    /// Human-readable description.
    pub message: String,
}

impl LsmsError {
    /// Builds a diagnostic with no source span.
    pub fn new(stage: Stage, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            stage,
            code,
            span: None,
            message: message.into(),
        }
    }

    /// An I/O failure (`E0001`).
    pub fn io(message: impl Into<String>) -> Self {
        Self::new(Stage::Io, "E0001", message)
    }

    /// A configuration / usage error (`E0002`), e.g. `--run` combined
    /// with `--unroll`.
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(Stage::Usage, "E0002", message)
    }

    /// An unknown or malformed scheduler-backend selection (`E0003`):
    /// a `--backend` name absent from the registry, or an option its
    /// backend rejects.
    pub fn backend(message: impl Into<String>) -> Self {
        Self::new(Stage::Usage, "E0003", message)
    }

    /// A front-end error attributed to an explicit stage: the front end
    /// reports lexical, syntactic, and semantic problems with one type,
    /// so the session tags each with the pass that raised it.
    pub fn from_front(e: FrontError, stage: Stage) -> Self {
        let code = match stage {
            Stage::Sema => "E0201",
            Stage::Lower => "E0301",
            _ => "E0101",
        };
        Self {
            stage,
            code,
            span: Some(e.span),
            message: e.message,
        }
    }

    /// An equivalence-verification mismatch or harness failure (`E0802`).
    pub fn verification(message: impl Into<String>) -> Self {
        Self::new(Stage::Simulate, "E0802", message)
    }

    /// Renders the diagnostic the way `lsmsc` prints it:
    /// `error[E0101]: FILE:3:7: unexpected token`, with the `FILE:` part
    /// present only when an origin is given and the `LINE:COL:` part only
    /// when the stage had a source span.
    pub fn render(&self, origin: Option<&str>) -> String {
        let mut out = format!("error[{}]: ", self.code);
        if let Some(file) = origin {
            out.push_str(file);
            out.push(':');
        }
        if let Some(span) = self.span {
            out.push_str(&format!("{span}: "));
        } else if origin.is_some() {
            out.push(' ');
        }
        out.push_str(&self.message);
        out.push_str(&format!(" [{}]", self.stage));
        out
    }

    /// The process exit code for this diagnostic's stage.
    pub fn exit_code(&self) -> u8 {
        self.stage.exit_code()
    }
}

impl fmt::Display for LsmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(None))
    }
}

impl std::error::Error for LsmsError {}

impl From<FrontError> for LsmsError {
    fn from(e: FrontError) -> Self {
        Self::from_front(e, Stage::Parse)
    }
}

impl From<BodyError> for LsmsError {
    fn from(e: BodyError) -> Self {
        Self::new(Stage::DepGraph, "E0401", format!("invalid loop body: {e}"))
    }
}

impl From<ProblemError> for LsmsError {
    fn from(e: ProblemError) -> Self {
        match e {
            ProblemError::Body(b) => b.into(),
            ProblemError::ZeroOmegaCycle => Self::new(Stage::DepGraph, "E0402", e.to_string()),
            ProblemError::PathRange { .. } => Self::new(Stage::DepGraph, "E0403", e.to_string()),
        }
    }
}

impl From<SchedFailure> for LsmsError {
    fn from(e: SchedFailure) -> Self {
        if e.out_of_range {
            return Self::new(Stage::DepGraph, "E0403", e.to_string());
        }
        Self::new(
            Stage::Schedule,
            "E0501",
            format!(
                "no feasible schedule up to II {} ({} II attempts)",
                e.last_ii, e.stats.attempts
            ),
        )
    }
}

impl From<ScheduleError> for LsmsError {
    fn from(e: ScheduleError) -> Self {
        Self::new(
            Stage::Schedule,
            "E0502",
            format!("schedule validation failed: {e}"),
        )
    }
}

impl From<AllocError> for LsmsError {
    fn from(e: AllocError) -> Self {
        Self::new(Stage::Regalloc, "E0601", e.to_string())
    }
}

impl From<CodegenError> for LsmsError {
    fn from(e: CodegenError) -> Self {
        Self::new(Stage::Codegen, "E0701", e.to_string())
    }
}

impl From<SimError> for LsmsError {
    fn from(e: SimError) -> Self {
        Self::new(Stage::Simulate, "E0801", e.to_string())
    }
}

impl From<std::io::Error> for LsmsError {
    fn from(e: std::io::Error) -> Self {
        Self::io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let stages = [
            Stage::Usage,
            Stage::Io,
            Stage::Parse,
            Stage::Sema,
            Stage::Lower,
            Stage::DepGraph,
            Stage::Schedule,
            Stage::Regalloc,
            Stage::Codegen,
            Stage::Simulate,
        ];
        let codes: Vec<u8> = stages.iter().map(|s| s.exit_code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), stages.len(), "exit codes must be distinct");
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn render_includes_code_origin_and_span() {
        let e = LsmsError::from_front(
            FrontError {
                span: Span { line: 3, col: 7 },
                message: "unexpected token".into(),
            },
            Stage::Parse,
        );
        assert_eq!(
            e.render(Some("x.loop")),
            "error[E0101]: x.loop:3:7: unexpected token [parse]"
        );
        assert_eq!(e.to_string(), "error[E0101]: 3:7: unexpected token [parse]");
    }

    #[test]
    fn every_source_enum_converts_with_its_stage() {
        let f: LsmsError = SchedFailure {
            last_ii: 40,
            stats: Default::default(),
            deadline_capped: false,
            out_of_range: false,
        }
        .into();
        assert_eq!((f.stage, f.code), (Stage::Schedule, "E0501"));
        let r: LsmsError = SchedFailure {
            last_ii: 40,
            stats: Default::default(),
            deadline_capped: false,
            out_of_range: true,
        }
        .into();
        assert_eq!((r.stage, r.code), (Stage::DepGraph, "E0403"));
        let a: LsmsError = AllocError::CapExceeded { cap: 512 }.into();
        assert_eq!((a.stage, a.code), (Stage::Regalloc, "E0601"));
        let p: LsmsError = ProblemError::ZeroOmegaCycle.into();
        assert_eq!((p.stage, p.code), (Stage::DepGraph, "E0402"));
        let p: LsmsError = ProblemError::PathRange { mii: 9, ceiling: 8 }.into();
        assert_eq!((p.stage, p.code), (Stage::DepGraph, "E0403"));
        let s: LsmsError = SimError::MemoryOutOfBounds { addr: -8 }.into();
        assert_eq!((s.stage, s.code), (Stage::Simulate, "E0801"));
    }
}
