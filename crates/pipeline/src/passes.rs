//! The static pass registry: every pass the session can run, with the
//! documentation `lsmsc --explain-pass` prints and the canonical ordering
//! used by [`PassReport`](crate::PassReport) serialization.

/// Static description of one named pass.
#[derive(Clone, Copy, Debug)]
pub struct PassInfo {
    /// The pass name, as it appears in reports and `--explain-pass`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer description for `--explain-pass`.
    pub details: &'static str,
    /// The counters this pass records, as `(key, meaning)` pairs.
    pub counters: &'static [(&'static str, &'static str)],
}

/// Every pass the session can run, in pipeline order.
///
/// `schedule:*` passes are alternatives — a session runs the one its
/// configured backend names (the bench evaluation runs three). `unroll`,
/// `regalloc`, `codegen`, and `simulate-verify` run only when the session
/// configuration asks for them.
pub const PASSES: &[PassInfo] = &[
    PassInfo {
        name: "parse",
        summary: "lex and parse DSL source into loop definitions",
        details: "Tokenizes the loop DSL and builds one AST per `loop` \
                  definition. Errors carry the 1-based line:column of the \
                  offending token (code E0101).",
        counters: &[("loops", "loop definitions parsed")],
    },
    PassInfo {
        name: "sema",
        summary: "semantic analysis: symbols, types, subscripts",
        details: "Resolves arrays, parameters, and carried scalars; checks \
                  types and constant-distance subscripts (code E0201).",
        counters: &[("loops", "loop definitions analyzed")],
    },
    PassInfo {
        name: "lower",
        summary: "lower the AST to branch-free SSA with dependence arcs",
        details: "If-conversion, load/store elimination, address lowering, \
                  and exact-distance memory dependence analysis, producing \
                  a scheduler-ready loop body (code E0301). If-conversion \
                  runs fused inside this walk; its work is itemized by the \
                  `if-convert` report entry.",
        counters: &[("ops", "operations emitted across all loops")],
    },
    PassInfo {
        name: "if-convert",
        summary: "conditionals become predicate defines plus guarded ops",
        details: "Accounting view of the if-conversion performed inside \
                  `lower` (the lowering walks the AST once, so the wall \
                  clock is attributed to `lower`): how many operations \
                  ended up guarded and how many predicate values exist.",
        counters: &[
            ("guarded_ops", "operations carrying a guard predicate"),
            ("predicates", "distinct predicate values used as guards"),
        ],
    },
    PassInfo {
        name: "unroll",
        summary: "replicate the body before scheduling (--unroll N)",
        details: "Unrolls the loop body N times, renaming values and \
                  rewriting iteration distances, to exploit fractional \
                  minimum IIs (§3.1). Runs only when requested.",
        counters: &[
            ("factor", "total unroll factor applied"),
            ("ops", "operations after unrolling"),
        ],
    },
    PassInfo {
        name: "depgraph",
        summary: "build the scheduling problem and the §3.1 lower bounds",
        details: "Validates the body, builds the ω-labelled dependence \
                  graph with START/STOP pseudo nodes, assigns functional \
                  units, and computes RecMII/ResMII and the II ceiling \
                  that keeps path sums in 32 bits (codes E0401, E0402, \
                  E0403).",
        counters: &[
            ("nodes", "dependence-graph nodes (including pseudo ops)"),
            ("arcs", "dependence arcs"),
            ("mii", "sum of max(RecMII, ResMII) over loops"),
        ],
    },
    PassInfo {
        name: "mindist",
        summary: "MinDist cache accounting: hits and Floyd-Warshall misses",
        details: "Accounting view of the per-loop MinDist cache (the wall \
                  clock of each matrix lives inside the scheduling pass \
                  that requested it): how many matrix requests hit the \
                  cache, and how many misses paid one fixed-II \
                  Floyd-Warshall each.",
        counters: &[
            ("hits", "requests answered from an already-built matrix"),
            ("misses", "requests that ran a Floyd-Warshall"),
        ],
    },
    PassInfo {
        name: "sched-cache",
        summary: "content-addressed schedule memoization accounting",
        details: "Accounting view of the session's schedule cache (wall \
                  clock ≈ 0; the cost of a miss lives inside the \
                  scheduling pass that paid it): backend runs are keyed \
                  by an alpha-invariant fingerprint of (dependence graph, \
                  machine, backend, options, straight-line flag). Hits \
                  replay the memoized schedule byte-identically; every \
                  miss runs the backend and memoizes its result.",
        counters: &[
            ("hits", "backend runs answered from the in-memory cache"),
            (
                "misses",
                "backend runs that executed and memoized a scheduler",
            ),
        ],
    },
    PassInfo {
        name: "schedule:slack",
        summary: "bidirectional slack modulo scheduling (§4-§5)",
        details: "The paper's lifetime-sensitive scheduler: operations are \
                  placed early or late depending on whether stretchable \
                  inputs outnumber stretchable outputs, with limited \
                  ejection backtracking and 4% II escalation (codes E0501 \
                  on failure, E0502 if validation of a produced schedule \
                  fails).",
        counters: SCHED_COUNTERS,
    },
    PassInfo {
        name: "schedule:early",
        summary: "always-early slack scheduling (the §7 ablation)",
        details: "The slack scheduler with the direction heuristic pinned \
                  to early placement — the unidirectional legacy of list \
                  scheduling, used to isolate the value of \
                  bidirectionality.",
        counters: SCHED_COUNTERS,
    },
    PassInfo {
        name: "schedule:late",
        summary: "always-late slack scheduling",
        details: "The slack scheduler with the direction heuristic pinned \
                  to late placement.",
        counters: SCHED_COUNTERS,
    },
    PassInfo {
        name: "schedule:cydrome",
        summary: "Cydrome-style baseline scheduler (§8)",
        details: "The 'old scheduler' the paper compares against: \
                  operation-driven placement without lifetime \
                  sensitivity.",
        counters: SCHED_COUNTERS,
    },
    PassInfo {
        name: "regalloc",
        summary: "rotating register allocation (RR and ICR files)",
        details: "Sorts lifetimes and fits them into the smallest \
                  conflict-free rotating file (§3.2); the paper's claim is \
                  that the result stays within MaxLive + 1 almost always \
                  (code E0601).",
        counters: &[
            ("rr_regs", "rotating registers allocated (RR file)"),
            ("icr_regs", "rotating predicate registers allocated (ICR)"),
            ("max_live", "sum of MaxLive over allocated loops"),
            ("excess", "sum of registers - MaxLive over allocated loops"),
        ],
    },
    PassInfo {
        name: "codegen",
        summary: "emit kernel-only code with rotating specifiers",
        details: "Emits the single-kernel form (plus, when configured, the \
                  modulo-variable-expansion alternative that unrolls \
                  instead of rotating) (code E0701).",
        counters: &[
            ("kernel_insts", "instructions in rotating-file kernels"),
            ("mve_insts", "instructions in MVE kernels"),
            ("mve_unroll", "sum of MVE unroll factors"),
        ],
    },
    PassInfo {
        name: "simulate-verify",
        summary: "run the kernel and compare against the reference",
        details: "Executes the kernels codegen emitted for this loop (the \
                  rotating-file kernel, plus the MVE kernel when one is \
                  emitted) on the VLIW simulator with seeded inputs and \
                  compares every array element bit for bit against the \
                  reference interpreter; it schedules nothing itself \
                  (codes E0801 for execution faults, E0802 for \
                  mismatches).",
        counters: &[
            ("cycles", "machine cycles simulated"),
            ("elements", "array elements compared"),
        ],
    },
];

/// The counters every `schedule:*` pass records — shared by the built-in
/// backends and, by convention, by runtime-registered ones (the
/// `backend-audit` xtask checks the built-ins keep using exactly this
/// set).
pub const SCHED_COUNTERS: &[(&str, &str)] = &[
    ("ii", "sum of achieved IIs"),
    ("central_iterations", "central-loop iterations (§4.2)"),
    ("step3_invocations", "ejection (Step 3) invocations"),
    ("ejected_ops", "operations ejected"),
    ("step6_restarts", "II increments (Step 6)"),
    ("attempts", "II values attempted"),
    ("failures", "loops that failed to pipeline"),
    (
        "budget_capped",
        "escalations cut short by a blown --pass-budget",
    ),
    (
        "degraded",
        "loops this backend scheduled as a budget fallback",
    ),
];

/// Looks up a pass by name.
pub fn pass_info(name: &str) -> Option<&'static PassInfo> {
    PASSES.iter().find(|p| p.name == name)
}

/// The canonical position of a pass name in reports (unknown names sort
/// last, in first-recorded order).
pub(crate) fn pass_order(name: &str) -> usize {
    PASSES
        .iter()
        .position(|p| p.name == name)
        .unwrap_or(PASSES.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        assert!(pass_info("schedule:slack").is_some());
        assert!(pass_info("simulate-verify").is_some());
        assert!(pass_info("no-such-pass").is_none());
        // Names are unique.
        for (i, p) in PASSES.iter().enumerate() {
            assert_eq!(pass_order(p.name), i, "{}", p.name);
        }
    }
}
