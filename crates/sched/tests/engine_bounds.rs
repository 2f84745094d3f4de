//! The engine's bounds maintenance against a pinned outcome digest, over
//! seeded random dependence graphs.
//!
//! Estart/Lstart maintenance is pure cost: every bound is the same max or
//! min over the same placed set however it is computed, so schedules,
//! §6 counters and heuristic decisions must not move when the bounds code
//! does. This suite folds every random case's outcome into one digest,
//! recorded before the dense two-way `MinDist` replaced the reachability
//! lists, and demands it stays put. The per-step from-scratch check of
//! the bounds themselves is a unit test in `engine.rs`.

mod random_ddg;

use lsms_machine::huff_machine;
use lsms_prng::SmallRng;
use lsms_sched::{
    CydromeScheduler, DecisionStats, EngineWorkspace, MinDistCache, SchedProblem, Schedule,
    SlackScheduler,
};

use random_ddg::{body_from, cydrome_case, random_arcs, slack_case};

/// FNV-1a over 64-bit words: a stable, dependency-free digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Everything observable about a schedule that the bounds code must
    /// not move: the result and the deterministic §6 work counters
    /// (`elapsed` and the cost counters are excluded by design).
    fn schedule(&mut self, s: &Schedule) {
        self.word(u64::from(s.ii));
        self.word(s.times.len() as u64);
        for &t in &s.times {
            self.word(t as u64);
        }
        for a in &s.assignments {
            self.word(a.class.index() as u64);
            self.word(u64::from(a.instance));
        }
        self.word(s.stats.central_iterations);
        self.word(s.stats.step3_invocations);
        self.word(s.stats.ejected_ops);
        self.word(s.stats.step6_restarts);
        self.word(u64::from(s.stats.attempts));
    }

    fn decisions(&mut self, d: &DecisionStats) {
        for w in [
            d.zero_slack,
            d.isolated_early,
            d.early_more_inputs,
            d.late_more_outputs,
            d.tie_early,
            d.tie_late,
            d.unique_min_priority,
            d.selections,
        ] {
            self.word(w);
        }
    }
}

/// Digest of the 96 slack cases' schedules and decisions, recorded with
/// the reachability-list engine.
const SLACK_DIGEST: u64 = 0x32b6_5837_a887_7f74;
/// Digest of the 48 Cydrome cases' schedules, recorded likewise.
const CYDROME_DIGEST: u64 = 0x3949_ad84_d7a1_294c;

#[test]
fn slack_outcomes_match_the_pinned_digest() {
    let scheduler = SlackScheduler::new();
    let machine = huff_machine();
    let mut digest = Digest::new();
    let mut ejection_cases = 0u32;
    for case in 0u64..96 {
        let body = slack_case(case);
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let (res, decisions) = scheduler.run_in(
            &problem,
            &MinDistCache::new(),
            None,
            &mut EngineWorkspace::new(),
        );
        let sched = res.unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        assert!(sched.stats.bounds_cells_touched > 0, "case {case}");
        digest.schedule(&sched);
        digest.decisions(&decisions);
        if sched.stats.ejected_ops > 0 {
            ejection_cases += 1;
        }
    }
    // The digest only guards the backtracking path (forced placements,
    // dependence ejections, bound refreshes) if that path runs.
    assert!(
        ejection_cases >= 8,
        "only {ejection_cases} ejection-heavy cases; the sweep no longer \
         exercises the §4.4 path"
    );
    assert_eq!(digest.0, SLACK_DIGEST, "slack digest {:#018x}", digest.0);
}

#[test]
fn cydrome_outcomes_match_the_pinned_digest() {
    let scheduler = CydromeScheduler::new();
    let machine = huff_machine();
    let mut digest = Digest::new();
    for case in 0u64..48 {
        let body = cydrome_case(case);
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        let sched = scheduler
            .run_in(&problem, &MinDistCache::new(), &mut EngineWorkspace::new())
            .unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        digest.schedule(&sched);
    }
    assert_eq!(
        digest.0, CYDROME_DIGEST,
        "cydrome digest {:#018x}",
        digest.0
    );
}

/// Workspace recycling across problems must not leak ready-set, bound or
/// placement-time state between runs: one long-lived workspace over the
/// whole sweep produces the same schedules as fresh workspaces.
#[test]
fn recycled_workspaces_preserve_schedules() {
    let scheduler = SlackScheduler::new();
    let machine = huff_machine();
    let mut recycled = EngineWorkspace::new();
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0x2ec1 + case);
        let body = body_from(&random_arcs(&mut rng, 12, 23), 12);
        let problem = SchedProblem::new(&body, &machine).expect("buildable");
        // Caches serve exactly one problem; only the workspace persists.
        let (a, da) = scheduler.run_in(&problem, &MinDistCache::new(), None, &mut recycled);
        let (b, db) = scheduler.run_in(
            &problem,
            &MinDistCache::new(),
            None,
            &mut EngineWorkspace::new(),
        );
        let (a, b) = (a.expect("recycled run"), b.expect("fresh run"));
        let mut fa = Digest::new();
        fa.schedule(&a);
        let mut fb = Digest::new();
        fb.schedule(&b);
        assert_eq!(fa.0, fb.0, "case {case}");
        assert_eq!(da, db, "case {case}");
    }
}
