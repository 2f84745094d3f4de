//! The files rendered from the back-end sweeps over corpus slices and
//! from the generator-profile corpora.

use std::fmt::{self, Write};

use lsms_ir::RegClass;
use lsms_machine::Machine;
use lsms_pipeline::{LoopArtifacts, LoopEvaluation, SchedOutcome};
use lsms_regalloc::{allocate_rotating, verify_allocation, Fit, Ordering, Strategy};
use lsms_sched::pressure::{lifetimes, live_vector};

/// The four rotating-allocation strategies `allocation.txt` compares.
const STRATEGIES: [(&str, Ordering, Fit); 4] = [
    ("start/first", Ordering::StartTime, Fit::FirstFit),
    ("start/end", Ordering::StartTime, Fit::EndFit),
    ("long/first", Ordering::LongestFirst, Fit::FirstFit),
    ("long/end", Ordering::LongestFirst, Fit::EndFit),
];

/// `registers − MaxLive` of one scheduled loop under each of the four
/// strategies, every allocation brute-force verified.
pub fn allocation_excess(machine: &Machine, artifacts: &LoopArtifacts) -> [u32; 4] {
    let name = &artifacts.name;
    let problem = artifacts
        .problem(machine)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let schedule = &artifacts.schedule;
    STRATEGIES.map(|(_, ordering, fit)| {
        let strategy = Strategy { ordering, fit };
        let alloc = allocate_rotating(&problem, schedule, RegClass::Rr, strategy)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        verify_allocation(&problem, schedule, RegClass::Rr, &alloc, 16)
            .unwrap_or_else(|(a, b, r)| panic!("{name}: {a} and {b} collide in r{r}"));
        alloc.excess()
    })
}

/// §3.2 footnote 4: rotating register allocation vs the MaxLive bound.
///
/// Rau et al. (PLDI'92) report that good strategies almost always achieve
/// MaxLive — the fact that justifies the paper's use of MaxLive as *the*
/// pressure measure. One row per strategy plus the per-loop best.
pub fn allocation(out: &mut String, excess: &[[u32; 4]]) -> fmt::Result {
    writeln!(
        out,
        "Rotating allocation vs MaxLive over {} scheduled loops",
        excess.len()
    )?;
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "strategy", "= MaxLive", "<= +1", "<= +5", "max excess"
    )?;
    let best: Vec<u32> = excess
        .iter()
        .map(|e| e.iter().copied().min().unwrap_or(0))
        .collect();
    let columns = (0..STRATEGIES.len()).map(|s| excess.iter().map(|e| e[s]).collect::<Vec<_>>());
    let names = STRATEGIES.iter().map(|(n, ..)| *n).chain(["best-of-4"]);
    for (name, data) in names.zip(columns.chain([best])) {
        let n = data.len().max(1) as f64;
        let share = |limit: u32| 100.0 * data.iter().filter(|&&e| e <= limit).count() as f64 / n;
        writeln!(
            out,
            "{:<12} {:>9.1}% {:>9.1}% {:>9.1}% {:>10}",
            name,
            share(0),
            share(1),
            share(5),
            data.iter().max().copied().unwrap_or(0),
        )?;
    }
    writeln!(
        out,
        "(Rau et al.: best strategies stay within MaxLive + 1 almost always.)"
    )
}

/// §4.2 footnote 6: the II-escalation trade-off. "Incrementing II by 1
/// lowered the total II by 45 at the expense of 29% more time spent in
/// the scheduler." Scheduler work is counted in central-loop
/// iterations, so the file is deterministic; `main` prints wall time.
pub fn ii_increment(
    out: &mut String,
    count: usize,
    policies: &[(&str, Vec<&SchedOutcome>); 2],
) -> fmt::Result {
    writeln!(
        out,
        "II escalation policy over {count} loops (paper footnote 6)"
    )?;
    writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>12} {:>12}",
        "policy", "Sum II", "failures", "II attempts", "central its"
    )?;
    let mut totals = [(0u64, 0u64); 2];
    for ((name, outcomes), total) in policies.iter().zip(&mut totals) {
        let sum_ii: u64 = outcomes.iter().map(|o| o.counted_ii()).sum();
        let failures = outcomes.iter().filter(|o| o.ii.is_none()).count();
        let attempts: u64 = outcomes.iter().map(|o| u64::from(o.stats.attempts)).sum();
        let iterations: u64 = outcomes.iter().map(|o| o.stats.central_iterations).sum();
        writeln!(
            out,
            "{name:<14} {sum_ii:>10} {failures:>10} {attempts:>12} {iterations:>12}"
        )?;
        *total = (sum_ii, iterations);
    }
    let [(ii_steps, its_steps), (ii_one, its_one)] = totals;
    writeln!(
        out,
        "\nincrementing by 1 lowers total II by {} at {:+.0}% central-loop iterations \
         (paper: 45 lower at +29% scheduler time)",
        ii_steps as i64 - ii_one as i64,
        100.0 * (its_one as f64 / its_steps.max(1) as f64 - 1.0),
    )
}

/// §3.1's future-work experiment: exploiting fractional lower bounds by
/// unrolling. "If a loop had an exact minimum II of 3/2, then the
/// compiler could unroll the loop once and attempt to schedule for an II
/// of 3." Each entry is a loop's II as written and at ×2 and ×3
/// unrolling; the comparison is on effective II per source iteration.
pub fn unrolling(out: &mut String, loops: &[(&str, u32, [Option<u32>; 2])]) -> fmt::Result {
    let mut improved = 0usize;
    let (mut base_total, mut best_total) = (0f64, 0f64);
    let mut examples = Vec::new();
    for &(name, base_ii, unrolled) in loops {
        let mut best = f64::from(base_ii);
        let mut best_factor = 1u32;
        for (factor, ii) in [2u32, 3].into_iter().zip(unrolled) {
            let Some(ii) = ii else { continue };
            let effective = f64::from(ii) / f64::from(factor);
            if effective + 1e-9 < best {
                best = effective;
                best_factor = factor;
            }
        }
        base_total += f64::from(base_ii);
        best_total += best;
        if best_factor > 1 {
            improved += 1;
            if examples.len() < 10 {
                examples.push(format!(
                    "  {name:<12} II {base_ii} -> {best:.2}/iter at x{best_factor}"
                ));
            }
        }
    }
    writeln!(out, "Fractional-MII unrolling over {} loops:", loops.len())?;
    writeln!(
        out,
        "{improved} loops ({:.1}%) improve their effective II by unrolling x2/x3",
        100.0 * improved as f64 / loops.len().max(1) as f64
    )?;
    writeln!(
        out,
        "total effective II: {base_total:.0} -> {best_total:.1} ({:.2}% faster)",
        100.0 * (base_total - best_total) / base_total.max(1.0)
    )?;
    for e in &examples {
        writeln!(out, "{e}")?;
    }
    Ok(())
}

/// One loop's code and register cost with rotating files and with
/// modulo variable expansion.
#[derive(Clone, Copy, Debug)]
pub struct MveCost {
    /// Rotating-file kernel instructions, `brtop` included.
    pub rot_insts: u64,
    /// MVE instructions (prologue, unrolled kernel, epilogue), `brtop`
    /// included.
    pub mve_insts: u64,
    /// Rotating-file size.
    pub rot_regs: u64,
    /// Registers the MVE kernel names.
    pub mve_regs: u64,
    /// MVE unroll factor.
    pub unroll: u32,
}

impl MveCost {
    /// The costs of a loop compiled with both kernels, if it has both.
    pub fn of(artifacts: &LoopArtifacts) -> Option<Self> {
        let (rot, mve) = (artifacts.kernel.as_ref()?, artifacts.mve.as_ref()?);
        Some(Self {
            rot_insts: rot.num_insts() as u64 + 1,
            mve_insts: mve.total_insts() as u64 + 1,
            rot_regs: u64::from(rot.rr_size),
            mve_regs: u64::from(mve.num_regs),
            unroll: mve.unroll,
        })
    }
}

/// §2.3's hardware trade-off, quantified: rotating register files vs
/// modulo variable expansion, which "can result in a large amount of
/// code expansion. A rotating register file can solve this problem
/// without duplicating code."
pub fn mve(out: &mut String, costs: &[MveCost]) -> fmt::Result {
    let sum = |f: fn(&MveCost) -> u64| costs.iter().map(f).sum::<u64>();
    let (rot_insts, mve_insts) = (sum(|c| c.rot_insts), sum(|c| c.mve_insts));
    let (rot_regs, mve_regs) = (sum(|c| c.rot_regs), sum(|c| c.mve_regs));
    let mut unrolls: Vec<u32> = costs.iter().map(|c| c.unroll).collect();
    unrolls.sort_unstable();
    let median_unroll = unrolls.get(unrolls.len() / 2).copied().unwrap_or(0);
    let max_unroll = unrolls.last().copied().unwrap_or(0);
    writeln!(
        out,
        "Rotating files vs modulo variable expansion over {} loops:",
        costs.len()
    )?;
    writeln!(
        out,
        "{:<26} {:>14} {:>14}",
        "", "rotating", "MVE (no rotation)"
    )?;
    writeln!(
        out,
        "{:<26} {rot_insts:>14} {mve_insts:>14}",
        "static instructions"
    )?;
    writeln!(
        out,
        "{:<26} {rot_regs:>14} {mve_regs:>14}",
        "loop-variant registers"
    )?;
    writeln!(
        out,
        "\ncode expansion: {:.2}x (median unroll x{median_unroll}, max x{max_unroll}); \
         register cost: {:.2}x",
        mve_insts as f64 / rot_insts.max(1) as f64,
        mve_regs as f64 / rot_regs.max(1) as f64,
    )?;
    writeln!(
        out,
        "(§2.3: rotation avoids this duplication entirely — the kernel is emitted once.)"
    )
}

/// Schedule length and peak RR pressure of a body scheduled as one
/// basic block.
pub fn straight_line_cost(machine: &Machine, artifacts: &LoopArtifacts) -> (u64, u64) {
    let problem = artifacts
        .problem(machine)
        .unwrap_or_else(|e| panic!("{}: {e}", artifacts.name));
    let schedule = &artifacts.schedule;
    let lt = lifetimes(&problem, schedule);
    let vector = live_vector(&problem, schedule, &lt, RegClass::Rr);
    let max_live = vector.iter().copied().max().unwrap_or(0);
    (schedule.length() as u64, u64::from(max_live))
}

/// §8's closing suggestion: "Future experimentation may assess how well
/// slack-scheduling would work in the context where IPS has been
/// studied" — lifetime-sensitive scheduling of straight-line code. Each
/// entry is one body's (length, peak pressure) with the bidirectional
/// heuristic and with the always-early ablation (the unidirectional
/// strategy IPS competes against).
pub fn straight_line(out: &mut String, bodies: &[[(u64, u64); 2]]) -> fmt::Result {
    let mut len = [0u64; 2];
    let mut pressure = [0u64; 2];
    let (mut wins, mut losses) = (0usize, 0usize);
    for body in bodies {
        for (slot, &(length, max_live)) in body.iter().enumerate() {
            len[slot] += length;
            pressure[slot] += max_live;
        }
        wins += usize::from(body[0].1 < body[1].1);
        losses += usize::from(body[0].1 > body[1].1);
    }
    writeln!(
        out,
        "Straight-line (basic-block) scheduling over {} bodies:",
        bodies.len()
    )?;
    writeln!(
        out,
        "{:<22} {:>14} {:>14}",
        "", "bidirectional", "always-early"
    )?;
    writeln!(
        out,
        "{:<22} {:>14} {:>14}",
        "total schedule length", len[0], len[1]
    )?;
    writeln!(
        out,
        "{:<22} {:>14} {:>14}",
        "total peak pressure", pressure[0], pressure[1]
    )?;
    writeln!(
        out,
        "\nbidirectional uses fewer registers on {wins} bodies, more on {losses} \
         ({:.1}% pressure saved overall, schedule length {:+.2}%)",
        100.0 * (pressure[1] as f64 - pressure[0] as f64) / pressure[1].max(1) as f64,
        100.0 * (len[0] as f64 / len[1].max(1) as f64 - 1.0),
    )
}

/// How sensitive are the headline results to the synthesized corpus's
/// composition? The real FORTRAN corpus is not redistributable, so the
/// headline metrics are re-run under deliberately skewed generator
/// profiles to show that the paper's *qualitative* claims hold across
/// corpus compositions, not just at the calibrated one.
pub fn corpus_sensitivity(
    out: &mut String,
    count: usize,
    profiles: &[(&str, Vec<LoopEvaluation>)],
) -> fmt::Result {
    writeln!(
        out,
        "Corpus sensitivity ({count} generated loops per profile)"
    )?;
    writeln!(
        out,
        "{:<18} {:>8} {:>8} | {:>10} {:>10} {:>10}",
        "profile", "optimal", "II/MII", "RR bidir", "RR early", "RR old"
    )?;
    for (name, evals) in profiles {
        let (mut optimal, mut total, mut sum_ii, mut sum_mii) = (0usize, 0usize, 0u64, 0u64);
        let mut rr = [0u64; 3];
        for eval in evals {
            // Only loops where all three scheduler variants succeeded count.
            let (Some(bidir_ii), Some(bidir), Some(early), Some(old)) = (
                eval.new.ii,
                eval.new.pressure.as_ref(),
                eval.early.pressure.as_ref(),
                eval.old.pressure.as_ref(),
            ) else {
                continue;
            };
            total += 1;
            optimal += usize::from(bidir_ii == eval.mii);
            sum_ii += u64::from(bidir_ii);
            sum_mii += u64::from(eval.mii);
            for (slot, p) in rr.iter_mut().zip([bidir, early, old]) {
                *slot += u64::from(p.rr_max_live);
            }
        }
        writeln!(
            out,
            "{:<18} {:>7.1}% {:>8.3} | {:>10} {:>10} {:>10}",
            name,
            100.0 * optimal as f64 / total.max(1) as f64,
            sum_ii as f64 / sum_mii.max(1) as f64,
            rr[0],
            rr[1],
            rr[2],
        )?;
    }
    writeln!(
        out,
        "\nExpected invariants: optimal% stays high, RR(bidir) < RR(early) ≈ RR(old) everywhere."
    )
}
