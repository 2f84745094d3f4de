//! Per-pass observability: wall-clock timings and work counters,
//! aggregated across every loop a session touches and serializable to
//! JSON for `lsmsc --timings`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::passes::pass_order;

/// Accumulated measurements for one named pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassRecord {
    /// The pass name (see [`crate::passes::PASSES`]). Pass names are
    /// compile-time constants, so records hold `&'static str` and never
    /// allocate for a name.
    pub name: &'static str,
    /// How many times the pass ran.
    pub invocations: u64,
    /// Total wall-clock time across invocations. Under parallel corpus
    /// evaluation this sums per-thread time, so it can exceed elapsed
    /// real time.
    pub wall: Duration,
    /// Named work counters, summed across invocations. Counter keys are
    /// `&'static str` (every caller passes literals), so the hot corpus
    /// path records counters without any per-call allocation.
    pub counters: BTreeMap<&'static str, u64>,
}

/// Everything a session observed about the passes it ran.
///
/// Records keep canonical pipeline order regardless of the order loops
/// and variants executed in, so reports are deterministic under `--jobs`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    records: Vec<PassRecord>,
}

impl PassReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one pass invocation: `wall` time plus its counter deltas.
    pub fn record(&mut self, name: &'static str, wall: Duration, counters: &[(&'static str, u64)]) {
        let record = self.entry(name);
        record.invocations += 1;
        record.wall += wall;
        for &(key, value) in counters {
            *record.counters.entry(key).or_insert(0) += value;
        }
    }

    /// Adds to one counter of a pass without counting an invocation
    /// (used for out-of-band tallies such as `budget_exceeded`).
    pub fn bump(&mut self, name: &'static str, key: &'static str, delta: u64) {
        *self.entry(name).counters.entry(key).or_insert(0) += delta;
    }

    fn entry(&mut self, name: &'static str) -> &mut PassRecord {
        match self.records.iter().position(|r| r.name == name) {
            Some(i) => &mut self.records[i],
            None => {
                // Registry passes keep pipeline order; passes the registry
                // doesn't know (all sharing the same sentinel order) tie-break
                // by name, so report order never depends on which worker
                // thread recorded an unknown pass first.
                let key = |n: &'static str| (pass_order(n), n);
                let at = self
                    .records
                    .iter()
                    .position(|r| key(r.name) > key(name))
                    .unwrap_or(self.records.len());
                self.records.insert(
                    at,
                    PassRecord {
                        name,
                        ..PassRecord::default()
                    },
                );
                &mut self.records[at]
            }
        }
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &PassReport) {
        for r in &other.records {
            let mine = self.entry(r.name);
            mine.invocations += r.invocations;
            mine.wall += r.wall;
            for (&k, v) in &r.counters {
                *mine.counters.entry(k).or_insert(0) += v;
            }
        }
    }

    /// The recorded passes, in canonical pipeline order.
    pub fn passes(&self) -> &[PassRecord] {
        &self.records
    }

    /// The record for one pass, if it ran.
    pub fn get(&self, name: &str) -> Option<&PassRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// True if no pass has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the report as JSON:
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "passes": [
    ///     {"name": "parse", "invocations": 1, "wall_us": 42,
    ///      "counters": {"loops": 1}},
    ///     ...
    ///   ]
    /// }
    /// ```
    ///
    /// The shape is stable: `schema_version` bumps on breaking changes,
    /// passes keep canonical pipeline order (unknown ones sorted by
    /// name), and counter keys are `BTreeMap`-ordered — so diffs of two
    /// reports never flake on map ordering.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": 1,\n  \"passes\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"invocations\": {}, \"wall_us\": {}, \"counters\": {{",
                r.name,
                r.invocations,
                r.wall.as_micros()
            );
            for (j, (k, v)) in r.counters.iter().enumerate() {
                let _ = write!(out, "{}\"{k}\": {v}", if j == 0 { "" } else { ", " });
            }
            let _ = writeln!(
                out,
                "}}}}{}",
                if i + 1 == self.records.len() { "" } else { "," }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A human-readable table of the report (used by `--explain-pass` and
    /// handy in logs).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<18} {:>6} {:>12}  counters", "pass", "runs", "wall");
        for r in &self.records {
            let mut counters: Vec<String> =
                r.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            if counters.is_empty() {
                counters.push("-".to_owned());
            }
            let _ = writeln!(
                out,
                "{:<18} {:>6} {:>12.2?}  {}",
                r.name,
                r.invocations,
                r.wall,
                counters.join(" ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_keep_canonical_order() {
        let mut report = PassReport::new();
        report.record("regalloc", Duration::from_micros(5), &[("rr_regs", 4)]);
        report.record("parse", Duration::from_micros(2), &[("loops", 1)]);
        report.record("schedule:slack", Duration::from_micros(9), &[("ii", 3)]);
        report.record("parse", Duration::from_micros(1), &[("loops", 2)]);
        let names: Vec<&str> = report.passes().iter().map(|r| r.name).collect();
        assert_eq!(names, ["parse", "schedule:slack", "regalloc"]);
        let parse = report.get("parse").unwrap();
        assert_eq!(parse.invocations, 2);
        assert_eq!(parse.wall, Duration::from_micros(3));
        assert_eq!(parse.counters["loops"], 3);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = PassReport::new();
        a.record("parse", Duration::from_micros(2), &[("loops", 1)]);
        let mut b = PassReport::new();
        b.record("parse", Duration::from_micros(3), &[("loops", 4)]);
        b.record("depgraph", Duration::from_micros(7), &[("arcs", 9)]);
        a.merge(&b);
        assert_eq!(a.get("parse").unwrap().invocations, 2);
        assert_eq!(a.get("parse").unwrap().counters["loops"], 5);
        assert_eq!(a.get("depgraph").unwrap().counters["arcs"], 9);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut report = PassReport::new();
        report.record("parse", Duration::from_micros(42), &[("loops", 1)]);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 1,\n"));
        assert!(json.contains("\"name\": \"parse\""));
        assert!(json.contains("\"wall_us\": 42"));
        assert!(json.contains("\"loops\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// Passes the registry doesn't know (runtime-registered backends)
    /// all share one sentinel order; their report position must not
    /// depend on which one happened to record first.
    #[test]
    fn unknown_passes_order_by_name_not_arrival() {
        let mut a = PassReport::new();
        a.record("schedule:zeta", Duration::from_micros(1), &[]);
        a.record("schedule:acme", Duration::from_micros(1), &[]);
        a.record("parse", Duration::from_micros(1), &[]);
        let mut b = PassReport::new();
        b.record("parse", Duration::from_micros(1), &[]);
        b.record("schedule:acme", Duration::from_micros(1), &[]);
        b.record("schedule:zeta", Duration::from_micros(1), &[]);
        let names = |r: &PassReport| -> Vec<&str> { r.passes().iter().map(|p| p.name).collect() };
        assert_eq!(names(&a), names(&b));
        assert_eq!(names(&a), ["parse", "schedule:acme", "schedule:zeta"]);
    }
}
