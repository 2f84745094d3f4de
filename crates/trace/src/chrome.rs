//! Chrome trace-event JSON exporter.
//!
//! Produces the [Trace Event Format] consumed by Perfetto and
//! `chrome://tracing`: one `B`/`E` event pair per span, `i` (instant)
//! events for decisions, all under a single process with one `tid` per
//! collector thread. Load the file in <https://ui.perfetto.dev> to see
//! each corpus worker as a timeline row of pass spans.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use crate::{Phase, Trace};

/// Serializes a drained trace as Chrome trace-event JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("{\n\"traceEvents\": [\n");
    let mut first = true;
    for thread in &trace.threads {
        for event in &thread.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ph = match event.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \"pid\": 1, \"tid\": {}",
                escape(event.name),
                ph,
                event.ts_us,
                thread.tid
            );
            if event.phase == Phase::Instant {
                // Thread-scoped instants render as arrows on the row.
                out.push_str(", \"s\": \"t\"");
            }
            if event.nargs > 0 {
                out.push_str(", \"args\": {");
                for (i, (key, value)) in event.args().iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{}\": {}",
                        if i == 0 { "" } else { ", " },
                        escape(key),
                        value
                    );
                }
                out.push('}');
            }
            out.push('}');
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// Escapes a string for a JSON literal (names here are static
/// identifiers, but the exporter must not be the thing that breaks if
/// one ever contains a quote).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, ThreadTrace, MAX_ARGS};

    fn event(name: &'static str, phase: Phase, ts_us: u64) -> Event {
        Event {
            name,
            phase,
            ts_us,
            args: [("", 0); MAX_ARGS],
            nargs: 0,
        }
    }

    #[test]
    fn exports_balanced_pairs_and_instants() {
        let mut place = event("sched.place", Phase::Instant, 5);
        place.args[0] = ("op", 2);
        place.args[1] = ("cycle", 7);
        place.nargs = 2;
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 3,
                events: vec![
                    event("parse", Phase::Begin, 1),
                    event("parse", Phase::End, 4),
                    place,
                ],
            }],
        };
        let json = to_chrome_json(&trace);
        assert!(json.contains("\"name\": \"parse\", \"ph\": \"B\", \"ts\": 1"));
        assert!(json.contains("\"ph\": \"E\", \"ts\": 4"));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"args\": {\"op\": 2, \"cycle\": 7}"));
        assert!(json.contains("\"tid\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let json = to_chrome_json(&Trace::default());
        assert!(json.contains("\"traceEvents\": [\n\n]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
