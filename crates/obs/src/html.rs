//! Self-contained HTML dashboard for the quality observatory.
//!
//! One static page, no JavaScript and no external assets: a summary
//! header, per-backend rollup tables with distribution bars, and the
//! per-loop record table.

use crate::{QualityRollup, II_GAP_BUCKETS, MAX_LIVE_BUCKETS};
use std::fmt::Write as _;

/// Renders the dashboard.
pub fn quality_dashboard_html(rollup: &QualityRollup) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(
        out,
        "<title>lsms schedule quality — {}</title>",
        esc(&rollup.machine)
    );
    out.push_str(STYLE);
    out.push_str("</head>\n<body>\n");
    let _ = writeln!(
        out,
        "<h1>Schedule quality — <code>{}</code></h1>",
        esc(&rollup.machine)
    );

    // Headline numbers.
    let scheduled: usize = rollup.backends.iter().map(|b| b.scheduled).sum();
    let at_mii: usize = rollup.backends.iter().map(|b| b.at_mii).sum();
    let degraded: usize = rollup.backends.iter().map(|b| b.degraded).sum();
    out.push_str("<div class=\"cards\">\n");
    for (label, value) in [
        ("loops", rollup.loops.to_string()),
        ("records", rollup.records.len().to_string()),
        (
            "scheduled",
            format!("{scheduled} / {}", rollup.records.len()),
        ),
        ("at MII", at_mii.to_string()),
        ("degraded", degraded.to_string()),
        ("&Sigma;II", rollup.ii_sum().to_string()),
        ("&Sigma;MII", rollup.mii_sum().to_string()),
        ("&Sigma;MaxLive", rollup.max_live_sum().to_string()),
    ] {
        let _ = writeln!(
            out,
            "<div class=\"card\"><div class=\"v\">{value}</div><div class=\"k\">{label}</div></div>"
        );
    }
    out.push_str("</div>\n");

    out.push_str("<h2>Backends</h2>\n");
    out.push_str("<table>\n<tr><th>backend</th><th>loops</th><th>scheduled</th><th>at MII</th><th>degraded</th><th>&Sigma;II</th><th>&Sigma;MII</th><th>II p50/p99</th><th>MaxLive p50/p99/max</th><th>&Sigma;lifetime</th><th>ejected</th><th>backtracks</th><th>wall ms</th></tr>\n");
    for b in &rollup.backends {
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{} / {}</td><td>{} / {} / {}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td></tr>",
            esc(&b.backend),
            b.loops,
            b.scheduled,
            b.at_mii,
            b.degraded,
            b.ii.sum,
            b.mii_sum,
            b.ii.p50,
            b.ii.p99,
            b.max_live.p50,
            b.max_live.p99,
            b.max_live.max,
            b.lifetime_sum.sum,
            b.ejected_ops,
            b.backtracks,
            b.wall_us as f64 / 1000.0,
        );
    }
    out.push_str("</table>\n");

    for b in &rollup.backends {
        let _ = writeln!(
            out,
            "<h3><code>{}</code> distributions</h3>",
            esc(&b.backend)
        );
        out.push_str("<div class=\"dists\">\n");
        histogram(
            &mut out,
            "II &minus; MII",
            II_GAP_BUCKETS,
            &b.ii_gap_buckets,
        );
        histogram(&mut out, "MaxLive", MAX_LIVE_BUCKETS, &b.max_live_buckets);
        out.push_str("</div>\n");
    }

    out.push_str("<h2>Loops</h2>\n");
    out.push_str("<table>\n<tr><th>loop</th><th>backend</th><th>pass</th><th>RecMII</th><th>ResMII</th><th>MII</th><th>II</th><th>gap</th><th>MaxLive</th><th>&Sigma;lt</th><th>mean lt</th><th>max lt</th><th>ejected</th><th>backtracks</th><th>wall &micro;s</th></tr>\n");
    for r in &rollup.records {
        let (ii, class) = match r.ii {
            Some(ii) if ii == r.mii => (ii.to_string(), " class=\"good\""),
            Some(ii) => (ii.to_string(), ""),
            None => (format!("&mdash; ({})", r.last_ii), " class=\"bad\""),
        };
        let degraded = if r.degraded { " &#9888;" } else { "" };
        let _ = writeln!(
            out,
            "<tr{class}><td><code>{}</code></td><td>{}{degraded}</td><td><code>{}</code></td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{ii}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{:.2}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&r.loop_name),
            esc(&r.backend),
            esc(&r.pass),
            r.rec_mii,
            r.res_mii,
            r.mii,
            r.ii_gap(),
            r.max_live,
            r.lifetime_sum,
            r.lifetime_mean(),
            r.lifetime_max,
            r.ejected_ops,
            r.backtracks,
            r.wall_us,
        );
    }
    out.push_str("</table>\n</body>\n</html>\n");
    out
}

/// Horizontal-bar histogram for one bucketed distribution.
fn histogram(out: &mut String, label: &str, labels: &[&str], counts: &[u64]) {
    let peak = counts.iter().copied().max().unwrap_or(0).max(1);
    let _ = writeln!(out, "<div class=\"dist\"><div class=\"k\">{label}</div>");
    for (l, &c) in labels.iter().zip(counts) {
        let pct = 100.0 * c as f64 / peak as f64;
        let _ = writeln!(
            out,
            "<div class=\"row\"><span class=\"lbl\">{l}</span>\
             <span class=\"bar\" style=\"width: {pct:.0}%\"></span>\
             <span class=\"cnt\">{c}</span></div>"
        );
    }
    out.push_str("</div>\n");
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

// The `.spark*` and `.note` rules style nothing any more; they stay so
// the page is byte-identical to dashboards written before.
const STYLE: &str = "<style>\n\
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 72em; padding: 0 1em; color: #1a1a1a; }\n\
h1, h2, h3 { font-weight: 600; }\n\
code { font: 0.92em/1 ui-monospace, monospace; }\n\
table { border-collapse: collapse; margin: 0.8em 0 1.6em; }\n\
th, td { border: 1px solid #d5d5d5; padding: 0.25em 0.6em; text-align: right; }\n\
th { background: #f2f2f2; }\n\
td:first-child, th:first-child { text-align: left; }\n\
tr.good td { background: #f0f8f0; }\n\
tr.bad td { background: #fcf0f0; }\n\
.cards { display: flex; flex-wrap: wrap; gap: 0.8em; margin: 1em 0; }\n\
.card { border: 1px solid #d5d5d5; border-radius: 6px; padding: 0.5em 1em; min-width: 6em; text-align: center; }\n\
.card .v { font-size: 1.4em; font-weight: 600; }\n\
.card .k, .spark .k, .dist .k { color: #666; font-size: 0.85em; }\n\
.sparks, .dists { display: flex; flex-wrap: wrap; gap: 2em; margin: 0.6em 0; }\n\
.spark .v { color: #1a1a1a; font-weight: 600; }\n\
.dist { min-width: 20em; }\n\
.dist .row { display: flex; align-items: center; gap: 0.5em; margin: 2px 0; }\n\
.dist .lbl { width: 3.5em; text-align: right; color: #666; font-size: 0.85em; }\n\
.dist .bar { background: #3465a4; height: 0.8em; border-radius: 2px; min-width: 1px; }\n\
.dist .cnt { font-size: 0.85em; color: #444; }\n\
.note { color: #666; font-size: 0.9em; }\n\
</style>\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::record;
    use crate::QualityRollup;

    #[test]
    fn dashboard_is_self_contained() {
        let rollup = QualityRollup::new(
            "huff",
            vec![
                record("a", "slack", 2, 2, 5),
                record("b", "cydrome", 3, 5, 9),
            ],
        );
        let html = quality_dashboard_html(&rollup);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(!html.contains("<script"), "no JS");
        assert!(!html.contains("http"), "no external assets");
        assert!(html.contains("slack") && html.contains("cydrome"));
    }

    #[test]
    fn html_escapes_names() {
        let mut r = record("a<b>", "slack", 2, 2, 5);
        r.loop_name = "x<&>y".into();
        let html = quality_dashboard_html(&QualityRollup::new("m&m", vec![r]));
        assert!(html.contains("x&lt;&amp;&gt;y"));
        assert!(html.contains("m&amp;m"));
        assert!(!html.contains("x<&>y"));
    }
}
