//! `compare A.json B.json`: the rule later changes are judged by. For
//! every (end-to-end metric, workload) pair the medians of two suite
//! files are held against the bound `BENCHMARK.json` fixes, and the pair
//! is reported as improved, unchanged, unresolved or regressed.

use crate::env::repo_root;
use crate::json::Json;
use crate::stats;
use crate::suite::{fail_share, values};
use crate::workload::{Res, Workload};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// Run-to-run spread is wider than the bound: the data cannot tell.
    Unresolved,
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judge one pair. `worse` is B's loss against A as a share of A's
/// median (negative = better); `spread` is the wider of the two sides'
/// quartile spreads when repeats exist. A gain counts only beyond the
/// spread — or, with single runs, beyond the bound itself.
pub fn judge(worse: f64, spread: Option<f64>, bound: f64) -> Verdict {
    match spread {
        Some(s) if s > bound => Verdict::Unresolved,
        _ if worse > bound => Verdict::Regressed,
        _ if -worse > spread.unwrap_or(bound) => Verdict::Improved,
        _ => Verdict::Unchanged,
    }
}

/// B's loss against A as a share of A, given which direction is better.
pub fn loss(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn run(args: &Args) -> Res<bool> {
    let [_, a_path, b_path] = args.words.as_slice() else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |p: &str| -> Res<Json> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load(&repo_root().join("BENCHMARK.json").to_string_lossy())?;

    println!(
        "{:<22}{:<15}{:>12}{:>12}{:>9}{:>9}{:>8}  verdict",
        "metric", "workload", "A", "B", "change", "spread", "bound"
    );
    let mut regressions = 0;
    for w in Workload::ALL {
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (
                values(&a, w.name(), false, name),
                values(&b, w.name(), false, name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let spread = match (stats::quartile_spread(&va), stats::quartile_spread(&vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let worse = loss(ma, mb, lower);
            let verdict = judge(worse, spread, bound);
            regressions += (verdict == Verdict::Regressed) as usize;
            println!(
                "{:<22}{:<15}{:>12.4}{:>12.4}{:>+8.1}%{:>9}{:>7.0}%  {}",
                name,
                w.name(),
                ma,
                mb,
                (mb / ma - 1.0) * 100.0,
                spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                bound * 100.0,
                verdict.name()
            );
        }
        // Any increase in failures is a regression, whatever the timings say.
        let (fa, fb) = (fail_share(&a, w.name()), fail_share(&b, w.name()));
        let verdict = if fb > fa {
            regressions += 1;
            Verdict::Regressed
        } else if fb < fa {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        println!(
            "{:<22}{:<15}{:>12.4}{:>12.4}{:>9}{:>9}{:>8}  {}",
            "fail_share",
            w.name(),
            fa,
            fb,
            "",
            "",
            "0%",
            verdict.name()
        );
    }
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // 12% slower against a 10% bound.
        assert_eq!(judge(0.12, Some(0.02), 0.10), Verdict::Regressed);
        // Within the bound either way.
        assert_eq!(judge(0.05, Some(0.02), 0.10), Verdict::Unchanged);
        assert_eq!(judge(-0.01, Some(0.02), 0.10), Verdict::Unchanged);
        // A gain counts once it clears the spread.
        assert_eq!(judge(-0.05, Some(0.02), 0.10), Verdict::Improved);
        // Spread wider than the bound: the data cannot tell.
        assert_eq!(judge(0.30, Some(0.15), 0.10), Verdict::Unresolved);
        // Single runs: only a gain beyond the bound counts.
        assert_eq!(judge(-0.05, None, 0.10), Verdict::Unchanged);
        assert_eq!(judge(-0.15, None, 0.10), Verdict::Improved);
    }

    #[test]
    fn loss_respects_direction() {
        assert!((loss(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((loss(100.0, 110.0, false) + 0.10).abs() < 1e-12);
    }
}
