//! `suite`: every workload in a process of its own (the pass memo, the
//! build cache and `VmHWM` are process-global), untraced first, then the
//! traced runs; one result file with provenance, one table on stdout.

use std::process::{Command, Stdio};

use crate::env::{self, OutDir};
use crate::json::Json;
use crate::stats;
use crate::workload::{Res, Workload};
use crate::{Args, DEFAULT_SEED};

/// Run one workload in a child process and read back the record it wrote.
fn child(
    out: &OutDir,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Res<Json> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out.0)
        // The child's table goes to stderr; the suite prints its own.
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    let suffix = if trace { "_traced" } else { "" };
    let path = out.0.join(format!("run_{}{suffix}.json", w.name()));
    // A record left by an earlier run must not pass for this one's.
    let _ = std::fs::remove_file(&path);
    let status = cmd.status()?;
    // Exit code 1 still wrote a record (with `correct: false`); 2 did not.
    if !path.exists() {
        return Err(format!("{} (trace {trace}) failed: {status}", w.name()).into());
    }
    Ok(Json::parse(&std::fs::read_to_string(path)?)?)
}

/// A suite file's runs of one workload, traced or untraced.
fn runs_of<'a>(file: &'a Json, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Json> {
    file.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(move |r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace") == Some(&Json::Bool(trace))
        })
}

/// Values of one metric on one workload over a file's matching runs.
pub fn values(file: &Json, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs_of(file, workload, trace)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The worst share of failed requests among a workload's untraced runs.
pub fn fail_share(file: &Json, workload: &str) -> f64 {
    runs_of(file, workload, false)
        .filter_map(|r| r.get("fail_share").and_then(Json::as_f64))
        .fold(0.0, f64::max)
}

pub fn run(args: &Args) -> Res<bool> {
    let smoke = args.smoke();
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", if smoke { 2.0 } else { 20.0 })?;
    let repeats: u64 = args.num("repeats", 1)?;
    let label = args.get("label").unwrap_or("run");
    let out = OutDir::new(args.out())?;

    let mut runs = Vec::new();
    for trace in [false, true] {
        // Repeats walk the seeds, as the driver's spread check does; the
        // traced pass runs once.
        for rep in 0..if trace { 1 } else { repeats } {
            for w in Workload::ALL {
                eprintln!(
                    "== {} seed {} {}",
                    w.name(),
                    seed + rep,
                    if trace { "traced" } else { "untraced" }
                );
                runs.push(child(&out, w, seed + rep, seconds, trace, smoke)?);
            }
        }
    }
    let all_correct = runs
        .iter()
        .all(|r| r.get("correct") == Some(&Json::Bool(true)));
    let file = Json::obj()
        .with("benchmark", "dblab")
        .with("label", label)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("repeats", repeats)
        .with("smoke", smoke)
        .with("provenance", env::provenance())
        .with("runs", runs);
    let path = out.0.join(format!("BENCH_{label}.json"));
    std::fs::write(&path, file.pretty())?;

    // `name workload value unit [spread]`, medians over the repeats.
    for trace in [false, true] {
        for w in Workload::ALL {
            let Some(first) = runs_of(&file, w.name(), trace).next() else {
                continue;
            };
            for (name, v) in first.get("metrics").map_or(&[][..], Json::fields) {
                let vals = values(&file, w.name(), trace, name);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let spread = stats::quartile_spread(&vals)
                    .map_or(String::new(), |s| format!(" spread {:.1}%", s * 100.0));
                println!(
                    "{name} {} {} {unit}{spread}",
                    w.name(),
                    stats::median(&vals)
                );
            }
            if !trace {
                // Recorded with every run, bounded by nothing (see README).
                let p95: Vec<f64> = runs_of(&file, w.name(), false)
                    .filter_map(|r| {
                        r.get("detail")?
                            .get("end_to_end")?
                            .get("req_p95_ms")?
                            .as_f64()
                    })
                    .collect();
                println!("req_p95_ms {} {} ms", w.name(), stats::median(&p95));
                println!(
                    "fail_share {} {} ratio",
                    w.name(),
                    fail_share(&file, w.name())
                );
            }
        }
    }
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}
