//! The repo's one benchmark. See `benchmark/README.md` for the metric
//! and workload tables; `BENCHMARK.json` at the repo root is the
//! machine-readable contract.
//!
//! ```text
//! dblab-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! dblab-benchmark suite [--seed N] [--seconds S] [--repeats K] [--smoke] [--out DIR] [--label L]
//! dblab-benchmark compare A.json B.json
//! ```
//!
//! A workload run prints progress on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod cold;
mod compare;
mod compile;
mod env;
mod json;
mod layers;
mod metrics;
mod rng;
mod serve;
mod speed;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workload::{Opts, Outcome, Res, Workload};

/// `--flag value` pairs plus bare words, in order.
pub struct Args {
    flags: Vec<(String, String)>,
    pub words: Vec<String>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".into(), "1".into())),
                Some(flag) => {
                    let v = argv.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), v));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{flag}: bad value `{v}`")),
        }
    }

    pub fn smoke(&self) -> bool {
        self.get("smoke").is_some()
    }

    pub fn out(&self) -> Option<PathBuf> {
        self.get("out").map(PathBuf::from)
    }
}

pub const DEFAULT_SEED: u64 = 1;

fn run_workload(args: &Args) -> Res<bool> {
    let name = args.get("workload").ok_or("--workload NAME is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let smoke = args.smoke();
    let opts = Opts {
        workload,
        seed: args.num("seed", DEFAULT_SEED)?,
        seconds: args.num("seconds", if smoke { 2.0 } else { 20.0 })?,
        trace: args.num::<u8>("trace", 0)? != 0,
        smoke,
        out: env::OutDir::new(args.out())?,
    };
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    opts.out.sweep_gen();

    let Outcome {
        attempted,
        failed,
        mut metrics,
        detail,
        spans,
    } = match workload {
        Workload::SteadyJit | Workload::SteadyNative => serve::run(&opts)?,
        Workload::ColdPrepare => cold::run(&opts)?,
        Workload::CompileGcc => compile::run(&opts)?,
    };
    if opts.trace {
        layers::loc(&mut metrics);
    }
    let correct = failed == 0 && attempted > 0;
    let reported = metrics.report(opts.trace)?;
    for (name, v) in reported.fields() {
        eprintln!(
            "{name} {} {} {}",
            workload.name(),
            v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            v.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }

    let suffix = if opts.trace { "_traced" } else { "" };
    let record = Json::obj()
        .with("workload", workload.name())
        .with("trace", opts.trace)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("sf", workload.sf(smoke))
        .with("smoke", smoke)
        .with("provenance", env::provenance())
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("fail_share", failed as f64 / attempted.max(1) as f64)
        .with("metrics", reported.clone())
        .with("detail", detail);
    std::fs::write(
        opts.out
            .0
            .join(format!("run_{}{suffix}.json", workload.name())),
        record.pretty(),
    )?;
    if opts.trace {
        std::fs::write(
            opts.out.0.join(format!("trace_{}.json", workload.name())),
            trace::to_json(&spans).pretty(),
        )?;
    }
    opts.out.sweep_gen();

    let line = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", reported);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.words.first().map(String::as_str) {
        None => run_workload(&args),
        Some("suite") => suite::run(&args),
        Some("compare") => compare::run(&args),
        Some(other) => Err(format!("unknown subcommand `{other}`").into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong rows, a reply from the wrong tier, a failed request or
        // a regression: the numbers were printed, the exit code says no.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
