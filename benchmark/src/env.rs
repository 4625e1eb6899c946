//! Where the benchmark keeps its files, what machine it ran on, and the
//! private TPC-H data directory.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use dblab_runtime::Database;

use crate::json::Json;

/// The repository root: this package lives in `<root>/benchmark`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
        .to_path_buf()
}

/// Everything a run writes goes below here (default `benchmark/out`).
pub struct OutDir(pub PathBuf);

impl OutDir {
    pub fn new(dir: Option<PathBuf>) -> io::Result<OutDir> {
        let dir = dir.unwrap_or_else(|| repo_root().join("benchmark").join("out"));
        std::fs::create_dir_all(&dir)?;
        let dir = dir.canonicalize()?;
        // gcc's temporaries and every `std::env::temp_dir()` default in
        // the crates land inside the checkout too.
        let tmp = dir.join("tmp");
        std::fs::create_dir_all(&tmp)?;
        std::env::set_var("TMPDIR", &tmp);
        Ok(OutDir(dir))
    }

    /// A directory that did not exist before this call: generated
    /// sources and binaries of one run never meet another run's.
    pub fn fresh(&self, label: &str) -> io::Result<PathBuf> {
        let base = self.0.join("gen");
        std::fs::create_dir_all(&base)?;
        for n in 0.. {
            let dir = base.join(format!("{label}_{}_{n}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(dir),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("the counter is unbounded")
    }

    /// Drop generated artifacts of earlier runs (binaries add up fast).
    pub fn sweep_gen(&self) {
        let _ = std::fs::remove_dir_all(self.0.join("gen"));
    }
}

/// Generated TPC-H data on disk plus the same rows in memory (for the
/// oracle), and what producing them cost.
pub struct Data {
    pub db: Database,
    pub dir: PathBuf,
    /// Total bytes of the eight `.tbl` files.
    pub tbl_bytes: u64,
    /// Seconds in `dblab_tpch::generate` (+ writing, when files were stale).
    pub dbgen_s: f64,
}

/// The data directory for a scale factor, private to the benchmark.
/// Data is a pure function of the scale factor, so files of an earlier
/// run are reused — but only after *every* table's file is checked
/// against the freshly generated rows; any mismatch rewrites all eight.
pub fn data(out: &OutDir, sf: f64) -> io::Result<Data> {
    let dir = out.0.join(format!("data_sf{sf}"));
    let t0 = Instant::now();
    let db = dblab_tpch::generate(sf, &dir);
    let file = |name: &str| dir.join(format!("{name}.tbl"));
    let intact = db.tables.iter().all(|t| {
        std::fs::read(file(&t.def.name))
            .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count() == t.len())
            .unwrap_or(false)
    });
    if !intact {
        db.write_all()?;
    }
    let dbgen_s = t0.elapsed().as_secs_f64();
    let mut tbl_bytes = 0;
    for t in &db.tables {
        tbl_bytes += std::fs::metadata(file(&t.def.name))?.len();
    }
    Ok(Data {
        db,
        dir,
        tbl_bytes,
        dbgen_s,
    })
}

/// `VmHWM` of this process in MB (peak resident set since start).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        // git must not climb out of the checkout into some outer repository.
        .env(
            "GIT_CEILING_DIRECTORIES",
            repo_root().parent().unwrap_or(Path::new("/")),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Machine and toolchain a result was measured on.
pub fn provenance() -> Json {
    let root = repo_root();
    let root = root.to_string_lossy();
    // A driver checkout is not a git repository; say so instead of guessing.
    let commit = first_line("git", &["-C", &root, "rev-parse", "HEAD"]);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("commit", commit)
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with("kernel", first_line("uname", &["-sr"]))
        .with("rustc", first_line("rustc", &["--version"]))
        .with("gcc", first_line("gcc", &["--version"]))
}
