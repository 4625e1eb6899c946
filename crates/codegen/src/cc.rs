//! The C-compiler driver: writes the generated translation unit next to
//! `dblab_runtime.h` and invokes `gcc -O3` (our CLang 2.9 stand-in, §7).
//! Execution and instrumentation parsing live in [`crate::backend`].

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::runtime::DBLAB_RUNTIME_H;

/// Result of compiling one generated program.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub binary: PathBuf,
    pub c_path: PathBuf,
    /// gcc wall time (the "C compilation" half of Figure 9).
    pub cc_time: Duration,
}

/// Write `source` as `<name>.c` under `dir` (with the runtime header) and
/// compile it.
pub fn compile_c(source: &str, dir: &Path, name: &str) -> std::io::Result<Compiled> {
    std::fs::create_dir_all(dir)?;
    let header = dir.join("dblab_runtime.h");
    if !header.exists() || std::fs::read_to_string(&header)? != DBLAB_RUNTIME_H {
        std::fs::write(&header, DBLAB_RUNTIME_H)?;
    }
    let c_path = dir.join(format!("{name}.c"));
    std::fs::write(&c_path, source)?;
    let binary = dir.join(name);
    let t0 = Instant::now();
    let out = Command::new("gcc")
        .arg("-O3")
        .arg("-w")
        .arg("-o")
        .arg(&binary)
        .arg(&c_path)
        .output()?;
    let cc_time = t0.elapsed();
    if !out.status.success() {
        return Err(std::io::Error::other(format!(
            "gcc failed on {}:\n{}",
            c_path.display(),
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    Ok(Compiled {
        binary,
        c_path,
        cc_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_and_runs_a_trivial_program() {
        let dir = std::env::temp_dir().join("dblab_cc_test");
        let src = r#"
#include "dblab_runtime.h"
int main(int argc, char** argv) {
    dblab_timer_start();
    printf("42\n");
    dblab_timer_stop();
    dblab_print_rusage();
    return 0;
}
"#;
        let compiled = compile_c(src, &dir, "trivial").expect("gcc available");
        let out = crate::backend::run_binary(&compiled.binary, &dir, &[], None).expect("runs");
        assert_eq!(out.stdout, "42\n");
        assert!(out.query_ms >= 0.0);
        assert!(out.peak_rss_kb > 0);
    }
}
