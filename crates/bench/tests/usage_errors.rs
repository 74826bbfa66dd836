//! Black-box usage checks of the `figures` and `ablations` binaries: a
//! bad command line exits 2 before any artifact runs, so nothing is
//! written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp_bench_usage_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin).args(args).current_dir(dir).output().expect("binary runs")
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            found.extend(entries(&path));
        }
        found.push(path);
    }
    found
}

#[test]
fn figures_rejects_a_bad_command_line_before_any_artifact_runs() {
    let dir = workdir("figures");
    let out = dir.join("res");
    let out = out.to_str().expect("utf-8 path");
    // Each command line starts with a valid artifact that would write a
    // CSV if it ran before the bad id or option was seen.
    for args in [
        ["table1", "bogus", "--scale", "tiny", "--out", out],
        ["table1", "--engine-threads", "--scale", "tiny", "--out", out],
    ] {
        let o = run(env!("CARGO_BIN_EXE_figures"), &dir, &args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("unknown artifact") && err.contains("usage:"), "{args:?}: {err}");
        assert_eq!(entries(&dir), Vec::<PathBuf>::new(), "{args:?} wrote output");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn ablations_rejects_a_bad_command_line_before_any_ablation_runs() {
    let dir = workdir("ablations");
    for (args, message) in [
        (&["fanout", "cache", "--quick"][..], "one ablation per run"),
        (&["fanout", "--quick", "--bogus"][..], "unknown option \"--bogus\""),
        (&["fanout", "--quick", "--engine-threads", "4"][..], "unknown option"),
        (&["--quick", "--threads", "many"][..], "--threads"),
    ] {
        let o = run(env!("CARGO_BIN_EXE_ablations"), &dir, args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains(message) && err.contains("usage:"), "{args:?}: {err}");
        assert_eq!(entries(&dir), Vec::<PathBuf>::new(), "{args:?} wrote output");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
