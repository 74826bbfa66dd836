//! Black-box end-to-end tests: spawn the real `gnnpart` binary and
//! assert on its stdout/stderr/exit codes, exactly as a shell user
//! would experience it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gnnpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gnnpart")).args(args).output().expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn workdir() -> PathBuf {
    // Unique per call: tests run concurrently and some remove their
    // directory when done, so sharing one pid-keyed directory races.
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gnnpart_e2e_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_lists_all_commands() {
    let out = gnnpart(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "generate",
        "stats",
        "partition",
        "simulate",
        "trace",
        "diagnose",
        "chaos",
        "netchaos",
        "stream",
        "recommend",
        "list",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn list_names_all_twelve_partitioners_and_the_extensions() {
    let out = gnnpart(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "Random", "DBH", "HDRF", "2PS-L", "HEP-10", "HEP-100", "LDG", "Spinner", "METIS",
        "ByteGNN", "KaHIP",
    ] {
        assert!(text.contains(name), "list missing {name}");
    }
    for name in ["Greedy", "Grid2D", "ReLDG"] {
        assert!(text.contains(&format!("  {name} (extension)\n")), "list missing {name}");
    }
}

#[test]
fn full_pipeline_generate_stats_partition_simulate() {
    let dir = workdir();
    let el = dir.join("pipeline.el");
    let el_str = el.to_str().expect("utf8 path");

    let out = gnnpart(&["generate", "DI", "--scale", "tiny", "--out", el_str]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));
    assert!(el.exists());

    let out = gnnpart(&["stats", el_str, "--directed"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("mean degree"));

    let parts = dir.join("parts.txt");
    let out = gnnpart(&[
        "partition",
        el_str,
        "--algo",
        "METIS",
        "-k",
        "4",
        "--directed",
        "--out",
        parts.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "partition failed: {}", stderr(&out));
    assert!(stdout(&out).contains("edge-cut ratio"));
    let lines = std::fs::read_to_string(&parts).expect("assignments written");
    assert!(lines.lines().all(|l| l.parse::<u32>().map(|p| p < 4).unwrap_or(false)));

    let out = gnnpart(&["simulate", el_str, "--algo", "HDRF", "-k", "4", "--directed"]);
    assert!(out.status.success(), "simulate failed: {}", stderr(&out));
    assert!(stdout(&out).contains("epoch time"));

    let out = gnnpart(&["recommend", el_str, "-k", "4", "--epochs", "100", "--directed"]);
    assert!(out.status.success(), "recommend failed: {}", stderr(&out));
    assert!(stdout(&out).contains("Best partitioner"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_emits_wellformed_chrome_json() {
    let dir = workdir();
    let el = dir.join("trace.el");
    let el_str = el.to_str().expect("utf8 path");
    let out = gnnpart(&["generate", "OR", "--scale", "tiny", "--out", el_str]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    // DistGNN under faults with full mitigation, both export formats.
    let json = dir.join("trace.json");
    let csv = dir.join("phases.csv");
    let out = gnnpart(&[
        "trace",
        el_str,
        "--algo",
        "HDRF",
        "-k",
        "4",
        "--epochs",
        "4",
        "--faults",
        "--mtbf",
        "4.0",
        "--checkpoint-every",
        "2",
        "--mitigate",
        "all",
        "--trace-out",
        json.to_str().expect("utf8"),
        "--phase-csv",
        csv.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "trace failed: {}", stderr(&out));
    assert!(stdout(&out).contains("spans"));
    let text = std::fs::read_to_string(&json).expect("trace written");
    let stats = gp_cli::jsonlint::validate_json(&text).expect("well-formed Chrome JSON");
    assert!(stats.top_level_array_len > 0, "trace has events");
    assert!(stats.objects > stats.top_level_array_len, "events carry args objects");
    let rows = std::fs::read_to_string(&csv).expect("phase CSV written");
    assert!(rows.starts_with("worker,phase,spans,seconds,bytes,flops"));
    assert!(rows.lines().count() > 1, "phase CSV has data rows");

    // DistDGL healthy baseline.
    let json2 = dir.join("trace_dgl.json");
    let out = gnnpart(&[
        "trace",
        el_str,
        "--algo",
        "METIS",
        "-k",
        "4",
        "--system",
        "distdgl",
        "--epochs",
        "2",
        "--trace-out",
        json2.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "distdgl trace failed: {}", stderr(&out));
    let text = std::fs::read_to_string(&json2).expect("trace written");
    let stats = gp_cli::jsonlint::validate_json(&text).expect("well-formed Chrome JSON");
    assert!(stats.top_level_array_len > 0);

    // Clean up only this test's files: the work dir is shared by
    // concurrently running tests.
    for f in [el, json, csv, json2] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn chaos_soak_holds_and_rejects_degenerate_flags() {
    let dir = workdir();
    let el = dir.join("chaos.el");
    let el_str = el.to_str().expect("utf8 path");
    let out = gnnpart(&["generate", "OR", "--scale", "tiny", "--out", el_str]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let bench = dir.join("chaos.json");
    let out = gnnpart(&[
        "chaos",
        el_str,
        "--algo",
        "HDRF",
        "-k",
        "4",
        "--epochs",
        "6",
        "--mtbf",
        "4.0",
        "--checkpoint-every",
        "2",
        "--threads",
        "2",
        "--bench-out",
        bench.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "chaos failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("rows green"), "verdict line missing: {text}");
    let json = std::fs::read_to_string(&bench).expect("bench written");
    gp_cli::jsonlint::validate_json(&json).expect("well-formed chaos JSON");
    assert!(json.contains("\"invariants_hold\":true"));

    // Degenerate soak parameters are usage errors (exit 2), not runs.
    let out = gnnpart(&["chaos", el_str, "--epochs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--epochs must be at least 1"));
    let out = gnnpart(&["chaos", el_str, "--checkpoint-every", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--checkpoint-every must be at least 1"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn netchaos_soak_holds_and_rejects_draining_compositions() {
    let dir = workdir();
    let el = dir.join("netchaos.el");
    let el_str = el.to_str().expect("utf8 path");
    let out = gnnpart(&["generate", "OR", "--scale", "tiny", "--out", el_str]);
    assert!(out.status.success(), "generate failed: {}", stderr(&out));

    let bench = dir.join("netchaos.json");
    let csv = dir.join("netchaos.csv");
    let prom = dir.join("netchaos.prom");
    let out = gnnpart(&[
        "netchaos",
        el_str,
        "--algo",
        "HDRF",
        "-k",
        "4",
        "--epochs",
        "8",
        "--mtbf",
        "4.0",
        "--checkpoint-every",
        "2",
        "--threads",
        "2",
        "--bench-out",
        bench.to_str().expect("utf8"),
        "--csv-out",
        csv.to_str().expect("utf8"),
        "--prom-out",
        prom.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "netchaos failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("rows green"), "verdict line missing: {text}");
    let json = std::fs::read_to_string(&bench).expect("bench written");
    gp_cli::jsonlint::validate_json(&json).expect("well-formed netchaos JSON");
    assert!(json.contains("\"bench\":\"netchaos\""));
    assert!(json.contains("\"invariants_hold\":true"));
    assert!(std::fs::read_to_string(&csv).expect("csv written").lines().count() > 1);
    // The Prometheus exposition of the traced run carries the network
    // counter families — the loss/dup noise fires on every schedule.
    let exposition = std::fs::read_to_string(&prom).expect("prom written");
    for family in ["gnnpart_net_retries_total", "gnnpart_net_dup_discarded_total"] {
        assert!(
            exposition.contains(&format!("# TYPE {family} counter")),
            "{family} missing from exposition:\n{exposition}"
        );
    }

    // A crash schedule dense enough to drain the fleet below the churn
    // floor is rejected up front (runtime error, exit 1) — no soak
    // cell runs against an unsurvivable composition.
    let out = gnnpart(&[
        "netchaos",
        el_str,
        "--algo",
        "HDRF",
        "-k",
        "4",
        "--epochs",
        "8",
        "--mtbf",
        "0.4",
        "--fault-seed",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid fault/churn composition"));

    // Degenerate soak parameters stay usage errors (exit 2).
    let out = gnnpart(&["netchaos", el_str, "--epochs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--epochs must be at least 1"));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deterministic_across_invocations() {
    // Two separate processes produce byte-identical edge lists.
    let dir = workdir();
    let a = dir.join("a.el");
    let b = dir.join("b.el");
    for f in [&a, &b] {
        let out = gnnpart(&["generate", "OR", "--scale", "tiny", "--out", f.to_str().unwrap()]);
        assert!(out.status.success());
    }
    assert_eq!(
        std::fs::read(&a).expect("a written"),
        std::fs::read(&b).expect("b written"),
        "process-level determinism"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn exit_codes_distinguish_usage_and_runtime_errors() {
    // Usage error -> exit 2.
    let out = gnnpart(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));

    // Runtime error (missing file) -> exit 1.
    let out = gnnpart(&["stats", "/nonexistent/x.el"]);
    assert_eq!(out.status.code(), Some(1));

    // Bad value -> exit 2 with the flag named.
    let out = gnnpart(&["partition", "x.el", "-k", "zebra"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("-k"));
}

#[test]
fn no_args_prints_help_and_succeeds() {
    let out = gnnpart(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}
