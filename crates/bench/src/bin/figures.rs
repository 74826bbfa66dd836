//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures all                      # everything, Small scale
//! figures fig7 table4              # selected artifacts
//! figures all --scale tiny         # quick smoke run
//! figures all --out results/       # output directory
//! figures all --threads 4          # pool width (modeled CSVs identical)
//! figures all --prof               # host-time profile on stdout (CSVs identical)
//! ```
//!
//! Every id is checked before the first artifact runs, so a misspelt
//! id or an unknown option exits 2 without writing anything.

use std::path::PathBuf;

use gp_bench::{
    print_profile, run_artifact, take_prof_flag, take_threads_flag, Ctx, ALL_ARTIFACTS,
};
use gp_graph::GraphScale;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let prof = take_prof_flag(&mut args);
    let threads = match take_threads_flag(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut scale = GraphScale::Small;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => GraphScale::Tiny,
                    Some("small") => GraphScale::Small,
                    Some("medium") => GraphScale::Medium,
                    other => {
                        eprintln!("unknown scale {other:?} (tiny|small|medium)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out_dir = PathBuf::from(dir),
                    None => {
                        eprintln!("--out requires a directory");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if let Some(id) = ids.iter().find(|id| *id != "all" && !ALL_ARTIFACTS.contains(&id.as_str())) {
        eprintln!("unknown artifact {id:?}");
        print_usage();
        std::process::exit(2);
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL_ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }

    let ctx = Ctx::with_threads(scale, out_dir, threads);
    let total = ids.len();
    for (n, id) in ids.iter().enumerate() {
        let start = std::time::Instant::now();
        eprintln!("[{}/{}] {id} ...", n + 1, total);
        assert!(run_artifact(&ctx, id), "every id was checked above");
        eprintln!("[{}/{}] {id} done in {:.1?}", n + 1, total, start.elapsed());
    }
    if prof {
        print_profile();
    }
}

fn print_usage() {
    eprintln!(
        "usage: figures <artifact>... [--scale tiny|small|medium] [--out DIR] \
         [--threads N|auto] [--prof]"
    );
    eprintln!("artifacts: all {}", ALL_ARTIFACTS.join(" "));
}
