//! # gp-bench — figure/table regeneration harness
//!
//! The `figures` binary regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the full index):
//!
//! ```text
//! cargo run -p gp-bench --release --bin figures -- all
//! cargo run -p gp-bench --release --bin figures -- fig7 fig16 --scale small
//! ```
//!
//! Results are printed as Markdown and written as CSV under `results/`.
//! The [`Ctx`] memoises graphs, splits and (expensive) partitioning runs
//! so that the ~30 artifacts share work.

pub mod distdgl_figs;
pub mod distgnn_figs;
pub mod table1;

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;

use gp_core::experiment::{
    timed_edge_partitions, timed_vertex_partitions, TimedEdgePartition, TimedVertexPartition,
};
use gp_exec::Threads;
use gp_graph::{DatasetId, Graph, GraphScale, VertexSplit};

/// Memoisation table keyed by `(dataset, k)`.
type PartCache<T> = RefCell<HashMap<(DatasetId, u32), Rc<Vec<T>>>>;

/// Shared, memoising experiment context.
///
/// The context itself is single-threaded (`Rc`-memoised); parallelism
/// lives inside the `gp_core` sweeps it calls, which fan their cells
/// out on [`Ctx::threads`] pool workers. The pool is bit-transparent,
/// so any width reproduces the serial artifacts byte-for-byte.
pub struct Ctx {
    /// Dataset scale for every experiment.
    pub scale: GraphScale,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Worker-count policy handed to every gp-core sweep.
    pub threads: Threads,
    graphs: RefCell<HashMap<DatasetId, Rc<Graph>>>,
    splits: RefCell<HashMap<DatasetId, Rc<VertexSplit>>>,
    edge_parts: PartCache<TimedEdgePartition>,
    vertex_parts: PartCache<TimedVertexPartition>,
}

impl Ctx {
    /// New context writing CSVs to `out_dir`, sweeping with
    /// [`Threads::auto`] workers.
    pub fn new(scale: GraphScale, out_dir: PathBuf) -> Self {
        Ctx::with_threads(scale, out_dir, Threads::auto())
    }

    /// New context with an explicit worker-count policy
    /// (`Threads::serial()` reproduces the sequential runs bit for bit).
    pub fn with_threads(scale: GraphScale, out_dir: PathBuf, threads: Threads) -> Self {
        Ctx {
            scale,
            out_dir,
            threads,
            graphs: RefCell::new(HashMap::new()),
            splits: RefCell::new(HashMap::new()),
            edge_parts: RefCell::new(HashMap::new()),
            vertex_parts: RefCell::new(HashMap::new()),
        }
    }

    /// The (memoised) analogue graph for `id`.
    pub fn graph(&self, id: DatasetId) -> Rc<Graph> {
        self.graphs
            .borrow_mut()
            .entry(id)
            .or_insert_with(|| Rc::new(id.generate(self.scale).expect("dataset presets valid")))
            .clone()
    }

    /// The (memoised) 10/10/80 split for `id`.
    pub fn split(&self, id: DatasetId) -> Rc<VertexSplit> {
        let graph = self.graph(id);
        self.splits
            .borrow_mut()
            .entry(id)
            .or_insert_with(|| {
                Rc::new(
                    VertexSplit::paper_default(graph.num_vertices(), 0x5eed)
                        .expect("fractions valid"),
                )
            })
            .clone()
    }

    /// All six timed edge partitions of `id` into `k` parts (memoised).
    pub fn edge_partitions(&self, id: DatasetId, k: u32) -> Rc<Vec<TimedEdgePartition>> {
        if let Some(p) = self.edge_parts.borrow().get(&(id, k)) {
            return p.clone();
        }
        let graph = self.graph(id);
        let parts = Rc::new(timed_edge_partitions(&graph, k, 0x9a9a, self.threads));
        self.edge_parts.borrow_mut().insert((id, k), parts.clone());
        parts
    }

    /// All six timed vertex partitions of `id` into `k` parts (memoised).
    pub fn vertex_partitions(&self, id: DatasetId, k: u32) -> Rc<Vec<TimedVertexPartition>> {
        if let Some(p) = self.vertex_parts.borrow().get(&(id, k)) {
            return p.clone();
        }
        let graph = self.graph(id);
        let split = self.split(id);
        let parts = Rc::new(timed_vertex_partitions(&graph, k, 0x9a9a, &split.train, self.threads));
        self.vertex_parts.borrow_mut().insert((id, k), parts.clone());
        parts
    }

    /// Emit a finished table: Markdown to stdout, CSV to `out_dir`.
    pub fn emit(&self, table: &gp_core::report::Table) {
        println!("\n## {}\n", table.name);
        println!("{}", table.to_markdown());
        if let Err(e) = table.write_csv(&self.out_dir) {
            eprintln!("warning: could not write {}: {e}", table.name);
        }
    }
}

/// Every artifact id, in paper order.
pub const ALL_ARTIFACTS: [&str; 28] = [
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "table4", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
    "fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "table5",
];

/// Run one artifact by id. Returns `false` for an unknown id.
pub fn run_artifact(ctx: &Ctx, id: &str) -> bool {
    match id {
        "table1" => table1::table1(ctx),
        "fig2" => distgnn_figs::fig2(ctx),
        "fig3" => distgnn_figs::fig3(ctx),
        "fig4" => distgnn_figs::fig4(ctx),
        "fig5" => distgnn_figs::fig5(ctx),
        "fig6" => distgnn_figs::fig6(ctx),
        "fig7" => distgnn_figs::fig7(ctx),
        "fig8" => distgnn_figs::fig8(ctx),
        "fig9" => distgnn_figs::fig9(ctx),
        "fig10" => distgnn_figs::fig10(ctx),
        "fig11" => distgnn_figs::fig11(ctx),
        "table4" => distgnn_figs::table4(ctx),
        "fig12" => distdgl_figs::fig12(ctx),
        "fig13" => distdgl_figs::fig13(ctx),
        "fig14" => distdgl_figs::fig14(ctx),
        "fig15" => distdgl_figs::fig15(ctx),
        "fig16" => distdgl_figs::fig16(ctx),
        "fig17" => distdgl_figs::fig17(ctx),
        "fig18" => distdgl_figs::fig18(ctx),
        "fig19" => distdgl_figs::fig19(ctx),
        "fig20" => distdgl_figs::fig20(ctx),
        "fig21" => distdgl_figs::fig21(ctx),
        "fig22" => distdgl_figs::fig22(ctx),
        "fig23" => distdgl_figs::fig23(ctx),
        "fig24" => distdgl_figs::fig24(ctx),
        "fig25" => distdgl_figs::fig25(ctx),
        "fig26" => distdgl_figs::fig26(ctx),
        "table5" => distdgl_figs::table5(ctx),
        _ => return false,
    }
    true
}

/// Pop a `--threads N|auto` (or `--threads=N`) flag out of `args`;
/// absent means [`Threads::auto`]. Shared by the `figures` and
/// `ablations` binaries.
///
/// # Errors
///
/// A usage message when the value is missing or unparsable.
pub fn take_threads_flag(args: &mut Vec<String>) -> Result<Threads, String> {
    let mut threads = Threads::auto();
    let mut i = 0;
    while i < args.len() {
        if let Some(value) = args[i].strip_prefix("--threads=") {
            let value = value.to_string();
            threads = Threads::parse(&value)
                .ok_or_else(|| format!("--threads expects a count or \"auto\", got {value:?}"))?;
            args.remove(i);
        } else if args[i] == "--threads" {
            if i + 1 >= args.len() {
                return Err("--threads expects a count or \"auto\"".into());
            }
            let value = args.remove(i + 1);
            threads = Threads::parse(&value)
                .ok_or_else(|| format!("--threads expects a count or \"auto\", got {value:?}"))?;
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(threads)
}

/// Pop `--prof` out of `args`; when it was given, turn the gp-prof
/// scoped timers and allocation counters on. The profile never reaches
/// an artifact file: every emitted CSV/JSON stays byte-identical with
/// and without the flag.
pub fn take_prof_flag(args: &mut Vec<String>) -> bool {
    let prof = args.iter().any(|a| a == "--prof");
    args.retain(|a| a != "--prof");
    if prof {
        gp_prof::set_enabled(true);
        gp_prof::set_mem_enabled(true);
    }
    prof
}

/// Print the host-time profile recorded so far to stdout, if any: the
/// nested scope tree, then one total/self/count row per stage.
pub fn print_profile() {
    let profile = gp_prof::take_profile();
    if !profile.is_empty() {
        println!("\nhost-time profile:");
        print!("{}", profile.to_markdown());
        print!("\n{}", profile.to_stage_markdown());
    }
}

/// Cluster sizes used throughout (paper's scale-out factors), trimmed at
/// tiny scale where 32 partitions of a 1k-vertex graph are degenerate.
pub fn scale_out_factors(scale: GraphScale) -> Vec<u32> {
    match scale {
        GraphScale::Tiny => vec![4, 8],
        _ => vec![4, 8, 16, 32],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx() -> Ctx {
        Ctx::new(GraphScale::Tiny, std::env::temp_dir().join("gp_bench_test"))
    }

    #[test]
    fn ctx_memoises_graphs() {
        let ctx = test_ctx();
        let a = ctx.graph(DatasetId::DI);
        let b = ctx.graph(DatasetId::DI);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn ctx_memoises_partitions() {
        let ctx = test_ctx();
        let a = ctx.edge_partitions(DatasetId::DI, 4);
        let b = ctx.edge_partitions(DatasetId::DI, 4);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 6);
        let v = ctx.vertex_partitions(DatasetId::DI, 4);
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn ctx_threads_do_not_change_partitions() {
        let serial = Ctx::with_threads(
            GraphScale::Tiny,
            std::env::temp_dir().join("gp_bench_test"),
            Threads::serial(),
        );
        let par = Ctx::with_threads(
            GraphScale::Tiny,
            std::env::temp_dir().join("gp_bench_test"),
            Threads::new(4),
        );
        let a = serial.edge_partitions(DatasetId::DI, 4);
        let b = par.edge_partitions(DatasetId::DI, 4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.partition, y.partition);
        }
    }

    #[test]
    fn threads_flag_is_popped_and_parsed() {
        let mut args: Vec<String> =
            ["phases", "--threads", "4", "--quick"].iter().map(|s| s.to_string()).collect();
        let t = take_threads_flag(&mut args).unwrap();
        assert_eq!(t.count(), 4);
        assert_eq!(args, ["phases", "--quick"]);

        let mut args: Vec<String> = ["--threads=auto"].iter().map(|s| s.to_string()).collect();
        let t = take_threads_flag(&mut args).unwrap();
        assert!(t.count() >= 1);
        assert!(args.is_empty());

        let mut args: Vec<String> = ["all"].iter().map(|s| s.to_string()).collect();
        assert!(take_threads_flag(&mut args).is_ok());

        let mut args: Vec<String> = ["--threads"].iter().map(|s| s.to_string()).collect();
        assert!(take_threads_flag(&mut args).is_err());
        let mut args: Vec<String> = ["--threads", "lots"].iter().map(|s| s.to_string()).collect();
        assert!(take_threads_flag(&mut args).is_err());
    }

    #[test]
    fn unknown_artifact_rejected() {
        let ctx = test_ctx();
        assert!(!run_artifact(&ctx, "fig99"));
    }

    #[test]
    fn artifact_list_covers_every_paper_artifact() {
        // 26 figures/tables + table1 + table4 = 28 ids, all distinct.
        let mut ids = ALL_ARTIFACTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_ARTIFACTS.len());
    }

    #[test]
    fn tiny_scale_trims_cluster_sizes() {
        assert_eq!(scale_out_factors(GraphScale::Tiny), vec![4, 8]);
        assert_eq!(scale_out_factors(GraphScale::Small).len(), 4);
    }
}
