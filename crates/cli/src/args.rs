//! Hand-rolled argument parsing (no external dependency needed for a
//! handful of subcommands).

use std::path::PathBuf;

use gp_exec::Threads;
use gp_graph::GraphScale;
use gp_partition::MAX_PARTITIONS;

/// Usage text shown by `gnnpart help`.
pub const USAGE: &str = "\
gnnpart — partitioning strategies for distributed GNN training

USAGE:
    gnnpart <command> [options]

COMMANDS:
    generate <HW|DI|EN|EU|OR>   synthesise an analogue dataset
        --scale tiny|small|medium   (default small)
        --out FILE                  (default <id>.el)
    stats <edge-list>           graph + degree statistics
        --directed                  treat input as directed
    partition <edge-list>       partition an edge list
        --algo NAME                 partitioner (see `gnnpart list`);
                                    the name Random resolves to the
                                    edge (vertex-cut) variant
        -k N                        number of partitions (default 8)
        --seed N                    (default 42)
        --directed                  treat input as directed
        --out FILE                  write assignments (one id per line)
    recommend <edge-list>       recommend the best partitioner
        -k N                        machines (default 8)
        --system distgnn|distdgl    (default distgnn)
        --epochs N                  training budget (default 100)
        --features N --hidden N --layers N   (default 64/64/3)
        --directed                  treat input as directed
        --threads N|auto            gp-exec pool width for candidate
                                    runs (default auto; 1 = serial,
                                    the ranking is identical either way)
    simulate <edge-list>        simulate one training epoch
        --algo NAME                 partitioner (see `gnnpart list`)
        -k N                        machines (default 8)
        --system distgnn|distdgl    (default distgnn)
        --model sage|gcn|gat        (default sage; DistGNN accepts sage only)
        --features N --hidden N --layers N   (default 64/64/3)
        --directed                  treat input as directed
        --faults                    inject a seeded fault schedule
                                    (crashes + stragglers + brownouts)
                                    and report recovery overhead
        --mtbf N                    mean epochs between crashes
                                    (default 5, with --faults)
        --epochs N                  fault-run horizon (default 10,
                                    must be at least 1)
        --checkpoint-every N        DistGNN checkpoint period in epochs
                                    (at least 1; omit the flag to run
                                    without checkpoints)
        --fault-seed N              fault-schedule seed (default 42)
        --mitigate MODE             straggler mitigation, with --faults:
                                    none|steal|speculate|adaptive|all
                                    (default none; steal/speculate are
                                    DistDGL, adaptive cd-r is DistGNN)
        --engine-threads N|auto     intra-epoch gp-exec pool width for
                                    the engines' per-worker compute
                                    (default 1; reports are identical
                                    for every width)
    trace <edge-list>           simulate epochs and record a span trace
                                (accepts every simulate option, incl.
                                --faults and --mitigate, plus:)
        --trace-out FILE            Chrome-tracing JSON output (default
                                    trace.json; open in chrome://tracing)
        --phase-csv FILE            per-(worker, phase) aggregate CSV
    diagnose <edge-list>        simulate epochs, aggregate metrics and
                                diagnose the run: phase percentiles,
                                load-imbalance indices, straggler
                                attribution and ranked causes of epoch
                                time, cross-checked exactly against the
                                engine report (accepts every simulate
                                option, incl. --faults and --mitigate,
                                plus:)
        --prom-out FILE             Prometheus text exposition output
                                    (default metrics.prom)
        --report-out FILE           markdown run-report output
                                    (default report.md)
    chaos <edge-list>           elastic-membership soak: every
                                partitioner of the chosen system runs
                                a multi-epoch churn + fault +
                                checkpoint schedule through the
                                elastic engine path, and the elastic
                                contract is verified per partitioner:
                                bit-identical reruns, traced ==
                                untraced, handoffs never worse than
                                crash-only recovery, exact span sums.
                                Exits non-zero if any invariant fails.
                                (accepts every simulate option except
                                --faults/--mitigate — faults are
                                always on; --algo narrows the roster,
                                --fault-seed seeds faults AND churn,
                                --epochs defaults to 20 and
                                --checkpoint-every to 4, plus:)
        --threads N|auto            gp-exec pool width (default auto;
                                    rows identical for every width)
        --bench-out FILE            machine-readable JSON verdict
        --csv-out FILE              per-partitioner CSV table
    netchaos <edge-list>        network-fault soak: chaos plus a
                                seeded message-level fault plan (loss,
                                duplication, reorder, partition
                                windows) through the engines'
                                partitioned path, checking per
                                partitioner: bit-identical reruns,
                                traced == untraced, exactly-once
                                delivery, exact span sums, and the
                                bounded-staleness degraded mode never
                                worse than abort-and-recover. Exits
                                non-zero if any invariant fails.
                                (same options and defaults as chaos:)
        --threads N|auto            gp-exec pool width (default auto;
                                    rows identical for every width)
        --bench-out FILE            machine-readable JSON verdict
        --csv-out FILE              per-partitioner CSV table
        --prom-out FILE             Prometheus text exposition of one
                                    traced partitioned run (includes
                                    the gnnpart_net_* counter families)
    stream <edge-list>          streaming dynamic-graph sweep: every
                                partitioner of the chosen system
                                replays the same seeded mutation
                                stream (edge inserts/deletes + vertex
                                arrivals) once per repartition policy
                                (never / threshold / periodic),
                                training one epoch per batch while the
                                partition is maintained incrementally;
                                full repartitions are charged their
                                modeled cost in simulated seconds and
                                adopted only when not worse. Verifies
                                per row: bit-identical reruns, traced
                                == untraced, and no policy worse than
                                never-repartition. Exits non-zero if
                                any invariant fails. (accepts every
                                simulate option except the fault
                                family — the stream runs on a healthy
                                cluster; --algo narrows the roster,
                                default all, plus:)
        --batches N                 stream length in batches
                                    (default 8, must be at least 1)
        --stream-seed N             mutation-stream seed (default 42)
        --threads N|auto            gp-exec pool width (default auto;
                                    rows identical for every width)
        --bench-out FILE            machine-readable JSON verdict
        --csv-out FILE              per-(partitioner, policy) CSV table
    list                        list the 12 partitioners
    help                        this text
";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `gnnpart generate`.
    Generate(GenerateCmd),
    /// `gnnpart stats`.
    Stats(StatsCmd),
    /// `gnnpart partition`.
    Partition(PartitionCmd),
    /// `gnnpart simulate`.
    Simulate(SimulateCmd),
    /// `gnnpart trace`.
    Trace(TraceCmd),
    /// `gnnpart diagnose`.
    Diagnose(DiagnoseCmd),
    /// `gnnpart chaos`.
    Chaos(ChaosCmd),
    /// `gnnpart netchaos`.
    NetChaos(NetChaosCmd),
    /// `gnnpart stream`.
    Stream(StreamCmd),
    /// `gnnpart recommend`.
    Recommend(RecommendCmd),
    /// `gnnpart list`.
    List,
    /// `gnnpart help`.
    Help,
}

/// Options of `gnnpart generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateCmd {
    /// Dataset id (HW/DI/EN/EU/OR).
    pub dataset: String,
    /// Size preset.
    pub scale: GraphScale,
    /// Output path (default `<id>.el`).
    pub out: Option<PathBuf>,
}

/// Options of `gnnpart stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsCmd {
    /// Edge-list path.
    pub input: PathBuf,
    /// Whether the input is directed.
    pub directed: bool,
}

/// Options of `gnnpart partition`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCmd {
    /// Edge-list path.
    pub input: PathBuf,
    /// Partitioner name.
    pub algo: String,
    /// Partition count.
    pub k: u32,
    /// RNG seed.
    pub seed: u64,
    /// Whether the input is directed.
    pub directed: bool,
    /// Output assignment path.
    pub out: Option<PathBuf>,
}

/// Options of `gnnpart simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateCmd {
    /// Edge-list path.
    pub input: PathBuf,
    /// Partitioner name.
    pub algo: String,
    /// Machine count.
    pub k: u32,
    /// Which engine: `"distgnn"` or `"distdgl"`.
    pub system: String,
    /// Model kind (distdgl only).
    pub model: String,
    /// Feature dimension.
    pub features: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Layer count.
    pub layers: usize,
    /// Whether the input is directed.
    pub directed: bool,
    /// Whether to run under a seeded fault schedule.
    pub faults: bool,
    /// Mean epochs between crashes (used with `faults`).
    pub mtbf: f64,
    /// Fault-run horizon in epochs.
    pub epochs: u32,
    /// DistGNN checkpoint period in epochs (0 = no checkpoints).
    pub checkpoint_every: u32,
    /// Seed of the fault schedule.
    pub fault_seed: u64,
    /// Mitigation mode (`none|steal|speculate|adaptive|all`), validated
    /// at parse time against [`gp_cluster::MitigationPolicy::parse`].
    pub mitigate: String,
    /// Intra-epoch `gp-exec` pool width for the engines' per-worker
    /// compute (reports are bit-identical for every width).
    pub engine_threads: Threads,
}

/// Options of `gnnpart trace`: a full simulation plus trace-export
/// destinations. Every `simulate` option (including `--faults` and
/// `--mitigate`) composes with the trace flags.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCmd {
    /// The simulation to run (same options as `gnnpart simulate`).
    pub sim: SimulateCmd,
    /// Chrome-tracing JSON output path.
    pub trace_out: PathBuf,
    /// Optional per-(worker, phase) aggregate CSV output path.
    pub phase_csv: Option<PathBuf>,
}

/// Options of `gnnpart diagnose`: a full simulation plus metrics /
/// diagnosis export destinations. Every `simulate` option (including
/// `--faults` and `--mitigate`) composes with the diagnose flags.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseCmd {
    /// The simulation to run (same options as `gnnpart simulate`).
    pub sim: SimulateCmd,
    /// Prometheus text exposition output path.
    pub prom_out: PathBuf,
    /// Markdown run-report output path.
    pub report_out: PathBuf,
}

/// Options of `gnnpart chaos`: an elastic-membership soak over the
/// partitioner roster, with the elastic contract (determinism, trace
/// transparency, never-worse handoffs, exact span sums) checked per
/// row.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCmd {
    /// The simulation environment (same options as `gnnpart simulate`).
    /// `algo` narrows the roster (`"all"` soaks every partitioner of
    /// the chosen system); `fault_seed` seeds both the fault and the
    /// churn schedules; `faults` is always true.
    pub sim: SimulateCmd,
    /// `gp-exec` pool width for the per-partitioner cells (rows are
    /// bit-identical for every width).
    pub threads: Threads,
    /// Optional machine-readable JSON verdict output path.
    pub bench_out: Option<PathBuf>,
    /// Optional per-partitioner CSV table output path.
    pub csv_out: Option<PathBuf>,
}

/// Options of `gnnpart netchaos`: the chaos soak composed with a
/// seeded message-level network-fault plan (loss, duplication,
/// reorder, partition windows), with the network contract
/// (determinism, trace transparency, exactly-once delivery, exact
/// span sums, degraded mode never worse than abort-and-recover)
/// checked per row.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaosCmd {
    /// The simulation environment (same options as `gnnpart simulate`).
    /// `algo` narrows the roster (`"all"` soaks every partitioner of
    /// the chosen system); `fault_seed` seeds the fault, churn AND
    /// network-fault schedules; `faults` is always true.
    pub sim: SimulateCmd,
    /// `gp-exec` pool width for the per-partitioner cells (rows are
    /// bit-identical for every width).
    pub threads: Threads,
    /// Optional machine-readable JSON verdict output path.
    pub bench_out: Option<PathBuf>,
    /// Optional per-partitioner CSV table output path.
    pub csv_out: Option<PathBuf>,
    /// Optional Prometheus text exposition output path: the metrics
    /// snapshot of one traced partitioned run (the roster's first
    /// partitioner), including the `gnnpart_net_*` counter families.
    pub prom_out: Option<PathBuf>,
}

/// Options of `gnnpart stream`: a streaming dynamic-graph sweep over
/// the partitioner roster × the repartition-policy trio, with the
/// stream contract (determinism, trace transparency, policies never
/// worse than `never`) checked per row.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCmd {
    /// The simulation environment (same options as `gnnpart simulate`
    /// minus the fault family — the stream runs on a healthy cluster).
    /// `algo` narrows the roster (`"all"` sweeps every partitioner of
    /// the chosen system); `epochs` is ignored — the horizon is
    /// `batches`.
    pub sim: SimulateCmd,
    /// Stream length in batches (one training epoch each).
    pub batches: u32,
    /// Seed of the mutation stream.
    pub stream_seed: u64,
    /// `gp-exec` pool width for the per-partitioner cells (rows are
    /// bit-identical for every width).
    pub threads: Threads,
    /// Optional machine-readable JSON verdict output path.
    pub bench_out: Option<PathBuf>,
    /// Optional per-(partitioner, policy) CSV table output path.
    pub csv_out: Option<PathBuf>,
}

/// Options of `gnnpart recommend`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendCmd {
    /// Edge-list path.
    pub input: PathBuf,
    /// Machine count.
    pub k: u32,
    /// Which engine: `"distgnn"` or `"distdgl"`.
    pub system: String,
    /// Training budget in epochs.
    pub epochs: u32,
    /// Feature dimension.
    pub features: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Layer count.
    pub layers: usize,
    /// Whether the input is directed.
    pub directed: bool,
    /// `gp-exec` pool width for the candidate runs (ranking identical
    /// for every choice).
    pub threads: Threads,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// A tiny option cursor over the argument list.
struct Opts {
    args: Vec<String>,
    cursor: usize,
}

impl Opts {
    fn next(&mut self) -> Option<String> {
        let v = self.args.get(self.cursor).cloned();
        if v.is_some() {
            self.cursor += 1;
        }
        v
    }

    fn value_for(&mut self, flag: &str) -> Result<String, ParseError> {
        self.next().ok_or_else(|| ParseError(format!("{flag} requires a value")))
    }

    /// `flag`'s value as a number of type `T`; a value that does not fit
    /// is an error, never truncated.
    fn numeric<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ParseError>
    where
        T::Err: std::fmt::Display,
    {
        self.value_for(flag)?.parse().map_err(|e| ParseError(format!("bad {flag}: {e}")))
    }

    /// `-k`'s value: a machine count in `1..=MAX_PARTITIONS`.
    fn machines(&mut self) -> Result<u32, ParseError> {
        let k = self.numeric("-k")?;
        if !(1..=MAX_PARTITIONS).contains(&k) {
            return err(format!("bad -k: {k} is outside 1..={MAX_PARTITIONS}"));
        }
        Ok(k)
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let mut opts = Opts { args: args.to_vec(), cursor: 0 };
    let Some(cmd) = opts.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "generate" => parse_generate(&mut opts),
        "stats" => parse_stats(&mut opts),
        "partition" => parse_partition(&mut opts),
        "simulate" => parse_simulate(&mut opts),
        "trace" => parse_trace(&mut opts),
        "diagnose" => parse_diagnose(&mut opts),
        "chaos" => parse_chaos(&mut opts),
        "netchaos" => parse_netchaos(&mut opts),
        "stream" => parse_stream(&mut opts),
        "recommend" => parse_recommend(&mut opts),
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => err(format!("unknown command {other:?}; try `gnnpart help`")),
    }
}

fn parse_scale(s: &str) -> Result<GraphScale, ParseError> {
    match s {
        "tiny" => Ok(GraphScale::Tiny),
        "small" => Ok(GraphScale::Small),
        "medium" => Ok(GraphScale::Medium),
        other => err(format!("unknown scale {other:?} (tiny|small|medium)")),
    }
}

fn parse_generate(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(dataset) = opts.next() else {
        return err("generate requires a dataset id (HW|DI|EN|EU|OR)");
    };
    let mut cmd = GenerateCmd { dataset, scale: GraphScale::Small, out: None };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--scale" => cmd.scale = parse_scale(&opts.value_for("--scale")?)?,
            "--out" => cmd.out = Some(PathBuf::from(opts.value_for("--out")?)),
            other => return err(format!("unknown option {other:?}")),
        }
    }
    Ok(Command::Generate(cmd))
}

fn parse_stats(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("stats requires an edge-list path");
    };
    let mut cmd = StatsCmd { input: PathBuf::from(input), directed: false };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--directed" => cmd.directed = true,
            other => return err(format!("unknown option {other:?}")),
        }
    }
    Ok(Command::Stats(cmd))
}

fn parse_partition(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("partition requires an edge-list path");
    };
    let mut cmd = PartitionCmd {
        input: PathBuf::from(input),
        algo: "HDRF".into(),
        k: 8,
        seed: 42,
        directed: false,
        out: None,
    };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--algo" => cmd.algo = opts.value_for("--algo")?,
            "-k" => cmd.k = opts.machines()?,
            "--seed" => {
                cmd.seed = opts
                    .value_for("--seed")?
                    .parse()
                    .map_err(|e| ParseError(format!("bad --seed: {e}")))?;
            }
            "--directed" => cmd.directed = true,
            "--out" => cmd.out = Some(PathBuf::from(opts.value_for("--out")?)),
            other => return err(format!("unknown option {other:?}")),
        }
    }
    Ok(Command::Partition(cmd))
}

fn default_simulate(input: PathBuf) -> SimulateCmd {
    SimulateCmd {
        input,
        algo: "HDRF".into(),
        k: 8,
        system: "distgnn".into(),
        model: "sage".into(),
        features: 64,
        hidden: 64,
        layers: 3,
        directed: false,
        faults: false,
        mtbf: 5.0,
        epochs: 10,
        checkpoint_every: 0,
        fault_seed: 42,
        mitigate: "none".into(),
        engine_threads: Threads::serial(),
    }
}

/// Apply one simulation flag shared between `simulate` and `trace`.
/// Returns `Ok(false)` when the flag is not a simulation option (the
/// caller decides whether that is an error or one of its own flags).
fn apply_simulate_flag(
    cmd: &mut SimulateCmd,
    flag: &str,
    opts: &mut Opts,
) -> Result<bool, ParseError> {
    match flag {
        "--algo" => cmd.algo = opts.value_for("--algo")?,
        "-k" => cmd.k = opts.machines()?,
        "--system" => cmd.system = opts.value_for("--system")?,
        "--model" => cmd.model = opts.value_for("--model")?,
        "--features" => cmd.features = opts.numeric("--features")?,
        "--hidden" => cmd.hidden = opts.numeric("--hidden")?,
        "--layers" => cmd.layers = opts.numeric("--layers")?,
        "--directed" => cmd.directed = true,
        "--faults" => cmd.faults = true,
        "--mtbf" => {
            cmd.mtbf = opts
                .value_for("--mtbf")?
                .parse()
                .map_err(|e| ParseError(format!("bad --mtbf: {e}")))?;
            if cmd.mtbf.is_nan() || cmd.mtbf <= 0.0 {
                return err("--mtbf must be positive");
            }
        }
        "--epochs" => {
            cmd.epochs = opts.numeric("--epochs")?;
            if cmd.epochs == 0 {
                return err("--epochs must be at least 1");
            }
        }
        "--checkpoint-every" => {
            cmd.checkpoint_every = opts.numeric("--checkpoint-every")?;
            if cmd.checkpoint_every == 0 {
                return err("--checkpoint-every must be at least 1 \
                     (omit the flag to run without checkpoints)");
            }
        }
        "--fault-seed" => {
            cmd.fault_seed = opts
                .value_for("--fault-seed")?
                .parse()
                .map_err(|e| ParseError(format!("bad --fault-seed: {e}")))?;
        }
        "--mitigate" => {
            let mode = opts.value_for("--mitigate")?;
            if gp_cluster::MitigationPolicy::parse(&mode).is_none() {
                return err(format!(
                    "unknown mitigation mode {mode:?} \
                     (none|steal|speculate|adaptive|all)"
                ));
            }
            cmd.mitigate = mode;
        }
        "--engine-threads" => {
            let value = opts.value_for("--engine-threads")?;
            cmd.engine_threads = Threads::parse(&value).ok_or_else(|| {
                ParseError(format!("--engine-threads expects a count or \"auto\", got {value:?}"))
            })?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_simulate(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("simulate requires an edge-list path");
    };
    let mut cmd = default_simulate(PathBuf::from(input));
    while let Some(flag) = opts.next() {
        if !apply_simulate_flag(&mut cmd, &flag, opts)? {
            return err(format!("unknown option {flag:?}"));
        }
    }
    Ok(Command::Simulate(cmd))
}

fn parse_trace(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("trace requires an edge-list path");
    };
    let mut cmd = TraceCmd {
        sim: default_simulate(PathBuf::from(input)),
        trace_out: PathBuf::from("trace.json"),
        phase_csv: None,
    };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--trace-out" => cmd.trace_out = PathBuf::from(opts.value_for("--trace-out")?),
            "--phase-csv" => {
                cmd.phase_csv = Some(PathBuf::from(opts.value_for("--phase-csv")?));
            }
            other => {
                if !apply_simulate_flag(&mut cmd.sim, other, opts)? {
                    return err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(Command::Trace(cmd))
}

fn parse_diagnose(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("diagnose requires an edge-list path");
    };
    let mut cmd = DiagnoseCmd {
        sim: default_simulate(PathBuf::from(input)),
        prom_out: PathBuf::from("metrics.prom"),
        report_out: PathBuf::from("report.md"),
    };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--prom-out" => cmd.prom_out = PathBuf::from(opts.value_for("--prom-out")?),
            "--report-out" => {
                cmd.report_out = PathBuf::from(opts.value_for("--report-out")?);
            }
            other => {
                if !apply_simulate_flag(&mut cmd.sim, other, opts)? {
                    return err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(Command::Diagnose(cmd))
}

fn parse_chaos(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("chaos requires an edge-list path");
    };
    let mut sim = default_simulate(PathBuf::from(input));
    // A soak without churn-and-crash pressure proves nothing: faults
    // are always on, the horizon is longer than `simulate`'s, and
    // checkpoints are mandatory (the restore path is under test).
    sim.algo = "all".into();
    sim.faults = true;
    sim.epochs = 20;
    sim.checkpoint_every = 4;
    let mut cmd = ChaosCmd { sim, threads: Threads::auto(), bench_out: None, csv_out: None };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--threads" => {
                let value = opts.value_for("--threads")?;
                cmd.threads = Threads::parse(&value).ok_or_else(|| {
                    ParseError(format!("--threads expects a count or \"auto\", got {value:?}"))
                })?;
            }
            "--bench-out" => {
                cmd.bench_out = Some(PathBuf::from(opts.value_for("--bench-out")?));
            }
            "--csv-out" => cmd.csv_out = Some(PathBuf::from(opts.value_for("--csv-out")?)),
            // Silently accepting these would suggest the soak can run
            // fault-free or mitigated; it can't.
            "--faults" => return err("chaos always injects faults; drop --faults"),
            "--mitigate" => {
                return err("chaos runs unmitigated; `gnnpart simulate` takes --mitigate");
            }
            other => {
                if !apply_simulate_flag(&mut cmd.sim, other, opts)? {
                    return err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(Command::Chaos(cmd))
}

fn parse_netchaos(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("netchaos requires an edge-list path");
    };
    let mut sim = default_simulate(PathBuf::from(input));
    // Same rationale as chaos: the soak is pointless without fault
    // pressure, and the network-fault plan is derived from the same
    // seed so one --fault-seed moves every schedule together.
    sim.algo = "all".into();
    sim.faults = true;
    sim.epochs = 20;
    sim.checkpoint_every = 4;
    let mut cmd = NetChaosCmd {
        sim,
        threads: Threads::auto(),
        bench_out: None,
        csv_out: None,
        prom_out: None,
    };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--threads" => {
                let value = opts.value_for("--threads")?;
                cmd.threads = Threads::parse(&value).ok_or_else(|| {
                    ParseError(format!("--threads expects a count or \"auto\", got {value:?}"))
                })?;
            }
            "--bench-out" => {
                cmd.bench_out = Some(PathBuf::from(opts.value_for("--bench-out")?));
            }
            "--csv-out" => cmd.csv_out = Some(PathBuf::from(opts.value_for("--csv-out")?)),
            "--prom-out" => cmd.prom_out = Some(PathBuf::from(opts.value_for("--prom-out")?)),
            "--faults" => return err("netchaos always injects faults; drop --faults"),
            "--mitigate" => {
                return err("netchaos runs unmitigated; `gnnpart simulate` takes --mitigate");
            }
            other => {
                if !apply_simulate_flag(&mut cmd.sim, other, opts)? {
                    return err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(Command::NetChaos(cmd))
}

fn parse_stream(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("stream requires an edge-list path");
    };
    let mut sim = default_simulate(PathBuf::from(input));
    // The sweep's point is the roster-wide decay comparison, and the
    // stream leg composes with nothing else: the fault knobs are
    // rejected below rather than silently ignored.
    sim.algo = "all".into();
    let mut cmd = StreamCmd {
        sim,
        batches: 8,
        stream_seed: 42,
        threads: Threads::auto(),
        bench_out: None,
        csv_out: None,
    };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "--batches" => {
                cmd.batches = opts
                    .value_for("--batches")?
                    .parse()
                    .map_err(|e| ParseError(format!("bad --batches: {e}")))?;
                if cmd.batches == 0 {
                    return err("--batches must be at least 1");
                }
            }
            "--stream-seed" => {
                cmd.stream_seed = opts
                    .value_for("--stream-seed")?
                    .parse()
                    .map_err(|e| ParseError(format!("bad --stream-seed: {e}")))?;
            }
            "--threads" => {
                let value = opts.value_for("--threads")?;
                cmd.threads = Threads::parse(&value).ok_or_else(|| {
                    ParseError(format!("--threads expects a count or \"auto\", got {value:?}"))
                })?;
            }
            "--bench-out" => {
                cmd.bench_out = Some(PathBuf::from(opts.value_for("--bench-out")?));
            }
            "--csv-out" => cmd.csv_out = Some(PathBuf::from(opts.value_for("--csv-out")?)),
            // The stream leg composes with no other RunSpec leg, and
            // its horizon is the batch count — accepting these would
            // suggest otherwise.
            "--faults" | "--mtbf" | "--fault-seed" | "--checkpoint-every" => {
                return err(format!(
                    "stream runs on a healthy cluster; {flag} belongs to \
                     `gnnpart simulate --faults`"
                ));
            }
            "--mitigate" => {
                return err("stream runs unmitigated; `gnnpart simulate` takes --mitigate");
            }
            "--epochs" => {
                return err("stream trains one epoch per batch; use --batches for the horizon");
            }
            other => {
                if !apply_simulate_flag(&mut cmd.sim, other, opts)? {
                    return err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(Command::Stream(cmd))
}

fn parse_recommend(opts: &mut Opts) -> Result<Command, ParseError> {
    let Some(input) = opts.next() else {
        return err("recommend requires an edge-list path");
    };
    let mut cmd = RecommendCmd {
        input: PathBuf::from(input),
        k: 8,
        system: "distgnn".into(),
        epochs: 100,
        features: 64,
        hidden: 64,
        layers: 3,
        directed: false,
        threads: Threads::auto(),
    };
    while let Some(flag) = opts.next() {
        match flag.as_str() {
            "-k" => cmd.k = opts.machines()?,
            "--system" => cmd.system = opts.value_for("--system")?,
            "--epochs" => cmd.epochs = opts.numeric("--epochs")?,
            "--features" => cmd.features = opts.numeric("--features")?,
            "--hidden" => cmd.hidden = opts.numeric("--hidden")?,
            "--layers" => cmd.layers = opts.numeric("--layers")?,
            "--directed" => cmd.directed = true,
            "--threads" => {
                let value = opts.value_for("--threads")?;
                cmd.threads = Threads::parse(&value).ok_or_else(|| {
                    ParseError(format!("--threads expects a count or \"auto\", got {value:?}"))
                })?;
            }
            other => return err(format!("unknown option {other:?}")),
        }
    }
    Ok(Command::Recommend(cmd))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["help"]), Ok(Command::Help));
    }

    #[test]
    fn generate_defaults() {
        let Command::Generate(c) = parse(&["generate", "OR"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.dataset, "OR");
        assert_eq!(c.scale, GraphScale::Small);
        assert_eq!(c.out, None);
    }

    #[test]
    fn generate_with_options() {
        let Command::Generate(c) =
            parse(&["generate", "DI", "--scale", "tiny", "--out", "x.el"]).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(c.scale, GraphScale::Tiny);
        assert_eq!(c.out, Some(PathBuf::from("x.el")));
    }

    #[test]
    fn partition_options() {
        let Command::Partition(c) = parse(&[
            "partition",
            "g.el",
            "--algo",
            "HEP-100",
            "-k",
            "16",
            "--seed",
            "7",
            "--directed",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.algo, "HEP-100");
        assert_eq!(c.k, 16);
        assert_eq!(c.seed, 7);
        assert!(c.directed);
    }

    #[test]
    fn simulate_options() {
        let Command::Simulate(c) = parse(&[
            "simulate",
            "g.el",
            "--system",
            "distdgl",
            "--model",
            "gat",
            "--features",
            "512",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.system, "distdgl");
        assert_eq!(c.model, "gat");
        assert_eq!(c.features, 512);
        assert_eq!(c.layers, 3);
        assert!(!c.faults, "faults off by default");
        assert_eq!(c.mtbf, 5.0);
        assert_eq!(c.epochs, 10);
        assert_eq!(c.checkpoint_every, 0);
        assert_eq!(c.fault_seed, 42);
        assert_eq!(c.mitigate, "none", "mitigation off by default");
        assert_eq!(c.engine_threads, Threads::serial(), "serial engines by default");
    }

    #[test]
    fn engine_threads_flag_shared_by_engine_commands() {
        // The flag lives in the shared simulate handler, so every
        // engine-running command inherits it.
        for cmd in ["simulate", "trace", "diagnose", "chaos", "netchaos"] {
            let parsed = parse(&[cmd, "g.el", "--engine-threads", "4"]).unwrap();
            let sim = match &parsed {
                Command::Simulate(c) => c,
                Command::Trace(c) => &c.sim,
                Command::Diagnose(c) => &c.sim,
                Command::Chaos(c) => &c.sim,
                Command::NetChaos(c) => &c.sim,
                other => panic!("wrong command {other:?}"),
            };
            assert_eq!(sim.engine_threads, Threads::new(4), "{cmd}");
        }
        let Command::Simulate(c) =
            parse(&["simulate", "g.el", "--engine-threads", "auto"]).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(c.engine_threads, Threads::auto());
        assert!(parse(&["simulate", "g.el", "--engine-threads", "many"])
            .unwrap_err()
            .0
            .contains("--engine-threads expects"));
        assert!(parse(&["simulate", "g.el", "--engine-threads"])
            .unwrap_err()
            .0
            .contains("requires a value"));
    }

    #[test]
    fn simulate_fault_options() {
        let Command::Simulate(c) = parse(&[
            "simulate",
            "g.el",
            "--faults",
            "--mtbf",
            "3.5",
            "--epochs",
            "20",
            "--checkpoint-every",
            "4",
            "--fault-seed",
            "7",
            "--mitigate",
            "all",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert!(c.faults);
        assert_eq!(c.mtbf, 3.5);
        assert_eq!(c.epochs, 20);
        assert_eq!(c.checkpoint_every, 4);
        assert_eq!(c.fault_seed, 7);
        assert_eq!(c.mitigate, "all");
    }

    #[test]
    fn simulate_accepts_every_mitigation_mode() {
        for mode in ["none", "steal", "speculate", "adaptive", "all"] {
            let Command::Simulate(c) =
                parse(&["simulate", "g.el", "--faults", "--mitigate", mode]).unwrap()
            else {
                panic!("wrong command");
            };
            assert_eq!(c.mitigate, mode);
        }
    }

    #[test]
    fn simulate_rejects_bad_mitigation_mode() {
        assert!(parse(&["simulate", "g.el", "--mitigate", "wishful"])
            .unwrap_err()
            .0
            .contains("unknown mitigation mode"));
        assert!(parse(&["simulate", "g.el", "--mitigate"])
            .unwrap_err()
            .0
            .contains("requires a value"));
    }

    #[test]
    fn simulate_rejects_bad_mtbf() {
        assert!(parse(&["simulate", "g.el", "--mtbf", "0"])
            .unwrap_err()
            .0
            .contains("must be positive"));
        assert!(parse(&["simulate", "g.el", "--mtbf", "abc"])
            .unwrap_err()
            .0
            .contains("bad --mtbf"));
    }

    #[test]
    fn simulate_rejects_zero_epochs() {
        // The validation lives in the shared flag handler, so every
        // command that composes simulate options inherits it.
        for cmd in ["simulate", "trace", "diagnose", "chaos", "netchaos"] {
            assert!(parse(&[cmd, "g.el", "--epochs", "0"])
                .unwrap_err()
                .0
                .contains("--epochs must be at least 1"));
        }
        assert!(parse(&["simulate", "g.el", "--epochs", "abc"])
            .unwrap_err()
            .0
            .contains("bad --epochs"));
    }

    #[test]
    fn simulate_rejects_zero_checkpoint_every() {
        for cmd in ["simulate", "trace", "diagnose", "chaos", "netchaos"] {
            assert!(parse(&[cmd, "g.el", "--checkpoint-every", "0"])
                .unwrap_err()
                .0
                .contains("--checkpoint-every must be at least 1"));
        }
        // Omitting the flag still means "no checkpoints" for simulate.
        let Command::Simulate(c) = parse(&["simulate", "g.el"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.checkpoint_every, 0);
    }

    #[test]
    fn trace_defaults() {
        let Command::Trace(c) = parse(&["trace", "g.el"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.trace_out, PathBuf::from("trace.json"));
        assert_eq!(c.phase_csv, None);
        assert_eq!(c.sim.algo, "HDRF");
        assert!(!c.sim.faults);
    }

    #[test]
    fn trace_composes_simulate_and_trace_flags() {
        let Command::Trace(c) = parse(&[
            "trace",
            "g.el",
            "--system",
            "distdgl",
            "--faults",
            "--mitigate",
            "all",
            "--epochs",
            "4",
            "--trace-out",
            "t.json",
            "--phase-csv",
            "p.csv",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.system, "distdgl");
        assert!(c.sim.faults);
        assert_eq!(c.sim.mitigate, "all");
        assert_eq!(c.sim.epochs, 4);
        assert_eq!(c.trace_out, PathBuf::from("t.json"));
        assert_eq!(c.phase_csv, Some(PathBuf::from("p.csv")));
    }

    #[test]
    fn trace_rejects_unknown_options() {
        assert!(parse(&["trace", "g.el", "--bogus"]).unwrap_err().0.contains("unknown option"));
        assert!(parse(&["trace"]).unwrap_err().0.contains("edge-list path"));
    }

    #[test]
    fn diagnose_defaults() {
        let Command::Diagnose(c) = parse(&["diagnose", "g.el"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.prom_out, PathBuf::from("metrics.prom"));
        assert_eq!(c.report_out, PathBuf::from("report.md"));
        assert_eq!(c.sim.algo, "HDRF");
        assert!(!c.sim.faults);
    }

    #[test]
    fn diagnose_composes_simulate_and_diagnose_flags() {
        let Command::Diagnose(c) = parse(&[
            "diagnose",
            "g.el",
            "--system",
            "distdgl",
            "--faults",
            "--mtbf",
            "3.0",
            "--mitigate",
            "steal",
            "--epochs",
            "5",
            "--checkpoint-every",
            "2",
            "--fault-seed",
            "9",
            "--prom-out",
            "m.prom",
            "--report-out",
            "r.md",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.system, "distdgl");
        assert!(c.sim.faults);
        assert_eq!(c.sim.mtbf, 3.0);
        assert_eq!(c.sim.mitigate, "steal");
        assert_eq!(c.sim.epochs, 5);
        assert_eq!(c.sim.checkpoint_every, 2);
        assert_eq!(c.sim.fault_seed, 9);
        assert_eq!(c.prom_out, PathBuf::from("m.prom"));
        assert_eq!(c.report_out, PathBuf::from("r.md"));
    }

    #[test]
    fn diagnose_rejects_unknown_options() {
        assert!(parse(&["diagnose", "g.el", "--bogus"]).unwrap_err().0.contains("unknown option"));
        assert!(parse(&["diagnose"]).unwrap_err().0.contains("edge-list path"));
        assert!(parse(&["diagnose", "g.el", "--prom-out"])
            .unwrap_err()
            .0
            .contains("requires a value"));
    }

    #[test]
    fn chaos_defaults() {
        let Command::Chaos(c) = parse(&["chaos", "g.el"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.algo, "all", "whole roster by default");
        assert!(c.sim.faults, "faults always on");
        assert_eq!(c.sim.epochs, 20);
        assert_eq!(c.sim.checkpoint_every, 4, "checkpoints mandatory");
        assert_eq!(c.sim.system, "distgnn");
        assert_eq!(c.sim.fault_seed, 42);
        assert_eq!(c.threads, Threads::auto());
        assert_eq!(c.bench_out, None);
        assert_eq!(c.csv_out, None);
    }

    #[test]
    fn chaos_composes_simulate_and_chaos_flags() {
        let Command::Chaos(c) = parse(&[
            "chaos",
            "g.el",
            "--system",
            "distdgl",
            "--algo",
            "METIS",
            "-k",
            "6",
            "--epochs",
            "12",
            "--checkpoint-every",
            "3",
            "--mtbf",
            "2.5",
            "--fault-seed",
            "7",
            "--threads",
            "2",
            "--bench-out",
            "b.json",
            "--csv-out",
            "c.csv",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.system, "distdgl");
        assert_eq!(c.sim.algo, "METIS");
        assert_eq!(c.sim.k, 6);
        assert_eq!(c.sim.epochs, 12);
        assert_eq!(c.sim.checkpoint_every, 3);
        assert_eq!(c.sim.mtbf, 2.5);
        assert_eq!(c.sim.fault_seed, 7);
        assert_eq!(c.threads, Threads::new(2));
        assert_eq!(c.bench_out, Some(PathBuf::from("b.json")));
        assert_eq!(c.csv_out, Some(PathBuf::from("c.csv")));
    }

    #[test]
    fn chaos_rejects_fault_toggles_and_unknowns() {
        assert!(parse(&["chaos"]).unwrap_err().0.contains("edge-list path"));
        assert!(parse(&["chaos", "g.el", "--faults"])
            .unwrap_err()
            .0
            .contains("always injects faults"));
        assert!(parse(&["chaos", "g.el", "--mitigate", "all"])
            .unwrap_err()
            .0
            .contains("runs unmitigated"));
        assert!(parse(&["chaos", "g.el", "--bogus"]).unwrap_err().0.contains("unknown option"));
        assert!(parse(&["chaos", "g.el", "--threads", "many"])
            .unwrap_err()
            .0
            .contains("--threads expects"));
        assert!(parse(&["chaos", "g.el", "--bench-out"])
            .unwrap_err()
            .0
            .contains("requires a value"));
    }

    #[test]
    fn netchaos_defaults() {
        let Command::NetChaos(c) = parse(&["netchaos", "g.el"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.algo, "all", "whole roster by default");
        assert!(c.sim.faults, "faults always on");
        assert_eq!(c.sim.epochs, 20);
        assert_eq!(c.sim.checkpoint_every, 4, "checkpoints mandatory");
        assert_eq!(c.sim.system, "distgnn");
        assert_eq!(c.sim.fault_seed, 42);
        assert_eq!(c.threads, Threads::auto());
        assert_eq!(c.bench_out, None);
        assert_eq!(c.csv_out, None);
        assert_eq!(c.prom_out, None);
    }

    #[test]
    fn netchaos_composes_simulate_and_netchaos_flags() {
        let Command::NetChaos(c) = parse(&[
            "netchaos",
            "g.el",
            "--system",
            "distdgl",
            "--algo",
            "METIS",
            "-k",
            "6",
            "--epochs",
            "12",
            "--checkpoint-every",
            "3",
            "--mtbf",
            "2.5",
            "--fault-seed",
            "7",
            "--threads",
            "2",
            "--bench-out",
            "b.json",
            "--csv-out",
            "c.csv",
            "--prom-out",
            "m.prom",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.system, "distdgl");
        assert_eq!(c.sim.algo, "METIS");
        assert_eq!(c.sim.k, 6);
        assert_eq!(c.sim.epochs, 12);
        assert_eq!(c.sim.checkpoint_every, 3);
        assert_eq!(c.sim.mtbf, 2.5);
        assert_eq!(c.sim.fault_seed, 7);
        assert_eq!(c.threads, Threads::new(2));
        assert_eq!(c.bench_out, Some(PathBuf::from("b.json")));
        assert_eq!(c.csv_out, Some(PathBuf::from("c.csv")));
        assert_eq!(c.prom_out, Some(PathBuf::from("m.prom")));
    }

    #[test]
    fn netchaos_rejects_fault_toggles_and_unknowns() {
        assert!(parse(&["netchaos"]).unwrap_err().0.contains("edge-list path"));
        assert!(parse(&["netchaos", "g.el", "--faults"])
            .unwrap_err()
            .0
            .contains("always injects faults"));
        assert!(parse(&["netchaos", "g.el", "--mitigate", "all"])
            .unwrap_err()
            .0
            .contains("runs unmitigated"));
        assert!(parse(&["netchaos", "g.el", "--bogus"]).unwrap_err().0.contains("unknown option"));
        assert!(parse(&["netchaos", "g.el", "--threads", "many"])
            .unwrap_err()
            .0
            .contains("--threads expects"));
    }

    #[test]
    fn stream_defaults() {
        let Command::Stream(c) = parse(&["stream", "g.el"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.algo, "all", "whole roster by default");
        assert!(!c.sim.faults, "stream runs healthy");
        assert_eq!(c.sim.system, "distgnn");
        assert_eq!(c.batches, 8);
        assert_eq!(c.stream_seed, 42);
        assert_eq!(c.threads, Threads::auto());
        assert_eq!(c.bench_out, None);
        assert_eq!(c.csv_out, None);
    }

    #[test]
    fn stream_composes_simulate_and_stream_flags() {
        let Command::Stream(c) = parse(&[
            "stream",
            "g.el",
            "--system",
            "distdgl",
            "--algo",
            "LDG",
            "-k",
            "6",
            "--model",
            "gcn",
            "--batches",
            "12",
            "--stream-seed",
            "7",
            "--threads",
            "2",
            "--engine-threads",
            "4",
            "--bench-out",
            "b.json",
            "--csv-out",
            "c.csv",
        ])
        .unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.sim.system, "distdgl");
        assert_eq!(c.sim.algo, "LDG");
        assert_eq!(c.sim.k, 6);
        assert_eq!(c.sim.model, "gcn");
        assert_eq!(c.batches, 12);
        assert_eq!(c.stream_seed, 7);
        assert_eq!(c.threads, Threads::new(2));
        assert_eq!(c.sim.engine_threads, Threads::new(4));
        assert_eq!(c.bench_out, Some(PathBuf::from("b.json")));
        assert_eq!(c.csv_out, Some(PathBuf::from("c.csv")));
    }

    #[test]
    fn stream_rejects_fault_family_and_unknowns() {
        assert!(parse(&["stream"]).unwrap_err().0.contains("edge-list path"));
        for flag in ["--faults", "--mtbf", "--fault-seed", "--checkpoint-every"] {
            assert!(
                parse(&["stream", "g.el", flag, "3"]).unwrap_err().0.contains("healthy cluster"),
                "{flag}"
            );
        }
        assert!(parse(&["stream", "g.el", "--mitigate", "all"])
            .unwrap_err()
            .0
            .contains("runs unmitigated"));
        assert!(parse(&["stream", "g.el", "--epochs", "5"])
            .unwrap_err()
            .0
            .contains("use --batches"));
        assert!(parse(&["stream", "g.el", "--batches", "0"])
            .unwrap_err()
            .0
            .contains("--batches must be at least 1"));
        assert!(parse(&["stream", "g.el", "--batches", "zz"])
            .unwrap_err()
            .0
            .contains("bad --batches"));
        assert!(parse(&["stream", "g.el", "--bogus"]).unwrap_err().0.contains("unknown option"));
        assert!(parse(&["stream", "g.el", "--threads", "many"])
            .unwrap_err()
            .0
            .contains("--threads expects"));
    }

    #[test]
    fn recommend_options() {
        let Command::Recommend(c) =
            parse(&["recommend", "g.el", "--epochs", "50", "--system", "distdgl"]).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(c.epochs, 50);
        assert_eq!(c.system, "distdgl");
        assert_eq!(c.k, 8);
        assert_eq!(c.threads, Threads::auto(), "auto pool width by default");
    }

    #[test]
    fn recommend_threads_flag() {
        let Command::Recommend(c) = parse(&["recommend", "g.el", "--threads", "4"]).unwrap() else {
            panic!("wrong command");
        };
        assert_eq!(c.threads, Threads::new(4));
        let Command::Recommend(c) = parse(&["recommend", "g.el", "--threads", "auto"]).unwrap()
        else {
            panic!("wrong command");
        };
        assert_eq!(c.threads, Threads::auto());
        assert!(parse(&["recommend", "g.el", "--threads", "many"])
            .unwrap_err()
            .0
            .contains("--threads expects"));
        assert!(parse(&["recommend", "g.el", "--threads"])
            .unwrap_err()
            .0
            .contains("requires a value"));
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse(&["frobnicate"]).unwrap_err().0.contains("unknown command"));
        assert!(parse(&["generate"]).unwrap_err().0.contains("dataset id"));
        assert!(parse(&["partition", "g.el", "-k"]).unwrap_err().0.contains("requires a value"));
        assert!(parse(&["partition", "g.el", "-k", "zz"]).unwrap_err().0.contains("bad -k"));
        assert!(parse(&["generate", "OR", "--scale", "huge"])
            .unwrap_err()
            .0
            .contains("unknown scale"));
    }

    #[test]
    fn machine_counts_and_epochs_are_range_checked_not_truncated() {
        for cmd in ["partition", "simulate", "trace", "diagnose", "chaos", "recommend"] {
            for k in ["0", "65", "4294967300"] {
                let e = parse(&[cmd, "g.el", "-k", k]).unwrap_err().0;
                assert!(e.starts_with("bad -k: "), "{cmd} -k {k}: {e}");
            }
            assert!(parse(&[cmd, "g.el", "-k", "64"]).is_ok(), "{cmd} -k 64");
        }
        assert_eq!(
            parse(&["simulate", "g.el", "-k", "0"]).unwrap_err().0,
            "bad -k: 0 is outside 1..=64"
        );
        for cmd in ["simulate", "recommend"] {
            let e = parse(&[cmd, "g.el", "--epochs", "4294967297"]).unwrap_err().0;
            assert!(e.starts_with("bad --epochs: "), "{cmd}: {e}");
        }
    }
}
