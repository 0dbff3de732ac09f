//! `faasbatch` — command-line front end for the reproduction.
//!
//! `faasbatch help` prints every subcommand and its flags; both are
//! generated from the one [`COMMANDS`] table the parser validates against.

use faasbatch::container::snapshot::{EvictionPolicy, SnapshotConfig};
use faasbatch::core::policy::FaasBatchConfig;
use faasbatch::core::scheduler_kind::{run_comparison, SchedulerKind, SchedulerSetup};
use faasbatch::fleet::config::{FaultKind, FleetConfig, WorkerFault, WorkerScheduler};
use faasbatch::fleet::routing::RoutingKind;
use faasbatch::fleet::sim::run_fleet;
use faasbatch::metrics::analysis::{
    diff_reports, load_events, AttributionEngine, AttributionReport,
};
use faasbatch::metrics::autoscaler::AutoscalerConfig;
use faasbatch::metrics::events::{
    chrome_trace_to, to_jsonl, AuditorSink, NoopSink, SimEvent, TraceSink, VecSink,
};
use faasbatch::metrics::report::{text_table, RunReport};
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::arrival::{bin_counts, burstiness};
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use std::collections::HashMap;
use std::process::ExitCode;

/// What [`build_workload`] reads. Every flag list below is a
/// whitespace-separated spec — `--name PLACEHOLDER` takes a value, a bare
/// `--name` is boolean — and is the one table the parser validates against
/// and `usage()` prints; `{schedulers}`, `{evictions}` and `{policies}`
/// expand to the registries' names ([`expand`]).
const WORKLOAD: &str = "--workload cpu|io --seed N --total N --span-s N --functions N \
                        --bursts N --heterogeneity H";
/// [`WORKLOAD`] plus what [`load_or_build`] and every replay read.
const REPLAY: &str = "--import FILE --window-ms N";
/// What [`snapshot_config`] reads.
const SNAPSHOT: &str = "--snapshot-cap N --snapshot-eviction {evictions}";
/// What [`LiveTelemetry::from_opts`] reads.
const TELEMETRY: &str =
    "--metrics-addr HOST:PORT --serve-ms N --flight-record FILE --flight-capacity N";

/// One subcommand: its parser, its `usage()` lines and its dispatch all
/// come from this row.
struct Command {
    name: &'static str,
    /// Placeholder for the positional arguments it takes (empty: none).
    positionals: &'static str,
    /// Every flag it accepts, as spec strings shared between commands.
    flags: &'static [&'static str],
    /// Its paragraph in the COMMANDS section, continuation lines indented.
    about: &'static str,
    run: fn(&Options) -> Result<(), CliError>,
}

impl Command {
    /// `(name, value placeholder)` of every accepted flag, in usage order.
    fn flags(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        let mut tokens = self
            .flags
            .iter()
            .flat_map(|s| s.split_whitespace())
            .peekable();
        std::iter::from_fn(move || {
            let name = tokens.next()?;
            Some((name, tokens.next_if(|t| !t.starts_with("--"))))
        })
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "compare",
        positionals: "",
        flags: &[WORKLOAD, REPLAY, "--no-multiplex", SNAPSHOT],
        about: "replay one workload under all {scheduler_count} schedulers
               ({schedulers})",
        run: cmd_compare,
    },
    Command {
        name: "workload",
        positionals: "",
        flags: &[WORKLOAD, "--export FILE"],
        about: "generate a workload and print its statistics",
        run: cmd_workload,
    },
    Command {
        name: "fleet",
        positionals: "",
        flags: &[
            "--workers N --policy {policies} --scheduler faasbatch|vanilla",
            WORKLOAD,
            REPLAY,
            "--max-retries N --redispatch-ms N --crash W@MS[,W@MS…] --drain W@MS[,W@MS…]",
        ],
        about: "replay one workload across a multi-worker fleet with a
               pluggable routing policy and optional worker faults",
        run: cmd_fleet,
    },
    Command {
        name: "trace",
        positionals: "",
        flags: &[
            "--scheduler {schedulers}",
            WORKLOAD,
            REPLAY,
            "--no-multiplex",
            SNAPSHOT,
            "--out FILE --chrome FILE --analyze FILE",
        ],
        about: "replay one workload under one scheduler, audit the event
               stream, print the latency attribution summary, and export the
               stream as JSONL (--out FILE, default
               faasbatch-trace-<scheduler>.jsonl in the temp dir) and
               optionally as a Chrome about:tracing timeline (--chrome
               FILE); --analyze FILE instead attributes an existing JSONL
               log offline",
        run: cmd_trace,
    },
    Command {
        name: "trace-diff",
        positionals: "A.jsonl B.jsonl",
        flags: &["--top K --json FILE"],
        about: "explain why run B is faster or slower than run A: align two
               JSONL event logs by invocation id and attribute the latency
               delta to named phases (cold start, queue, contention, …)",
        run: cmd_trace_diff,
    },
    Command {
        name: "autoscale",
        positionals: "",
        flags: &[
            "--scheduler {schedulers}",
            WORKLOAD,
            REPLAY,
            "--keepalive-s N --prewarm-cap N --keepalive-floor-s N --keepalive-ceiling-s N",
            SNAPSHOT,
            "--snapshot-prewarm",
        ],
        about: "replay one workload under one scheduler twice — static config
               vs the trace-driven autoscaling controller — audit the
               controller's actions, and print the comparison",
        run: cmd_autoscale,
    },
    Command {
        name: "live",
        positionals: "",
        flags: &[
            "--jobs N --batch-size N --workers N --window-ms N --cold-ms N",
            "--work-us N --audit --out FILE",
            LIVE_PLATFORM,
            TELEMETRY,
            "--gateway",
            LIVE_GATEWAY,
        ],
        about: "fire a synthetic burst at the real (wall-clock) platform on
               the work-stealing executor and print throughput plus
               p50/p95/p99 latency; --audit replays
               the emitted event stream through the invariant auditor and the
               attribution engine, --out FILE exports it as JSONL (readable
               by `faasbatch trace --analyze`); with --gateway the burst
               instead enters the sharded live gateway, which routes each
               dispatch-window group as a unit across --workers N live
               workers (default 8) from --shards N ingress shards
               under the chosen routing policy, with per-shard admission
               control (saturated shards reject instead of buffering);
               --metrics-addr serves live Prometheus text on /metrics and a
               JSON snapshot on /json (--serve-ms holds the endpoint open
               after the burst), --flight-record FILE keeps a bounded ring
               of recent events and dumps it as JSONL on panic or shutdown
               (readable by `faasbatch trace --analyze`)",
        run: cmd_live,
    },
    Command {
        name: "top",
        positionals: "",
        flags: &["--addr HOST:PORT"],
        about: "one-shot renderer over a running live endpoint's /json
               snapshot: counters, gauges, and histogram quantiles",
        run: cmd_top,
    },
    Command {
        name: "figures",
        positionals: "",
        flags: &[],
        about: "say where the figure and ablation harnesses live
               (`faasbatch-bench list`)",
        run: cmd_figures,
    },
    Command {
        name: "help",
        positionals: "",
        flags: &[],
        about: "print this text",
        run: |_| {
            println!("{}", usage());
            Ok(())
        },
    },
];

/// Fills the registry placeholders of a flag value or an `about` text, so
/// a new scheduler, eviction policy or routing policy shows up in
/// `usage()` without touching the table.
fn expand(text: &str) -> String {
    text.replace(
        "{schedulers}",
        &SchedulerKind::ALL.map(SchedulerKind::name).join("|"),
    )
    .replace(
        "{evictions}",
        &EvictionPolicy::ALL.map(EvictionPolicy::name).join("|"),
    )
    .replace(
        "{policies}",
        &RoutingKind::ALL.map(RoutingKind::name).join("|"),
    )
    .replace("{scheduler_count}", &SchedulerKind::ALL.len().to_string())
}

/// One command's USAGE lines: its positionals and `[--flag VALUE]`
/// fragments, wrapped under a hanging indent.
fn usage_lines(command: &Command) -> String {
    const INDENT: usize = 8;
    const WIDTH: usize = 78;
    let mut text = format!("    faasbatch {}", command.name);
    let mut column = text.len();
    let positionals = (!command.positionals.is_empty()).then(|| command.positionals.to_owned());
    let flags = command.flags().map(|(name, value)| match value {
        Some(value) => format!("[{name} {}]", expand(value)),
        None => format!("[{name}]"),
    });
    for fragment in positionals.into_iter().chain(flags) {
        let width = fragment.chars().count();
        if column + 1 + width > WIDTH {
            text.push('\n');
            text.push_str(&" ".repeat(INDENT - 1));
            column = INDENT - 1;
        }
        text.push(' ');
        text.push_str(&fragment);
        column += 1 + width;
    }
    text
}

/// Builds the usage text from [`COMMANDS`].
fn usage() -> String {
    let mut text = "faasbatch — FaaSBatch (ICDCS'23) reproduction CLI\n\nUSAGE:\n".to_owned();
    for command in COMMANDS {
        text.push_str(&usage_lines(command));
        text.push('\n');
    }
    text.push_str("\nCOMMANDS:\n");
    for command in COMMANDS {
        text.push_str(&format!(
            "    {:<10} {}\n",
            command.name,
            expand(command.about)
        ));
    }
    text.push_str(
        "
Workloads exported with `workload --export` replay bit-identically via
`compare --import`. Defaults: cpu workload, seed 2023, 200 ms window,
paper-sized totals; `--window-ms`, `--span-s` and `--functions` must be at
least 1 and a replayed workload must hold an invocation. `--snapshot-cap N`
enables the snapshot-restore start tier with N cache slots (0 = off);
`--snapshot-prewarm` lets the autoscale controller pick the prewarm tier by
predicted re-use horizon. An unknown flag, a repeated flag or a flag
without its value is an error.",
    );
    text
}

/// Why a command failed. A usage mistake — an unknown command, an unknown,
/// repeated or value-less flag, a bad value — is followed by the usage
/// text; a run-time failure (an auditor violation, a failed fleet replay,
/// an I/O error) prints its cause alone.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Failed(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => msg,
        }
    }
}

/// A bare cause is a run-time failure; usage mistakes say so.
impl From<String> for CliError {
    fn from(cause: String) -> Self {
        CliError::Failed(cause)
    }
}

/// One subcommand's parsed arguments: `--key value` options (boolean
/// flags map to \"true\") and positionals, each in order of appearance.
#[derive(Debug, Default)]
struct Options {
    values: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Options {
    /// Parses `args` against `command`'s flag table: an unknown flag, a
    /// repeated flag, a flag without its value, or a positional the
    /// command does not take is an error naming the offender.
    fn parse(command: &Command, args: &[String]) -> Result<Options, CliError> {
        let mut opts = Options::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if command.positionals.is_empty() {
                    return Err(CliError::Usage(format!("unexpected argument: {arg}")));
                }
                opts.positionals.push(arg.clone());
                continue;
            }
            let (_, placeholder) =
                command
                    .flags()
                    .find(|(name, _)| name == arg)
                    .ok_or_else(|| {
                        CliError::Usage(format!("unknown flag for `{}`: {arg}", command.name))
                    })?;
            let value = match placeholder {
                None => "true".to_owned(),
                Some(_) => args
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("missing value for {arg}")))?
                    .clone(),
            };
            if opts.values.insert(arg.clone(), value).is_some() {
                return Err(CliError::Usage(format!("{arg} given more than once")));
            }
        }
        Ok(opts)
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid number for {key}: {v}"))),
        }
    }

    /// A numeric option that must be at least 1 — a zero dispatch window,
    /// trace span or function count has no meaning downstream.
    fn positive<T>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T: std::str::FromStr + PartialEq + From<u8>,
    {
        let n = self.num(key, default)?;
        if n == T::from(0) {
            return Err(CliError::Usage(format!("{key} must be at least 1")));
        }
        Ok(n)
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// Parses and runs one subcommand — everything `main` does after picking
/// the command name off the argument list.
fn run(name: &str, args: &[String]) -> Result<(), CliError> {
    let name = match name {
        "--help" | "-h" => "help",
        other => other,
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command: {name}")))?;
    (command.run)(&Options::parse(command, args)?)
}

fn build_workload(opts: &Options) -> Result<(String, Workload), CliError> {
    let kind = opts.str("--workload", "cpu");
    let seed: u64 = opts.num("--seed", 2023)?;
    let rng = DetRng::new(seed);
    let (default_total, default_span) = match kind.as_str() {
        "cpu" => (800usize, 60u64),
        "io" => (400, 30),
        other => {
            return Err(CliError::Usage(format!(
                "unknown workload kind: {other} (use cpu|io)"
            )))
        }
    };
    let cfg = WorkloadConfig {
        total: opts.num("--total", default_total)?,
        span: SimDuration::from_secs(opts.positive("--span-s", default_span)?),
        functions: opts.positive("--functions", 8)?,
        bursts: opts.num("--bursts", if kind == "cpu" { 6 } else { 4 })?,
        heterogeneity: opts.num("--heterogeneity", 0.0)?,
    };
    let w = match kind.as_str() {
        "cpu" => cpu_workload(&rng, &cfg),
        _ => io_workload(&rng, &cfg),
    };
    Ok((kind, w))
}

/// The workload a replay subcommand runs: `--import FILE` or a generated
/// one. Replays need at least one invocation (their tables take quantiles).
fn load_or_build(opts: &Options) -> Result<(String, Workload), CliError> {
    let (label, w) = match opts.values.get("--import") {
        None => build_workload(opts)?,
        Some(path) => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let w: Workload =
                serde_json::from_str(&json).map_err(|e| format!("invalid workload JSON: {e}"))?;
            ("imported".to_owned(), w)
        }
    };
    if w.is_empty() {
        return Err(CliError::Usage(
            "the workload holds no invocations (--total must be at least 1)".to_owned(),
        ));
    }
    Ok((label, w))
}

/// Parses the `--snapshot-cap` / `--snapshot-eviction` pair shared by the
/// simulation subcommands. Capacity 0 (the default) leaves the tier off.
fn snapshot_config(opts: &Options) -> Result<SnapshotConfig, CliError> {
    let capacity: usize = opts.num("--snapshot-cap", 0)?;
    let name = opts.str("--snapshot-eviction", EvictionPolicy::default().name());
    let eviction = EvictionPolicy::parse(&name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown eviction policy: {name} (use {})",
            EvictionPolicy::ALL.map(EvictionPolicy::name).join("|")
        ))
    })?;
    Ok(SnapshotConfig {
        capacity,
        eviction,
        ..SnapshotConfig::default()
    })
}

fn cmd_compare(opts: &Options) -> Result<(), CliError> {
    let (label, w) = load_or_build(opts)?;
    let window = SimDuration::from_millis(opts.positive("--window-ms", 200)?);
    let cfg = SimConfig {
        snapshot: snapshot_config(opts)?,
        ..SimConfig::default()
    };
    println!(
        "replaying {} invocations ({label}) with a {window} window…\n",
        w.len()
    );
    let mut setup = SchedulerSetup::new(window);
    setup.faasbatch.multiplex = !opts.flag("--no-multiplex");
    let (reports, _) = run_comparison(&SchedulerKind::ALL, &w, &label, &cfg, &setup, |_| {
        Box::new(NoopSink)
    });

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r: &RunReport| {
            vec![
                r.scheduler.clone(),
                format!("{}", r.end_to_end_cdf().mean()),
                format!("{}", r.end_to_end_cdf().quantile(0.99)),
                r.provisioned_containers.to_string(),
                r.restored_starts.to_string(),
                format!("{:.0} MB", r.mean_memory_bytes() / (1 << 20) as f64),
                format!("{:.1}%", r.mean_cpu_utilization() * 100.0),
                format!("{:.1}", r.core_seconds_daemon),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "scheduler",
                "e2e mean",
                "e2e p99",
                "containers",
                "restored",
                "mem mean",
                "cpu util",
                "daemon cpu-s"
            ],
            &rows,
        )
    );
    if reports.iter().any(|r| r.restored_starts > 0) {
        for r in &reports {
            let s = r.snapshot_stats;
            println!(
                "{}: snapshot cache hits {} | misses {} | evictions {} | captures {}",
                r.scheduler, s.hits, s.misses, s.evictions, s.captures
            );
        }
    }
    Ok(())
}

fn cmd_workload(opts: &Options) -> Result<(), CliError> {
    let (label, w) = build_workload(opts)?;
    if let Some(path) = opts.values.get("--export") {
        let json = serde_json::to_string(&w).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("exported workload to {path}");
    }
    println!(
        "{label} workload: {} invocations, {} functions, span {}",
        w.len(),
        w.registry().len(),
        w.last_arrival()
    );
    let arrivals: Vec<_> = w.invocations().iter().map(|i| i.arrival).collect();
    let span = (w.last_arrival() + SimDuration::from_secs(1))
        .saturating_duration_since(faasbatch::simcore::time::SimTime::ZERO);
    let per_sec = bin_counts(&arrivals, SimDuration::from_secs(1), span);
    println!(
        "arrivals: peak {}/s, burstiness {:.1}",
        per_sec.iter().max().copied().unwrap_or(0),
        burstiness(&per_sec)
    );
    println!(
        "total intrinsic work: {:.1} core-seconds",
        w.total_work().as_secs_f64()
    );
    let mut counts: Vec<(String, usize)> = w
        .registry()
        .iter()
        .map(|(id, p)| {
            (
                p.name.clone(),
                w.invocations().iter().filter(|i| i.function == id).count(),
            )
        })
        .collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let rows: Vec<Vec<String>> = counts
        .into_iter()
        .map(|(name, c)| {
            vec![
                name,
                c.to_string(),
                format!("{:.1}%", 100.0 * c as f64 / w.len() as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["function", "invocations", "share"], &rows)
    );
    Ok(())
}

/// Parses a `W@MS[,W@MS…]` fault list (worker index @ millisecond instant).
fn parse_faults(spec: &str, kind: FaultKind) -> Result<Vec<WorkerFault>, String> {
    spec.split(',')
        .map(|part| {
            let (w, ms) = part
                .split_once('@')
                .ok_or_else(|| format!("invalid fault `{part}` (expected W@MS)"))?;
            Ok(WorkerFault {
                worker: w
                    .parse()
                    .map_err(|_| format!("invalid worker index in `{part}`"))?,
                at: faasbatch::simcore::time::SimTime::from_millis(
                    ms.parse()
                        .map_err(|_| format!("invalid millisecond instant in `{part}`"))?,
                ),
                kind,
            })
        })
        .collect()
}

fn cmd_fleet(opts: &Options) -> Result<(), CliError> {
    let (label, w) = load_or_build(opts)?;
    let policy_name = opts.str("--policy", "least-loaded");
    let kind = RoutingKind::parse(&policy_name).map_err(|e| CliError::Usage(e.to_string()))?;
    let window = SimDuration::from_millis(opts.positive("--window-ms", 200)?);
    let scheduler = match opts.str("--scheduler", "faasbatch").as_str() {
        "faasbatch" => WorkerScheduler::FaasBatch(FaasBatchConfig::with_window(window)),
        "vanilla" => WorkerScheduler::Vanilla,
        other => {
            return Err(CliError::Usage(format!(
                "unknown scheduler: {other} (use faasbatch|vanilla)"
            )))
        }
    };
    let mut faults = Vec::new();
    if let Some(spec) = opts.values.get("--crash") {
        faults.extend(parse_faults(spec, FaultKind::Crash).map_err(CliError::Usage)?);
    }
    if let Some(spec) = opts.values.get("--drain") {
        faults.extend(parse_faults(spec, FaultKind::Drain).map_err(CliError::Usage)?);
    }
    let cfg = FleetConfig {
        workers: opts.num("--workers", 4)?,
        window,
        scheduler,
        faults,
        max_retries: opts.num("--max-retries", 3)?,
        redispatch_delay: SimDuration::from_millis(opts.num("--redispatch-ms", 50)?),
        ..FleetConfig::default()
    };

    println!(
        "replaying {} invocations ({label}) over {} workers, {} routing…\n",
        w.len(),
        cfg.workers,
        kind.name()
    );
    let report = run_fleet(&w, &cfg, kind.build(), &label)
        .map_err(|e| format!("fleet replay failed: {e}"))?;

    let rows: Vec<Vec<String>> = report
        .workers
        .iter()
        .map(|wr| {
            vec![
                wr.worker.to_string(),
                wr.fault.map_or("-".to_owned(), |f| {
                    format!("{:?}@{}", f.kind, f.at).to_lowercase()
                }),
                wr.completed.to_string(),
                wr.lost.to_string(),
                wr.report.provisioned_containers.to_string(),
                wr.report.warm_hits.to_string(),
                format!("{:.2}", wr.report.sampler.mean_busy_cores()),
                format!("{:.0} MB", wr.report.mean_memory_bytes() / (1 << 20) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "worker",
                "fault",
                "completed",
                "lost",
                "containers",
                "warm hits",
                "busy cores",
                "mem mean"
            ],
            &rows,
        )
    );
    let e2e = report.end_to_end_cdf();
    println!(
        "fleet: e2e mean {} | e2e p99 {} | warm-hit rate {:.1}% | imbalance CoV {:.3}",
        e2e.mean(),
        e2e.quantile(0.99),
        report.warm_hit_rate() * 100.0,
        report.load_imbalance()
    );
    println!(
        "       retries {} | retry delay {} | makespan {}",
        report.retries, report.retry_delay_total, report.makespan
    );
    Ok(())
}

/// Folds an event stream into its attribution report.
fn attribute_events(events: &[SimEvent]) -> AttributionReport {
    let mut engine = AttributionEngine::new();
    engine.consume(events);
    engine.finish()
}

/// Replays `events` through the invariant auditor: prints the clean line,
/// or every violation and an error — a violation means the run broke a
/// simulation (or live-platform) invariant.
fn audit(events: &[SimEvent]) -> Result<(), String> {
    let mut auditor = AuditorSink::new();
    auditor.record_batch(events);
    let violations = auditor.finish();
    if violations.is_empty() {
        println!("auditor: stream is clean (0 violations)");
        return Ok(());
    }
    for v in violations {
        eprintln!("auditor violation: {v}");
    }
    Err(format!(
        "the event stream violated {} invariant(s)",
        violations.len()
    ))
}

/// Exports `events` as JSON Lines to `path`, creating its directory.
fn write_jsonl(path: &str, events: &[SimEvent]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let jsonl = to_jsonl(events).map_err(|e| e.to_string())?;
    std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Recovers the events a traced run collected in its [`VecSink`].
fn vec_events(sink: &dyn TraceSink) -> &[SimEvent] {
    sink.as_any()
        .downcast_ref::<VecSink>()
        .expect("the vec sink comes back from the run")
        .events()
}

/// Runs one scheduler over `w` through the comparison runner (which
/// calibrates Kraken from a Vanilla run of the same workload).
fn run_one(
    kind: SchedulerKind,
    w: &Workload,
    label: &str,
    cfg: &SimConfig,
    setup: &SchedulerSetup,
    sink: impl FnMut(SchedulerKind) -> Box<dyn TraceSink>,
) -> (RunReport, Box<dyn TraceSink>) {
    let (mut reports, mut sinks) = run_comparison(&[kind], w, label, cfg, setup, sink);
    (
        reports.pop().expect("one kind, one report"),
        sinks.pop().expect("one kind, one sink"),
    )
}

/// `faasbatch trace --analyze FILE`: offline attribution of an existing
/// JSONL event log. Malformed or truncated input surfaces as a typed
/// [`faasbatch::metrics::analysis::TraceLoadError`], never a panic.
fn analyze_trace(path: &str) -> Result<(), String> {
    let events = load_events(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    println!("analyzing {} events from {path}…", events.len());
    let report = attribute_events(&events);
    print!("{}", report.render());
    if !report.all_exact() {
        return Err("attribution phases do not sum to end-to-end latency".to_owned());
    }
    Ok(())
}

fn cmd_trace(opts: &Options) -> Result<(), CliError> {
    if let Some(path) = opts.values.get("--analyze") {
        return Ok(analyze_trace(path)?);
    }
    let (label, w) = load_or_build(opts)?;
    let scheduler = opts.str("--scheduler", "faasbatch");
    // An unknown name is a typed error listing every valid scheduler.
    let kind = SchedulerKind::parse(&scheduler).map_err(|e| CliError::Usage(e.to_string()))?;
    let mut setup =
        SchedulerSetup::new(SimDuration::from_millis(opts.positive("--window-ms", 200)?));
    setup.faasbatch.multiplex = !opts.flag("--no-multiplex");
    let cfg = SimConfig {
        snapshot: snapshot_config(opts)?,
        ..SimConfig::default()
    };
    println!(
        "tracing {} invocations ({label}) under {scheduler}…",
        w.len()
    );
    let (report, sink) = run_one(kind, &w, &label, &cfg, &setup, |_| Box::new(VecSink::new()));
    let events = vec_events(sink.as_ref());

    let default_out = std::env::temp_dir().join(format!("faasbatch-trace-{scheduler}.jsonl"));
    let out = opts.str("--out", &default_out.to_string_lossy());
    write_jsonl(&out, events)?;
    println!(
        "wrote {} events ({} invocation records) to {out}",
        events.len(),
        report.records.len()
    );
    if let Some(chrome_path) = opts.values.get("--chrome") {
        // Stream straight to the file: a full-day timeline never holds a
        // second in-memory copy of the JSON.
        let write_chrome = || -> std::io::Result<()> {
            let file = std::fs::File::create(chrome_path)?;
            let mut buffered = std::io::BufWriter::new(file);
            chrome_trace_to(events, &mut buffered)?;
            std::io::Write::flush(&mut buffered)
        };
        write_chrome().map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
        println!("wrote Chrome about:tracing timeline to {chrome_path}");
    }

    let attribution = attribute_events(events);
    print!("{}", attribution.render());
    if !attribution.all_exact() {
        return Err(CliError::Failed(
            "attribution phases do not sum to end-to-end latency".to_owned(),
        ));
    }
    Ok(audit(events)?)
}

/// `faasbatch trace-diff A.jsonl B.jsonl`: attribute both logs and explain
/// the latency delta phase by phase.
fn cmd_trace_diff(opts: &Options) -> Result<(), CliError> {
    let [a_path, b_path] = opts.positionals.as_slice() else {
        return Err(CliError::Usage(format!(
            "trace-diff takes exactly two trace files, got {}",
            opts.positionals.len()
        )));
    };
    let top_k: usize = opts.num("--top", 10)?;
    let attribute = |path: &String| -> Result<AttributionReport, String> {
        let events = load_events(std::path::Path::new(path)).map_err(|e| e.to_string())?;
        let report = attribute_events(&events);
        if report.invocations.is_empty() {
            return Err(format!("{path} holds no completed invocations"));
        }
        if !report.all_exact() {
            return Err(format!(
                "{path}: attribution phases do not sum to end-to-end latency"
            ));
        }
        Ok(report)
    };
    let a = attribute(a_path)?;
    let b = attribute(b_path)?;
    let diff = diff_reports(&a, &b);
    print!("{}", diff.render(a_path, b_path, top_k));
    if let Some(json_path) = opts.values.get("--json") {
        let json = serde_json::to_string_pretty(&diff).map_err(|e| e.to_string())?;
        std::fs::write(json_path, json).map_err(|e| format!("cannot write {json_path}: {e}"))?;
        println!("\nwrote machine-readable diff to {json_path}");
    }
    Ok(())
}

fn cmd_autoscale(opts: &Options) -> Result<(), CliError> {
    let (label, w) = load_or_build(opts)?;
    let scheduler = opts.str("--scheduler", "faasbatch");
    let kind = SchedulerKind::parse(&scheduler).map_err(|e| CliError::Usage(e.to_string()))?;
    let setup = SchedulerSetup::new(SimDuration::from_millis(opts.positive("--window-ms", 200)?));
    let keep_alive = SimDuration::from_secs(opts.num("--keepalive-s", 2)?);
    let cfg = SimConfig {
        keep_alive,
        snapshot: snapshot_config(opts)?,
        ..SimConfig::default()
    };
    let ac = AutoscalerConfig {
        prewarm_cap: opts.num("--prewarm-cap", 4)?,
        keepalive_floor: SimDuration::from_secs(opts.num("--keepalive-floor-s", 2)?),
        keepalive_ceiling: SimDuration::from_secs(opts.num("--keepalive-ceiling-s", 60)?),
        base_keep_alive: keep_alive,
        snapshot_prewarm: opts.flag("--snapshot-prewarm"),
        ..AutoscalerConfig::default()
    };
    ac.validate()
        .map_err(|e| CliError::Usage(format!("invalid autoscaler config: {e}")))?;

    println!(
        "replaying {} invocations ({label}) under {scheduler}, static {keep_alive} \
         keep-alive vs controller…\n",
        w.len()
    );
    let (static_report, _) = run_one(kind, &w, &label, &cfg, &setup, |_| Box::new(NoopSink));
    let auto_cfg = SimConfig {
        autoscaler: Some(ac),
        ..cfg
    };
    let (auto_report, sink) = run_one(kind, &w, &label, &auto_cfg, &setup, |_| {
        Box::new(VecSink::new())
    });
    let events = vec_events(sink.as_ref());

    let rows: Vec<Vec<String>> = [("static", &static_report), ("autoscaled", &auto_report)]
        .iter()
        .map(|(mode, r)| {
            vec![
                (*mode).to_owned(),
                format!("{:.1}%", r.cold_fraction() * 100.0),
                r.provisioned_containers.to_string(),
                r.warm_hits.to_string(),
                format!("{}", r.end_to_end_cdf().quantile(0.5)),
                format!("{}", r.end_to_end_cdf().quantile(0.99)),
                format!("{:.0} MB", r.mean_memory_bytes() / (1 << 20) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "mode",
                "cold%",
                "containers",
                "warm hits",
                "e2e p50",
                "e2e p99",
                "mem mean"
            ],
            &rows,
        )
    );
    let stats = auto_report
        .autoscaler
        .expect("an autoscaled run reports its controller");
    println!(
        "controller: {} prewarm action(s) launching {} container(s), \
         {} keep-alive change(s), max outstanding prewarm {}",
        stats.prewarm_actions,
        stats.prewarmed_containers,
        stats.keepalive_actions,
        stats.max_outstanding_prewarm
    );
    if opts.flag("--snapshot-prewarm") {
        println!(
            "controller tiers: {} snapshot-tier prewarm(s), {} warm-tier prewarm(s); \
             autoscaled run restored {} start(s)",
            stats.snapshot_tier_prewarms, stats.warm_tier_prewarms, auto_report.restored_starts
        );
    }
    Ok(audit(events)?)
}

/// Live-telemetry wiring shared by `live` and `live --gateway`:
/// `--metrics-addr` binds the exposition endpoint, `--serve-ms` holds it
/// open after the burst, `--flight-record` keeps a bounded event ring that
/// dumps JSONL on panic (hook) or clean shutdown ([`LiveTelemetry::finish`]).
struct LiveTelemetry {
    registry: Option<faasbatch::metrics::MetricRegistry>,
    server: Option<faasbatch::metrics::TelemetryServer>,
    flight: Option<(faasbatch::metrics::FlightRecorder, String)>,
    serve_ms: u64,
}

impl LiveTelemetry {
    fn from_opts(opts: &Options) -> Result<LiveTelemetry, CliError> {
        let serve_ms: u64 = opts.num("--serve-ms", 0)?;
        let capacity: usize = opts.num("--flight-capacity", 262_144)?;
        let flight = opts.values.get("--flight-record").map(|path| {
            let recorder = faasbatch::metrics::FlightRecorder::new(capacity);
            recorder.install_panic_hook(std::path::PathBuf::from(path));
            (recorder, path.clone())
        });
        let registry = opts
            .values
            .contains_key("--metrics-addr")
            .then(faasbatch::metrics::MetricRegistry::default);
        let server = match (opts.values.get("--metrics-addr"), &registry) {
            (Some(addr), Some(registry)) => {
                let server = faasbatch::metrics::TelemetryServer::bind(addr, registry.clone())
                    .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
                println!(
                    "serving metrics on http://{}/metrics (JSON snapshot on /json)",
                    server.local_addr()
                );
                Some(server)
            }
            _ => None,
        };
        Ok(LiveTelemetry {
            registry,
            server,
            flight,
            serve_ms,
        })
    }

    /// Flight recording needs the typed event stream, so it forces tracing
    /// on even without `--audit`/`--out`.
    fn wants_trace(&self) -> bool {
        self.flight.is_some()
    }

    /// The run's trace recorder, mirroring into the flight ring when one
    /// was requested.
    fn recorder(&self) -> faasbatch::metrics::live::LiveTraceRecorder {
        match &self.flight {
            Some((flight, _)) => {
                faasbatch::metrics::live::LiveTraceRecorder::with_flight(flight.clone())
            }
            None => faasbatch::metrics::live::LiveTraceRecorder::new(),
        }
    }

    /// Post-run epilogue: hold the endpoint open for `--serve-ms`, then
    /// write the flight ring's post-mortem and shut the server down.
    fn finish(self) -> Result<(), String> {
        if self.serve_ms > 0 && self.server.is_some() {
            println!(
                "holding the metrics endpoint open for {} ms…",
                self.serve_ms
            );
            std::thread::sleep(std::time::Duration::from_millis(self.serve_ms));
        }
        if let Some((flight, path)) = &self.flight {
            let n = flight
                .dump_to_path(std::path::Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "flight recorder: wrote {n} events to {path} ({} dropped from the ring)",
                flight.dropped()
            );
        }
        Ok(())
    }
}

/// Smallest bucket bound `le` whose cumulative count reaches the
/// nearest-rank target for `q` — mirrors the histogram's own quantile.
fn cumulative_quantile(buckets: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    for &(le, cum) in buckets {
        if cum >= target {
            return le;
        }
    }
    buckets.last().map_or(0, |&(le, _)| le)
}

/// `faasbatch top`: one-shot snapshot of a running live endpoint.
fn cmd_top(opts: &Options) -> Result<(), CliError> {
    let addr = opts.str("--addr", "127.0.0.1:9100");
    let body = faasbatch::metrics::telemetry::http_get(addr.as_str(), "/json")
        .map_err(|e| format!("cannot scrape {addr}: {e}"))?;
    print!("{}", render_top(&body)?);
    Ok(())
}

/// Object-field lookup on the shim [`serde::Value`] tree.
fn json_field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
    match value {
        serde::Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn json_u64(value: &serde::Value) -> Option<u64> {
    match value {
        serde::Value::U64(n) => Some(*n),
        serde::Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn json_number_display(value: &serde::Value) -> Option<String> {
    match value {
        serde::Value::U64(n) => Some(n.to_string()),
        serde::Value::I64(n) => Some(n.to_string()),
        serde::Value::F64(n) => Some(n.to_string()),
        _ => None,
    }
}

/// Renders a `/json` snapshot as a table: counters and gauges with their
/// value, histograms with count, mean, and quantiles (bucket upper bounds,
/// so values carry the histogram's ≤6.25% resolution).
fn render_top(json: &str) -> Result<String, String> {
    let value: serde::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid /json payload: {e}"))?;
    let Some(serde::Value::Seq(metrics)) = json_field(&value, "metrics") else {
        return Err("malformed /json payload: no `metrics` array".to_owned());
    };
    let mut rows = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let mut name = match json_field(metric, "name") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => "?".to_owned(),
        };
        if let Some(serde::Value::Map(labels)) = json_field(metric, "labels") {
            if !labels.is_empty() {
                let rendered: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| match v {
                        serde::Value::Str(s) => format!("{k}={s}"),
                        _ => format!("{k}=?"),
                    })
                    .collect();
                name = format!("{name}{{{}}}", rendered.join(","));
            }
        }
        let kind = match json_field(metric, "type") {
            Some(serde::Value::Str(s)) => s.clone(),
            _ => "?".to_owned(),
        };
        if kind == "histogram" {
            let count = json_field(metric, "count").and_then(json_u64).unwrap_or(0);
            let sum = json_field(metric, "sum").and_then(json_u64).unwrap_or(0);
            let mut buckets: Vec<(u64, u64)> = Vec::new();
            if let Some(serde::Value::Seq(pairs)) = json_field(metric, "buckets") {
                for pair in pairs {
                    if let serde::Value::Seq(pair) = pair {
                        if let (Some(le), Some(cum)) = (
                            pair.first().and_then(json_u64),
                            pair.get(1).and_then(json_u64),
                        ) {
                            buckets.push((le, cum));
                        }
                    }
                }
            }
            let mean = sum.checked_div(count).unwrap_or(0);
            rows.push(vec![
                name,
                kind,
                count.to_string(),
                mean.to_string(),
                cumulative_quantile(&buckets, count, 0.50).to_string(),
                cumulative_quantile(&buckets, count, 0.95).to_string(),
                cumulative_quantile(&buckets, count, 0.999).to_string(),
            ]);
        } else {
            let shown = json_field(metric, "value")
                .and_then(json_number_display)
                .unwrap_or_else(|| "?".to_owned());
            let dash = "-".to_owned();
            rows.push(vec![
                name,
                kind,
                shown,
                dash.clone(),
                dash.clone(),
                dash.clone(),
                dash,
            ]);
        }
    }
    Ok(text_table(
        &[
            "metric",
            "type",
            "value/count",
            "mean",
            "p50",
            "p95",
            "p99.9",
        ],
        &rows,
    ))
}

/// Nearest-rank quantile over an already-sorted latency vector.
fn quantile_sorted(sorted: &[std::time::Duration], q: f64) -> std::time::Duration {
    if sorted.is_empty() {
        return std::time::Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Exports (`--out`) and audits (`--audit`) a recorded live event stream.
fn audit_and_export(
    recorder: faasbatch::metrics::live::LiveTraceRecorder,
    opts: &Options,
) -> Result<(), String> {
    let events = recorder.take_trace();
    if let Some(out) = opts.values.get("--out") {
        write_jsonl(out, &events)?;
        println!("wrote {} events to {out}", events.len());
    }
    let attribution = attribute_events(&events);
    print!("{}", attribution.render());
    if !attribution.all_exact() {
        return Err("attribution phases do not sum to end-to-end latency".to_owned());
    }
    audit(&events)
}

/// The first flag of `spec` (a [`Command::flags`] spec string) that was
/// given — as the parser's own unknown-flag error, scoped to `front_door`.
fn reject_flags_of(spec: &str, opts: &Options, front_door: &str) -> Result<(), CliError> {
    match spec
        .split_whitespace()
        .find(|token| token.starts_with("--") && opts.flag(token))
    {
        Some(flag) => Err(CliError::Usage(format!(
            "unknown flag for `{front_door}`: {flag}"
        ))),
        None => Ok(()),
    }
}

/// What both `live` front doors share: the burst's shape, the handler
/// body's sleep, and the trace/telemetry wiring.
struct LiveBurst {
    jobs: usize,
    batch_size: usize,
    functions: usize,
    workers: usize,
    window: std::time::Duration,
    cold: std::time::Duration,
    work: std::time::Duration,
    recorder: Option<faasbatch::metrics::live::LiveTraceRecorder>,
    registry: Option<faasbatch::metrics::MetricRegistry>,
}

impl LiveBurst {
    /// The body registered under each of `burst-0..functions`: sleeps
    /// `--work-us`.
    fn body(
        &self,
    ) -> impl Fn(&faasbatch::core::platform::InvocationEnv<'_>) + Send + Sync + 'static {
        let work = self.work;
        move |_env| {
            if !work.is_zero() {
                std::thread::sleep(work);
            }
        }
    }

    /// Fires the burst through `invoke` (`Ok(None)`: rejected by admission
    /// control), waits for every ticket, drains, and prints the summary and
    /// latency lines; `summary` supplies the front door's own counters once
    /// the burst is over.
    fn fire(
        &self,
        invoke: impl Fn(&str) -> Result<Option<faasbatch::core::platform::InvokeTicket>, String>,
        drain: impl FnOnce() -> Result<(), String>,
        summary: impl FnOnce(usize) -> String,
    ) -> Result<(), String> {
        let started = std::time::Instant::now();
        let mut tickets = Vec::with_capacity(self.jobs);
        for n in 0..self.jobs {
            tickets.extend(invoke(&format!("burst-{}", n % self.functions))?);
        }
        let rejected = self.jobs - tickets.len();
        let mut latencies: Vec<std::time::Duration> = Vec::with_capacity(tickets.len());
        let mut panicked = 0usize;
        for t in tickets {
            let outcome = t.wait();
            if outcome.panicked {
                panicked += 1;
            }
            latencies.push(outcome.total());
        }
        drain()?;
        let elapsed = started.elapsed();

        latencies.sort_unstable();
        println!(
            "done in {elapsed:.2?}: {:.0} invocations/s | completed {} | {} | panicked {panicked}",
            latencies.len() as f64 / elapsed.as_secs_f64(),
            latencies.len(),
            summary(rejected),
        );
        println!(
            "latency: p50 {:.2?} | p95 {:.2?} | p99 {:.2?} | max {:.2?}",
            quantile_sorted(&latencies, 0.50),
            quantile_sorted(&latencies, 0.95),
            quantile_sorted(&latencies, 0.99),
            latencies.last().copied().unwrap_or_default(),
        );
        Ok(())
    }
}

/// What only the single-platform front door reads.
const LIVE_PLATFORM: &str = "--seed N --snapshots N --restore-ms N";
/// What only `live --gateway` reads.
const LIVE_GATEWAY: &str = "--shards N --shard-depth N --policy {policies}";

fn live_gateway(opts: &Options, burst: &LiveBurst) -> Result<(), CliError> {
    use faasbatch::gateway::{Gateway, GatewayError};

    let shards: usize = opts.num("--shards", 4)?;
    let shard_depth: usize = opts.num("--shard-depth", 65_536)?;
    let policy = RoutingKind::parse(&opts.str("--policy", "least-loaded"))
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let mut builder = Gateway::builder()
        .workers(burst.workers)
        .shards(shards)
        .shard_depth(shard_depth)
        .window(burst.window)
        .cold_start_delay(burst.cold)
        .policy(policy);
    if let Some(rec) = &burst.recorder {
        builder = builder.trace(rec.clone());
    }
    if let Some(registry) = &burst.registry {
        builder = builder.telemetry(registry);
    }
    for f in 0..burst.functions {
        builder = builder.register(&format!("burst-{f}"), burst.body());
    }
    let gateway = builder.start();

    println!(
        "firing {} invocations over {} function(s) through {shards} gateway shard(s) onto \
         {} live worker(s), {} routing…",
        burst.jobs,
        burst.functions,
        burst.workers,
        policy.name()
    );
    burst.fire(
        |name| match gateway.invoke(name, bytes::Bytes::new()) {
            Ok(ticket) => Ok(Some(ticket)),
            Err(GatewayError::Rejected { .. }) => Ok(None),
            Err(e) => Err(e.to_string()),
        },
        || gateway.drain().map_err(|e| e.to_string()),
        |rejected| {
            format!(
                "rejected {rejected} | peak in-flight {}",
                gateway.peak_in_flight()
            )
        },
    )?;
    for (shard, s) in gateway.stats().shards.iter().enumerate() {
        println!(
            "shard {shard}: enqueued {} | admitted {} | rejected {} | groups {}",
            s.enqueued, s.admitted, s.rejected, s.routed_groups
        );
    }
    Ok(())
}

fn live_platform(opts: &Options, burst: &LiveBurst) -> Result<(), CliError> {
    use faasbatch::core::platform::PlatformBuilder;
    use faasbatch::exec::{Executor, ExecutorConfig};
    use std::sync::atomic::Ordering::Relaxed;

    let seed: u64 = opts.num("--seed", 2023)?;
    let snapshots: usize = opts.num("--snapshots", 0)?;
    let mut exec_config = ExecutorConfig {
        seed,
        ..ExecutorConfig::default()
    };
    if burst.workers > 0 {
        exec_config.workers = burst.workers;
    }
    let executor = Executor::new(exec_config);
    let mut builder = PlatformBuilder::new()
        .window(burst.window)
        .cold_start_delay(burst.cold)
        .snapshots(snapshots)
        .executor(std::sync::Arc::clone(&executor));
    // The restore delay has one default, the builder's.
    if opts.flag("--restore-ms") {
        let restore_ms = opts.num("--restore-ms", 0)?;
        builder = builder.restore_delay(std::time::Duration::from_millis(restore_ms));
    }
    if let Some(rec) = &burst.recorder {
        builder = builder.trace(rec.clone());
    }
    if let Some(registry) = &burst.registry {
        builder = builder.telemetry(registry);
        faasbatch::core::telemetry::register_executor(registry, &executor);
    }
    for f in 0..burst.functions {
        builder = builder.register(&format!("burst-{f}"), burst.body());
    }
    let platform = builder.start();

    println!(
        "firing {} invocations over {} function(s) (target batch {}) on the work-stealing \
         executor, {} worker(s)…",
        burst.jobs,
        burst.functions,
        burst.batch_size,
        executor.workers()
    );
    let stats = platform.stats();
    burst.fire(
        |name| {
            platform
                .invoke(name, bytes::Bytes::new())
                .map(Some)
                .map_err(|e| e.to_string())
        },
        || platform.drain().map_err(|e| e.to_string()),
        |_rejected| {
            format!(
                "containers {} | restored {} | batches {}",
                stats.containers_created.load(Relaxed),
                stats.containers_restored.load(Relaxed),
                stats.batches.load(Relaxed),
            )
        },
    )?;
    let metrics = executor.metrics();
    println!(
        "executor: {} worker(s) | peak in-flight {} | spawned {} | steals {}",
        metrics.workers,
        metrics.peak_in_flight,
        metrics.spawned_total,
        metrics.total_steals(),
    );
    Ok(())
}

/// `faasbatch live`: a synthetic burst against the real platform, or with
/// `--gateway` against the sharded gateway. A flag the chosen front door
/// never reads is an error, not a silent no-op.
fn cmd_live(opts: &Options) -> Result<(), CliError> {
    let gateway = opts.flag("--gateway");
    if gateway {
        reject_flags_of(LIVE_PLATFORM, opts, "live --gateway")?;
    } else {
        reject_flags_of(LIVE_GATEWAY, opts, "live (without --gateway)")?;
    }
    let jobs: usize = opts.num("--jobs", if gateway { 20_000 } else { 2_000 })?;
    let batch_size: usize = opts.num("--batch-size", 100)?;
    if jobs == 0 || batch_size == 0 {
        return Err(CliError::Usage(
            "--jobs and --batch-size must be at least 1".to_owned(),
        ));
    }
    let telemetry = LiveTelemetry::from_opts(opts)?;
    let trace =
        opts.flag("--audit") || opts.values.contains_key("--out") || telemetry.wants_trace();
    let burst = LiveBurst {
        jobs,
        batch_size,
        functions: jobs.div_ceil(batch_size),
        // Gateway: worker count; platform: executor size (0 = its default).
        workers: opts.num("--workers", if gateway { 8 } else { 0 })?,
        window: std::time::Duration::from_millis(opts.positive("--window-ms", 25)?),
        cold: std::time::Duration::from_millis(opts.num("--cold-ms", 2)?),
        work: std::time::Duration::from_micros(opts.num("--work-us", 250)?),
        recorder: trace.then(|| telemetry.recorder()),
        registry: telemetry.registry.clone(),
    };
    // Each front door drains and drops before it returns.
    if gateway {
        live_gateway(opts, &burst)?;
    } else {
        live_platform(opts, &burst)?;
    }
    telemetry.finish()?;
    match burst.recorder {
        Some(recorder) => Ok(audit_and_export(recorder, opts)?),
        None => Ok(()),
    }
}

fn cmd_figures(_opts: &Options) -> Result<(), CliError> {
    println!(
        "The figure and ablation harnesses are subcommands of one binary, generated\n\
         from its harness table (name, what it reproduces, results/ files it owns):\n\n\
         \x20   cargo run --release -p faasbatch-bench -- list\n\
         \x20   cargo run --release -p faasbatch-bench -- <name>\n\
         \x20   cargo run --release -p faasbatch-bench -- regen --check"
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    };
    match run(command, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.message());
            if let CliError::Usage(_) = err {
                eprintln!("\n{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    /// `args` parsed against `compare`'s table (workload, window, snapshot).
    fn opts(args: &[&str]) -> Result<Options, CliError> {
        Options::parse(command("compare"), &strings(args))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let o = opts(&["--seed", "7", "--no-multiplex", "--workload", "io"]).unwrap();
        assert_eq!(o.num::<u64>("--seed", 0).unwrap(), 7);
        assert!(o.flag("--no-multiplex"));
        assert_eq!(o.str("--workload", "cpu"), "io");
        assert_eq!(o.num::<u64>("--total", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(opts(&["positional"]).is_err());
        assert!(opts(&["--seed"]).is_err());
        let o = opts(&["--seed", "abc"]).unwrap();
        assert!(o.num::<u64>("--seed", 0).is_err());
    }

    #[test]
    fn builds_both_workload_kinds() {
        let o = opts(&["--workload", "io", "--total", "30", "--span-s", "5"]).unwrap();
        let (label, w) = build_workload(&o).unwrap();
        assert_eq!(label, "io");
        assert_eq!(w.len(), 30);
        let o = opts(&["--total", "25"]).unwrap();
        let (label, w) = build_workload(&o).unwrap();
        assert_eq!(label, "cpu");
        assert_eq!(w.len(), 25);
    }

    /// Every input that used to reach a panic (or, for `live`, a livelock)
    /// comes back as an `Err` naming the flag or the typed fleet error — and
    /// so does every flag the subcommand's table does not hold, holds once,
    /// or holds with a value. Each case says whether it is a usage mistake
    /// (`main` prints the usage text after it) or a run-time failure (the
    /// cause alone).
    #[test]
    fn bad_inputs_are_errors_naming_the_flag_not_panics() {
        const USAGE: bool = true;
        const FAILED: bool = false;
        let missing = std::env::temp_dir().join("faasbatch-no-such-dir/missing.jsonl");
        let missing = missing.to_str().expect("temp dir is UTF-8");
        let cases: [(&str, &[&str], &str, bool); 23] = [
            ("compare", &["--window-ms", "0"], "--window-ms", USAGE),
            ("compare", &["--total", "0"], "--total", USAGE),
            ("compare", &["--span-s", "0"], "--span-s", USAGE),
            ("compare", &["--functions", "0"], "--functions", USAGE),
            ("compare", &["--seed", "abc"], "--seed", USAGE),
            ("compare", &["--workload", "gpu"], "gpu", USAGE),
            ("trace", &["--window-ms", "0"], "--window-ms", USAGE),
            ("trace", &["--scheduler", "bogus"], "bogus", USAGE),
            ("autoscale", &["--window-ms", "0"], "--window-ms", USAGE),
            ("fleet", &["--window-ms", "0"], "--window-ms", USAGE),
            ("fleet", &["--crash", "0-100"], "0-100", USAGE),
            (
                "live",
                &["--jobs", "10", "--window-ms", "0"],
                "--window-ms",
                USAGE,
            ),
            (
                "live",
                &["--gateway", "--window-ms", "0"],
                "--window-ms",
                USAGE,
            ),
            ("compare", &["--windw-ms", "10"], "--windw-ms", USAGE),
            ("trace", &["--seed", "1", "--seed", "2"], "--seed", USAGE),
            ("frobnicate", &[], "unknown command", USAGE),
            // The fleet's own validation fails the replay, not the parse.
            ("fleet", &["--workers", "0"], "workers", FAILED),
            (
                "fleet",
                &["--workers", "1", "--drain", "0@100"],
                "no live worker",
                FAILED,
            ),
            (
                "fleet",
                &["--workers", "2", "--crash", "5@100"],
                "fault references worker 5",
                FAILED,
            ),
            (
                "fleet",
                &["--workers", "2", "--crash", "0@2000,0@1000"],
                "more than one crash",
                FAILED,
            ),
            (
                "trace",
                &["--analyze", missing],
                "cannot read trace",
                FAILED,
            ),
            ("compare", &["--import", missing], "cannot read", FAILED),
            (
                "trace-diff",
                &[missing, missing],
                "cannot read trace",
                FAILED,
            ),
        ];
        for (name, args, needle, usage) in cases {
            let err = run(name, &strings(args)).expect_err(&format!("{name} {args:?}"));
            assert!(
                err.message().contains(needle),
                "{name} {args:?}: `{err:?}` must name `{needle}`"
            );
            assert_eq!(
                matches!(err, CliError::Usage(_)),
                usage,
                "{name} {args:?}: `{err:?}` is a usage mistake: {usage}"
            );
        }
        // Per subcommand: a typo'd flag, a duplicated flag, and a trailing
        // flag without its value all stop at the parser, naming the flag.
        for c in COMMANDS {
            let Some((flag, _)) = c.flags().find(|(_, value)| value.is_some()) else {
                let err = run(c.name, &strings(&["--bogus"])).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(msg) if msg.contains("--bogus")),
                    "{}: {err:?}",
                    c.name
                );
                continue;
            };
            let typo = format!("{flag}x");
            for (args, needle, why) in [
                (vec![typo.as_str(), "1"], typo.as_str(), "unknown flag"),
                (vec![flag, "1", flag, "2"], flag, "more than once"),
                (vec![flag], flag, "missing value"),
            ] {
                let err = run(c.name, &strings(&args)).expect_err(&format!("{} {args:?}", c.name));
                assert!(
                    matches!(&err, CliError::Usage(msg) if msg.contains(needle) && msg.contains(why)),
                    "{} {args:?}: `{err:?}` must be a usage mistake saying `{why}` of `{needle}`",
                    c.name
                );
            }
        }
    }

    /// `live` has two front doors; a flag only the other one reads is the
    /// parser's unknown-flag error, raised before anything starts.
    #[test]
    fn live_rejects_flags_its_front_door_never_reads() {
        let cases: [(&[&str], &str); 6] = [
            (&["--gateway", "--snapshots", "4"], "--snapshots"),
            (&["--gateway", "--restore-ms", "1"], "--restore-ms"),
            (&["--gateway", "--seed", "7"], "--seed"),
            (&["--shards", "2"], "--shards"),
            (&["--shard-depth", "64"], "--shard-depth"),
            (&["--policy", "round-robin"], "--policy"),
        ];
        for (args, flag) in cases {
            let err = run("live", &strings(args)).expect_err(&format!("live {args:?}"));
            assert!(
                matches!(&err, CliError::Usage(msg)
                    if msg.starts_with("unknown flag for `live") && msg.ends_with(flag)),
                "live {args:?}: `{err:?}` must reject `{flag}` as unknown"
            );
        }
    }

    /// `usage()` and the parser read the same table: every flag a
    /// subcommand accepts is on its usage lines, and every `--flag` on its
    /// usage lines is accepted.
    #[test]
    fn usage_and_parser_agree_on_every_flag() {
        for c in COMMANDS {
            let lines = usage_lines(c);
            let shown: Vec<&str> = lines
                .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
                .filter(|token| token.starts_with("--"))
                .collect();
            let accepted: Vec<&str> = c.flags().map(|(name, _)| name).collect();
            assert_eq!(shown, accepted, "{}: usage vs flag table", c.name);
            assert!(usage().contains(&lines), "{}: lines are in usage()", c.name);
            for (flag, value) in c.flags() {
                let mut args = vec![flag];
                args.extend(value.map(|_| "1"));
                let parsed = Options::parse(c, &strings(&args)).unwrap();
                assert!(parsed.flag(flag), "{} {flag}", c.name);
            }
        }
    }

    #[test]
    fn unknown_workload_kind_is_an_error() {
        let o = opts(&["--workload", "gpu"]).unwrap();
        assert!(build_workload(&o).is_err());
    }

    #[test]
    fn split_positionals_separates_paths_from_options() {
        let args = strings(&["a.jsonl", "--top", "5", "b.jsonl", "--json", "d.json"]);
        let o = Options::parse(command("trace-diff"), &args).unwrap();
        assert_eq!(o.positionals, vec!["a.jsonl", "b.jsonl"]);
        assert_eq!(o.num::<usize>("--top", 10).unwrap(), 5);
        assert!(o.values.contains_key("--json"));
        // A command without positionals rejects a stray one.
        assert!(Options::parse(command("compare"), &args[..1]).is_err());
    }

    #[test]
    fn quantile_sorted_uses_nearest_rank() {
        use std::time::Duration;
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(quantile_sorted(&sorted, 0.50), Duration::from_millis(50));
        assert_eq!(quantile_sorted(&sorted, 0.95), Duration::from_millis(95));
        assert_eq!(quantile_sorted(&sorted, 0.99), Duration::from_millis(99));
        assert_eq!(quantile_sorted(&[], 0.5), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(quantile_sorted(&one, 0.01), one[0]);
        assert_eq!(quantile_sorted(&one, 1.0), one[0]);
    }

    #[test]
    fn cumulative_quantile_walks_the_sparse_buckets() {
        let buckets = [(10, 50), (100, 90), (1000, 100)];
        assert_eq!(cumulative_quantile(&buckets, 100, 0.50), 10);
        assert_eq!(cumulative_quantile(&buckets, 100, 0.90), 100);
        assert_eq!(cumulative_quantile(&buckets, 100, 0.999), 1000);
        assert_eq!(cumulative_quantile(&buckets, 0, 0.5), 0);
        assert_eq!(cumulative_quantile(&[], 5, 0.5), 0);
    }

    #[test]
    fn render_top_formats_counters_and_histograms() {
        let registry = faasbatch::metrics::MetricRegistry::default();
        registry
            .counter("faasbatch_demo_total", "demo counter")
            .add(7);
        let hist = registry.histogram("faasbatch_demo_latency_us", "demo latency");
        for v in [10u64, 20, 30, 4000] {
            hist.record(v);
        }
        let table = render_top(&registry.render_json()).unwrap();
        assert!(table.contains("faasbatch_demo_total"));
        assert!(table.contains("counter"));
        assert!(table.contains("histogram"));
        assert!(render_top("not json").is_err());
        assert!(render_top("{\"nope\":1}").is_err());
    }

    #[test]
    fn usage_lists_every_registered_scheduler_and_eviction_policy() {
        let text = usage();
        for kind in SchedulerKind::ALL {
            assert!(
                text.contains(kind.name()),
                "usage must list scheduler `{}`",
                kind.name()
            );
        }
        for policy in EvictionPolicy::ALL {
            assert!(
                text.contains(policy.name()),
                "usage must list eviction policy `{}`",
                policy.name()
            );
        }
        assert!(text.contains(&SchedulerKind::ALL.len().to_string()));
    }

    #[test]
    fn snapshot_config_parses_and_rejects() {
        let o = opts(&["--snapshot-cap", "8", "--snapshot-eviction", "cost-aware"]).unwrap();
        let cfg = snapshot_config(&o).unwrap();
        assert_eq!(cfg.capacity, 8);
        assert_eq!(cfg.eviction, EvictionPolicy::CostAware);
        assert!(snapshot_config(&Options::default()).unwrap().capacity == 0);
        let bad = opts(&["--snapshot-eviction", "fifo"]).unwrap();
        assert!(snapshot_config(&bad).is_err());
    }

    #[test]
    fn trace_diff_requires_two_paths() {
        let err = run("trace-diff", &strings(&["only-one.jsonl"]))
            .expect_err("one path must be rejected");
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("exactly two")));
    }
}
