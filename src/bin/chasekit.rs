//! `chasekit` — command-line front end.
//!
//! ```text
//! chasekit classify  <rules-file>
//! chasekit conditions <rules-file>
//! chasekit decide    <rules-file> [--variant o|so] [--fuel N]
//! chasekit explain   <rules-file> [--variant o|so]
//! chasekit chase     <rules-file> [--variant o|so|restricted] [--steps N] [--dot FILE]
//!                    [--timeout-ms N] [--max-atoms-mem BYTES] [--checkpoint FILE]
//!                    [--checkpoint-every N] [--threads N] [--trace FILE]
//!                    [--metrics FILE] [--progress SECS]
//! chasekit update    <rules-file> --edits FILE [--variant o|so|restricted] [--steps N]
//!                    [--dot FILE] [--trace FILE] [--metrics FILE]
//! chasekit critical  <rules-file> [--standard]
//! chasekit serve     --store DIR [--addr HOST:PORT] [--workers N] [--queue N]
//!                    [--variant o|so|restricted] [--steps N] [--timeout-ms N]
//!                    [--max-atoms-mem BYTES] [--checkpoint-every N]
//! ```
//!
//! The rules file uses the textual format described in the README; facts in
//! the file seed the `chase` subcommand (the critical instance is used when
//! no facts are present).
//!
//! ## Exit codes
//!
//! `chase` maps its [`StopReason`] to a distinct exit code so scripts can
//! tell *why* a run stopped: 0 saturated, 10 application budget, 11 atom
//! budget, 12 wall-clock deadline, 13 memory ceiling, 14 cancelled, 15
//! durability I/O failure (a snapshot could not be published). Argument
//! errors exit 2; file/parse errors exit 1.
//!
//! ## Durability
//!
//! `--checkpoint FILE` with `--checkpoint-every N` publishes the run state
//! atomically every N applications. After a kill, rerunning the same
//! command resumes the last published snapshot (or starts afresh if none
//! was published) and, the chase being deterministic, ends bit-identical
//! to a run that was never interrupted.
//!
//! ## Fault injection
//!
//! The `CHASEKIT_FAILPOINTS` environment variable arms deterministic
//! faults in the durability layer (see `chasekit::engine::failpoint`), e.g.
//! `CHASEKIT_FAILPOINTS="snapshot.rename=exit:9@2"` kills the process at
//! the second snapshot publication — the crash-recovery suite drives the
//! binary this way.

use std::process::ExitCode;

use chasekit::core::display::{instance_to_string, rule_to_string};
use chasekit::engine::serve::JobSpec;
use chasekit::engine::{
    failpoint, finish_durable, initial_instance, open_durable, remove_snapshot, run_durable,
    JsonlSink, MetricsRegistry, MetricsSink, MultiSink, StopReason, TraceSink,
};
use chasekit::prelude::*;

const USAGE: &str =
    "usage: chasekit <classify|conditions|decide|explain|chase|critical> <rules-file> [options]
       chasekit update <rules-file> --edits SCRIPT [options]
       chasekit serve --store DIR [options]
       chasekit help
options:
  --variant o|so|restricted   chase variant (default: so)
  --steps N                   chase step budget (default: 10000)
  --fuel N                    decision fuel (default: 50000)
  --standard                  use the standard-database critical instance
  --dot FILE                  (chase) write the derivation DAG as Graphviz
  --timeout-ms N              (chase) wall-clock deadline in milliseconds
  --max-atoms-mem BYTES       (chase) approximate memory ceiling in bytes
  --checkpoint FILE           (chase) resume from FILE if present; write the
                              run state back there when a guardrail stops it.
                              After a crash, rerun the same command
  --checkpoint-every N        (chase/serve) publish a snapshot atomically
                              every N applications; chase requires
                              --checkpoint, serve applies it to every job
  --threads N                 (chase) accepted for compatibility and
                              ignored: the chase runs sequentially
  --trace FILE                (chase) write a JSONL event trace; composes
                              with --checkpoint (sequence numbers continue
                              across resume)
  --metrics FILE              (chase) write a metrics-registry JSON report
                              (counters, histograms, per-rule/per-predicate)
  --progress SECS             (chase) print a progress line to stderr at
                              most every SECS seconds (SECS >= 1)
  --edits FILE                (update) edit script: one `add <atom>.` or
                              `retract <atom>.` per line, `%` comments.
                              The chase runs to the --steps budget, the
                              script is applied incrementally (DRed
                              retraction over the derivation DAG, which
                              re-admits triggers with a surviving body
                              match), and a completion chase gets
                              --steps more and re-fires them
  --store DIR                 (serve) job-store root; in-flight jobs found
                              there at startup are recovered and completed
  --keep-completed N          (serve) store compaction: retain at most N
                              completed job directories, oldest removed
                              first (default: keep everything)
  --addr HOST:PORT            (serve) bind address (default 127.0.0.1:0,
                              an ephemeral port, printed at startup)
  --workers N                 (serve) worker threads running jobs
                              (default 2; 0 = one per available core)
  --queue N                   (serve) admission cap: queued+running jobs
                              beyond it are rejected as overloaded (default 16)
exit codes (chase): 0 saturated, 10 applications, 11 atoms, 12 wall-clock,
                    13 memory, 14 cancelled, 15 durability I/O failure";

/// A named argument error: says exactly which argument was bad and why.
fn arg_error(msg: String) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

struct Args {
    command: String,
    file: String,
    variant: ChaseVariant,
    steps: u64,
    fuel: u64,
    standard: bool,
    dot: Option<String>,
    timeout_ms: Option<u64>,
    max_mem: Option<usize>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    trace: Option<String>,
    metrics: Option<String>,
    progress: Option<u64>,
    store: Option<String>,
    addr: String,
    workers: usize,
    queue: usize,
    edits: Option<String>,
    keep_completed: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing <command> argument")?;
    let known =
        ["classify", "conditions", "decide", "explain", "chase", "critical", "serve", "update"];
    if !known.contains(&command.as_str()) {
        return Err(format!("unknown command `{command}` (expected one of: {})", known.join(", ")));
    }
    // `serve` takes no rules file: programs arrive over the wire.
    let file = if command == "serve" {
        String::new()
    } else {
        argv.next().ok_or_else(|| format!("`{command}` needs a <rules-file> argument"))?
    };
    let mut out = Args {
        command,
        file,
        variant: ChaseVariant::SemiOblivious,
        steps: 10_000,
        fuel: 50_000,
        standard: false,
        dot: None,
        timeout_ms: None,
        max_mem: None,
        checkpoint: None,
        checkpoint_every: None,
        trace: None,
        metrics: None,
        progress: None,
        store: None,
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 16,
        edits: None,
        keep_completed: None,
    };
    // The host's available parallelism, for `--workers 0`.
    fn detected_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
    // A flag's value, or a named error if the command line ends first.
    fn value(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        argv.next().ok_or_else(|| format!("`{flag}` requires a value"))
    }
    // A flag's numeric value, naming the flag and the offending text.
    fn number<T: std::str::FromStr>(
        argv: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let raw = value(argv, flag)?;
        raw.parse().map_err(|_| format!("`{flag}` expects a non-negative integer, got `{raw}`"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--variant" => {
                let raw = value(&mut argv, "--variant")?;
                out.variant = ChaseVariant::from_alias(&raw)
                    .ok_or_else(|| format!("`--variant` expects o|so|restricted, got `{raw}`"))?;
            }
            "--steps" => out.steps = number(&mut argv, "--steps")?,
            "--fuel" => out.fuel = number(&mut argv, "--fuel")?,
            "--standard" => out.standard = true,
            "--dot" => out.dot = Some(value(&mut argv, "--dot")?),
            "--timeout-ms" => out.timeout_ms = Some(number(&mut argv, "--timeout-ms")?),
            "--max-atoms-mem" => out.max_mem = Some(number(&mut argv, "--max-atoms-mem")?),
            "--checkpoint" => out.checkpoint = Some(value(&mut argv, "--checkpoint")?),
            "--checkpoint-every" => {
                let every: u64 = number(&mut argv, "--checkpoint-every")?;
                if every == 0 {
                    return Err(
                        "`--checkpoint-every` expects a positive integer, got `0`".to_string()
                    );
                }
                out.checkpoint_every = Some(every);
            }
            "--threads" => {
                // Still validated, but the chase has one sequential loop.
                let _: usize = number(&mut argv, "--threads")?;
            }
            "--trace" => out.trace = Some(value(&mut argv, "--trace")?),
            "--metrics" => out.metrics = Some(value(&mut argv, "--metrics")?),
            "--progress" => {
                let secs: u64 = number(&mut argv, "--progress")?;
                if secs == 0 {
                    return Err(
                        "`--progress` expects a positive number of seconds, got `0`".to_string()
                    );
                }
                out.progress = Some(secs);
            }
            "--edits" => out.edits = Some(value(&mut argv, "--edits")?),
            "--keep-completed" => {
                let n: usize = number(&mut argv, "--keep-completed")?;
                if n == 0 {
                    return Err(
                        "`--keep-completed` expects a positive integer, got `0`".to_string()
                    );
                }
                out.keep_completed = Some(n);
            }
            "--store" => out.store = Some(value(&mut argv, "--store")?),
            "--addr" => out.addr = value(&mut argv, "--addr")?,
            "--workers" => {
                let n: usize = number(&mut argv, "--workers")?;
                out.workers = if n == 0 { detected_parallelism() } else { n };
            }
            "--queue" => {
                out.queue = number(&mut argv, "--queue")?;
                if out.queue == 0 {
                    return Err("`--queue` expects a positive integer, got `0`".to_string());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if out.command == "serve" && out.store.is_none() {
        return Err("`serve` requires `--store DIR` (the job-store root)".to_string());
    }
    if out.command != "serve" && out.store.is_some() {
        return Err("`--store` is only valid with `serve`".to_string());
    }
    if out.checkpoint.is_some() && out.dot.is_some() {
        return Err("`--checkpoint` cannot be combined with `--dot` \
             (derivation tracking is not checkpointable)"
            .to_string());
    }
    if out.checkpoint_every.is_some() && out.checkpoint.is_none() && out.command != "serve" {
        return Err("`--checkpoint-every` requires `--checkpoint`".to_string());
    }
    if out.command == "update" && out.edits.is_none() {
        return Err("`update` requires `--edits FILE` (the edit script)".to_string());
    }
    if out.command != "update" && out.edits.is_some() {
        return Err("`--edits` is only valid with `update`".to_string());
    }
    if out.command == "update" && out.checkpoint.is_some() {
        return Err("`update` cannot be combined with `--checkpoint`: \
             derivation-tracked machines are not serializable (re-run the edited \
             program with `chase` for a durable artifact)"
            .to_string());
    }
    if out.command == "update" {
        // Both update chases run under an application budget only.
        for (flag, given) in [
            ("--timeout-ms", out.timeout_ms.is_some()),
            ("--max-atoms-mem", out.max_mem.is_some()),
            ("--progress", out.progress.is_some()),
        ] {
            if given {
                return Err(format!(
                    "`update` cannot be combined with `{flag}`: its chases are bounded by \
                     `--steps` only"
                ));
            }
        }
    }
    if out.command != "serve" && out.keep_completed.is_some() {
        return Err("`--keep-completed` is only valid with `serve`".to_string());
    }
    Ok(out)
}

/// Durability failures are exit 15 ([`StopReason::Io`]'s code), not a
/// generic 1: a full disk or revoked permission mid-run is an I/O stop,
/// and scripts watching the run need to tell it apart from a bad input.
const DURABILITY_FAILURE: u8 = 15;

/// The exit code a chase run's [`StopReason`] maps to (see the module docs).
fn stop_exit_code(reason: StopReason) -> ExitCode {
    match reason {
        StopReason::Saturated => ExitCode::SUCCESS,
        StopReason::Applications => ExitCode::from(10),
        StopReason::Atoms => ExitCode::from(11),
        StopReason::WallClock => ExitCode::from(12),
        StopReason::Memory => ExitCode::from(13),
        StopReason::Cancelled => ExitCode::from(14),
        StopReason::Io => ExitCode::from(DURABILITY_FAILURE),
    }
}

/// The `--metrics` registry a run fills, and the file it is written to.
type MetricsOut = (std::sync::Arc<std::sync::Mutex<MetricsRegistry>>, std::fs::File);

/// The observability outputs of a `chase`/`update` run.
struct RunOutputs {
    /// Feeds the `--trace` file and the `--metrics` registry.
    sink: Option<Box<dyn TraceSink>>,
    metrics: Option<MetricsOut>,
}

/// The start of a `chase`/`update` run: creates the `--trace` and
/// `--metrics` files before any chase work, so a bad path fails fast
/// (exit 1) rather than after a long run, and builds the trace sink that
/// feeds them. Sinks take `program`'s predicate names, so build them after
/// every name is interned.
fn open_outputs(args: &Args, program: &Program) -> Result<RunOutputs, String> {
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
    if let Some(path) = &args.trace {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        sinks.push(Box::new(JsonlSink::new(std::io::BufWriter::new(file), program)));
    }
    let mut metrics = None;
    if let Some(path) = &args.metrics {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create metrics file {path}: {e}"))?;
        let sink = MetricsSink::new(program);
        metrics = Some((sink.registry(), file));
        sinks.push(Box::new(sink));
    }
    let sink: Option<Box<dyn TraceSink>> = match sinks.len() {
        0 => None,
        1 => sinks.pop(),
        _ => Some(Box::new(MultiSink::new(sinks))),
    };
    Ok(RunOutputs { sink, metrics })
}

/// The run's start instance ([`initial_instance`]), announcing when the
/// file has no facts and the critical instance stands in.
fn start_instance(program: &mut Program) -> Instance {
    if program.facts().is_empty() {
        println!("(no facts in file: chasing the critical instance)");
    }
    initial_instance(program)
}

/// The end of a `chase`/`update` run: writes the `--dot` derivation DAG,
/// flushes the trace, and writes the `--metrics` report (into the file
/// opened before the run), each only when asked for.
fn write_outputs(
    args: &Args,
    machine: &mut chasekit::engine::ChaseMachine<'_>,
    program: &Program,
    metrics: Option<MetricsOut>,
) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(path) = &args.dot {
        let dot = chasekit::engine::derivation_to_dot(
            machine.instance(),
            machine.derivation(),
            &program.vocab,
        );
        std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("derivation DAG written to {path}");
    }
    machine.flush_trace();
    if let (Some(path), Some((registry, mut file))) = (&args.metrics, metrics) {
        let json = registry.lock().expect("metrics registry poisoned").to_json();
        file.write_all(json.as_bytes())
            .map_err(|e| format!("cannot write metrics file {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

/// The budget and snapshot cadence the flags ask for, as a server job's
/// spec; `every` stands in for an absent `--checkpoint-every`.
fn job_spec(args: &Args, every: u64) -> JobSpec {
    JobSpec {
        variant: args.variant,
        steps: args.steps,
        timeout_ms: args.timeout_ms,
        max_atoms: None,
        max_memory: args.max_mem,
        checkpoint_every: args.checkpoint_every.unwrap_or(every),
    }
}

/// `chasekit serve`: run the multi-tenant chase service until shutdown.
///
/// Startup prints `listening on ADDR` (with an explicit flush, so tests
/// driving the binary through a pipe see it promptly) followed by one
/// `recovered job-N` line per in-flight job the restart scan found; those
/// jobs are already re-queued and will complete without client action.
fn run_serve(args: &Args) -> ExitCode {
    use chasekit::engine::serve::ServeConfig;
    use std::io::Write as _;

    let store = args.store.as_deref().expect("validated by parse_args");
    let mut config = ServeConfig::new(std::path::Path::new(store));
    config.addr = args.addr.clone();
    config.workers = args.workers;
    config.queue_capacity = args.queue;
    config.keep_completed = args.keep_completed;
    config.defaults = job_spec(args, JobSpec::server_default().checkpoint_every);

    let handle = match chasekit::engine::serve::serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server on {}: {e}", args.addr);
            return ExitCode::from(DURABILITY_FAILURE);
        }
    };
    let mut out = std::io::stdout();
    let _ = writeln!(out, "listening on {}", handle.addr());
    for job in handle.recovered_jobs() {
        let _ = writeln!(out, "recovered {job}");
    }
    let _ = out.flush();
    handle.wait();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if matches!(std::env::args().nth(1).as_deref(), Some("help" | "--help" | "-h")) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return arg_error(msg),
    };
    // Fault injection for the crash-recovery suite: armed from the
    // environment so the spec survives into this exact process.
    if let Ok(spec) = std::env::var(failpoint::ENV_VAR) {
        if let Err(msg) = failpoint::configure(&spec) {
            return arg_error(format!("{}: {msg}", failpoint::ENV_VAR));
        }
    }
    // `serve` has no rules file to read: dispatch before the file I/O.
    if args.command == "serve" {
        return run_serve(&args);
    }
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let program = match Program::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    match args.command.as_str() {
        "classify" => {
            println!("rules: {}", program.rules().len());
            println!("facts: {}", program.facts().len());
            println!("class: {}", program.class());
            for (i, rule) in program.rules().iter().enumerate() {
                println!(
                    "  [{i}] {} ({}{}{})",
                    rule_to_string(rule, &program.vocab),
                    if rule.is_simple_linear() {
                        "simple-linear"
                    } else if rule.is_linear() {
                        "linear"
                    } else if rule.is_guarded() {
                        "guarded"
                    } else {
                        "unrestricted"
                    },
                    if rule.is_datalog() { ", datalog" } else { "" },
                    if rule.is_single_head() { "" } else { ", multi-head" },
                );
            }
            ExitCode::SUCCESS
        }
        "conditions" => {
            use chasekit::acyclicity::{check_with_work, GraphKind};
            use chasekit::termination::{mfa_report, CheckerEffort};
            // Every line reports cost through the same CheckerEffort
            // rendering the landscape harness uses.
            let (wa, wa_work) = check_with_work(&program, GraphKind::Standard);
            let (ra, ra_work) = check_with_work(&program, GraphKind::Extended);
            println!(
                "weak acyclicity (WA):   {} {}",
                wa.is_acyclic(),
                CheckerEffort::from(wa_work).summary()
            );
            println!(
                "rich acyclicity (RA):   {} {}",
                ra.is_acyclic(),
                CheckerEffort::from(ra_work).summary()
            );
            println!("joint acyclicity (JA):  {}", is_jointly_acyclic(&program));
            println!("aGRD:                   {}", is_grd_acyclic(&program));
            let mfa = mfa_report(&program, &Budget::default());
            println!(
                "MFA:                    {} {}",
                match mfa.status.is_mfa() {
                    Some(b) => b.to_string(),
                    None => "unknown (fuel)".to_string(),
                },
                mfa.effort.summary()
            );
            ExitCode::SUCCESS
        }
        "decide" => {
            if args.variant == ChaseVariant::Restricted {
                let v = restricted_verdict(&program);
                println!(
                    "restricted chase on all databases: {:?} via {:?}",
                    v.terminates, v.method
                );
                return ExitCode::SUCCESS;
            }
            let budget = Budget::applications(args.fuel);
            let d = decide(&program, args.variant, &budget);
            println!("class:  {}", d.class);
            println!("method: {:?}", d.method);
            println!("effort: {}", d.effort.summary());
            match d.terminates {
                Some(true) => println!("the {} chase TERMINATES on all databases", args.variant),
                Some(false) => println!("the {} chase DIVERGES on some database", args.variant),
                None => println!("undecided within fuel ({} applications)", args.fuel),
            }
            ExitCode::SUCCESS
        }
        "chase" => {
            let mut program = program.clone();
            let spec = job_spec(&args, 0);
            let mut cfg = chasekit::engine::ChaseConfig::of(spec.variant);
            if args.dot.is_some() {
                cfg = cfg.with_derivation();
            }

            let RunOutputs { sink, metrics } = match open_outputs(&args, &program) {
                Ok(outputs) => outputs,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            };

            // Resume the checkpoint file when one exists; otherwise start
            // from the file's facts or the critical instance, whose
            // constants a resumed run needs interned too.
            let genesis = initial_instance(&mut program);
            let checkpoint = args.checkpoint.as_deref().map(std::path::Path::new);
            let (mut machine, resumed) =
                match open_durable(&program, cfg, genesis, checkpoint, sink) {
                    Ok(opened) => opened,
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::FAILURE;
                    }
                };
            if resumed {
                println!(
                    "(resuming from checkpoint: {} applications, {} atoms, {} pending)",
                    machine.stats().applications,
                    machine.instance().len(),
                    machine.pending()
                );
            } else if program.facts().is_empty() {
                println!("(no facts in file: chasing the critical instance)");
            }
            if let Some(secs) = args.progress {
                machine.set_progress(
                    std::time::Duration::from_secs(secs),
                    Box::new(|r| {
                        eprintln!(
                            "progress: {} applications, {} atoms, {} pending, ~{} KiB, \
                             {:.0} apps/s ({:.0}s elapsed)",
                            r.applications,
                            r.atoms,
                            r.pending,
                            r.approx_bytes / 1024,
                            r.apps_per_sec,
                            r.elapsed_secs
                        );
                    }),
                );
            }

            let (outcome, io_error) =
                run_durable(&mut machine, &spec.budget(), spec.checkpoint_every, checkpoint);
            if let Some(msg) = &io_error {
                eprintln!("{msg}");
            }
            println!(
                "outcome: {} after {} applications, {} atoms, {} nulls (~{} KiB)",
                outcome,
                machine.stats().applications,
                machine.instance().len(),
                machine.stats().nulls_minted,
                machine.approx_memory_bytes() / 1024
            );

            match (checkpoint, outcome) {
                (None, _) => {}
                (Some(path), StopReason::Saturated) => {
                    // The run finished: a stale checkpoint would silently
                    // replay the old state on the next invocation, so a
                    // failed removal is a durability error, not noise.
                    match remove_snapshot(path) {
                        Ok(true) => {
                            println!("run saturated: checkpoint {} removed", path.display())
                        }
                        Ok(false) => {}
                        Err(e) => {
                            eprintln!("cannot remove stale checkpoint {}: {e}", path.display());
                            return ExitCode::from(DURABILITY_FAILURE);
                        }
                    }
                }
                (Some(path), _) => match finish_durable(&mut machine, outcome, path) {
                    Ok(true) => {
                        println!("checkpoint written to {} (rerun to continue)", path.display())
                    }
                    Ok(false) => {}
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::from(DURABILITY_FAILURE);
                    }
                },
            }

            if let Err(msg) = write_outputs(&args, &mut machine, &program, metrics) {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }

            print!("{}", instance_to_string(machine.instance(), &program.vocab));
            stop_exit_code(outcome)
        }
        "update" => {
            use chasekit::engine::{parse_edit_script, ChaseConfig, ChaseMachine};
            let mut program = program.clone();
            let script_path = args.edits.as_deref().expect("validated by parse_args");
            let script = match std::fs::read_to_string(script_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read edit script {script_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Parse (and intern new names) before the machine borrows the
            // program; the whole script is known up front.
            let edits = match parse_edit_script(&script, &mut program) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let cfg = ChaseConfig::of(args.variant).with_derivation();
            let RunOutputs { sink, metrics } = match open_outputs(&args, &program) {
                Ok(outputs) => outputs,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            };
            let initial = start_instance(&mut program);
            let mut machine = match sink {
                Some(sink) => ChaseMachine::new_with_trace(&program, cfg, initial, sink),
                None => ChaseMachine::new(&program, cfg, initial),
            };
            let first = machine.run(&Budget::applications(args.steps));
            println!(
                "initial chase: {} after {} applications, {} atoms",
                first,
                machine.stats().applications,
                machine.instance().len()
            );
            // Budgets are cumulative over the machine: give the completion
            // chase its own `--steps` worth of applications.
            let total = machine.stats().applications.saturating_add(args.steps);
            let report = match machine.apply_edits(&edits, &Budget::applications(total)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "edits: {} adds ({} already present), {} retracts ({} absent)",
                report.adds, report.duplicate_adds, report.retracts, report.missing_retracts
            );
            println!(
                "repair: {} atoms overdeleted, {} applications invalidated, \
                 {} re-admitted, {} atoms restored, {} skips re-admitted",
                report.overdeleted,
                report.invalidated_apps,
                report.rederived_apps,
                report.restored_atoms,
                report.reopened_skips
            );
            println!(
                "outcome: {} after {} applications, {} atoms (~{} KiB)",
                report.outcome,
                machine.stats().applications,
                machine.instance().len(),
                machine.approx_memory_bytes() / 1024
            );
            if let Err(msg) = write_outputs(&args, &mut machine, &program, metrics) {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
            print!("{}", instance_to_string(machine.instance(), &program.vocab));
            stop_exit_code(report.outcome)
        }
        "explain" => {
            use chasekit::core::display::atom_to_string;
            use chasekit::core::RuleClass;
            use chasekit::termination::{Label as ShapeLabel, LinearAnalysis};
            let variant = if args.variant == ChaseVariant::Restricted {
                ChaseVariant::SemiOblivious
            } else {
                args.variant
            };
            println!("class: {}", program.class());
            match program.class() {
                RuleClass::SimpleLinear | RuleClass::Linear => {
                    let analysis = LinearAnalysis::explore(&program, false).expect("class checked");
                    let (decision, witness) =
                        analysis.decide_with_witness(variant).expect("variant checked");
                    println!(
                        "reachable shapes: {}; overlay: {} nodes, {} edges",
                        decision.shapes, decision.position_nodes, decision.position_edges
                    );
                    match witness {
                        None => println!(
                            "no dangerous cycle: the {variant} chase terminates on all databases"
                        ),
                        Some(w) => {
                            let render = |s: &chasekit::termination::Shape| {
                                let labels: Vec<String> = s
                                    .labels
                                    .iter()
                                    .map(|l| match l {
                                        ShapeLabel::Const(c) => {
                                            program.vocab.const_name(*c).to_string()
                                        }
                                        ShapeLabel::Null(k) => format!("_:{k}"),
                                    })
                                    .collect();
                                format!(
                                    "{}({})",
                                    program.vocab.pred_name(s.pred),
                                    labels.join(", ")
                                )
                            };
                            println!("dangerous reachable cycle found:");
                            println!(
                                "  a null consumed at position {} of shape {}",
                                w.from_pos + 1,
                                render(&w.from_shape)
                            );
                            println!(
                                "  re-creates a fresh null at position {} of shape {}",
                                w.to_pos + 1,
                                render(&w.to_shape)
                            );
                            println!("=> the {variant} chase DIVERGES on some database");
                        }
                    }
                }
                _ => {
                    let mut cfg = GuardedConfig::new(variant);
                    cfg.max_applications = args.fuel;
                    match chasekit::termination::pumping_decide(&program, cfg) {
                        Ok(report) => match report.verdict {
                            GuardedVerdict::Terminates => println!(
                                "critical-instance chase saturated after {} applications: terminates on all databases",
                                report.stats.applications
                            ),
                            GuardedVerdict::Diverges(cert) => {
                                println!("pumping certificate found (chain length {}):", cert.chain_length);
                                println!(
                                    "  ancestor:   {}",
                                    atom_to_string(&cert.ancestor, &program.vocab, None)
                                );
                                println!(
                                    "  descendant: {}",
                                    atom_to_string(&cert.descendant, &program.vocab, None)
                                );
                                println!("=> the {variant} chase DIVERGES on some database");
                            }
                            GuardedVerdict::Unknown => println!(
                                "undecided within fuel ({} applications)",
                                args.fuel
                            ),
                        },
                        Err(e) => eprintln!("{e}"),
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "critical" => {
            let mut p = program.clone();
            let crit = if args.standard {
                CriticalInstance::standard(&mut p)
            } else {
                CriticalInstance::build(&mut p)
            };
            println!("constants: {}", crit.constants.len());
            print!("{}", instance_to_string(&crit.instance, &p.vocab));
            ExitCode::SUCCESS
        }
        other => arg_error(format!("unknown command `{other}`")),
    }
}
