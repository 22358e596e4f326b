//! `diffy` — command-line front end to the reproduction.
//!
//! ```text
//! diffy compare  <model> [--res N] [--scheme S] [--memory NODE]
//! diffy sweep    <model> [--res N]        # tiles x memory FPS grid at HD
//! diffy stats    <model> [--res N]        # per-layer value statistics
//! diffy schemes  <model> [--res N]        # storage-scheme footprints
//! diffy models                            # Table I summary
//! diffy experiments                       # table/figure -> bench target map
//! ```
//!
//! Everything is seeded and offline; models and datasets are the
//! synthetic stand-ins described in DESIGN.md.

use diffy::core::accelerator::{EvalOptions, NetworkResult, SchemeChoice};
use diffy::core::experiment::ExperimentId;
use diffy::core::parallel::Jobs;
use diffy::core::runner::{EvalPoint, SweepCache, TraceBundle, WorkloadOptions, HD_PIXELS};
use diffy::core::scaling::{fig18_memory_ladder, FIG18_TILES};
use diffy::core::summary::{fmt_bytes, TextTable};
use diffy::encoding::delta::delta_rows_wrapping;
use diffy::encoding::terms::stats_of_acts;
use diffy::encoding::StorageScheme;
use diffy::imaging::datasets::DatasetId;
use diffy::memsys::{MemoryNode, MemorySystem};
use diffy::models::CiModel;
use diffy::serve::protocol;
use diffy::sim::{AcceleratorConfig, Architecture};
use std::cell::Cell;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::new(cmd, &args[1..]);
    // --trace-out applies to every command: capture spans across the run
    // and write them as Chrome trace-event JSON on exit. `serve` also
    // exposes the live capture at GET /trace.
    let trace_out = match args.flag("--trace-out") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace_out.is_some() {
        diffy::core::trace::Collector::global().start();
    }
    let result = match cmd.as_str() {
        "compare" => cmd_compare(&args),
        "sweep" => cmd_sweep(&args),
        "stats" => cmd_stats(&args),
        "schemes" => cmd_schemes(&args),
        "models" => cmd_models(&args),
        "report" => cmd_report(&args),
        "experiments" => cmd_experiments(&args),
        "serve" => cmd_serve(&args),
        "precompute" => cmd_precompute(&args),
        "help" | "--help" | "-h" => args.finish().map(|()| println!("{USAGE}")),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    // Write the trace even when the command failed — a partial trace of
    // a failed run is exactly what one wants to look at.
    let trace_result = match trace_out {
        Some(path) => write_trace(&path),
        None => Ok(()),
    };
    match result.and(trace_result) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drains the global span collector and writes Chrome trace-event JSON.
fn write_trace(path: &str) -> Result<(), String> {
    let log = diffy::core::trace::Collector::global().drain();
    let doc = log.to_chrome_json().to_json();
    std::fs::write(path, doc).map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    eprintln!("trace: {} events ({} dropped) -> {path}", log.spans.len(), log.dropped);
    Ok(())
}

const USAGE: &str = "usage: diffy <command> [options]

commands:
  compare <model>   VAA/PRA/Diffy cycles, HD FPS and traffic
  sweep <model>     tiles x memory HD frame-rate grid (Fig. 18 style)
  stats <model>     per-layer term statistics (raw vs delta)
  schemes <model>   storage-scheme footprints on the model's imaps
  models            Table I summary of the CI-DNN zoo
  report            Markdown workload report (--res, --seed apply)
  experiments       map of paper tables/figures to bench targets
  serve             run the evaluation service (POST /evaluate, GET /metrics)
  precompute        materialize evaluation artifacts for a grid of requests
                    into --out DIR (resumable: existing artifacts are skipped)

options:
  --res N           trace resolution (default 64)
  --scheme S        NoCompression | Profiled | RawD16 | DeltaD16 | Ideal
                    (default DeltaD16)
  --memory NODE     e.g. DDR4-3200, HBM2 (default DDR4-3200)
  --seed N          workload seed (default 1)
  --jobs N          worker threads for compare/sweep/report/serve (default:
                    all cores); results are bit-identical at any job count
  --trace-out FILE  record spans across the run and write a Chrome
                    trace-event JSON file (open in chrome://tracing)

serve options:
  --addr HOST:PORT  bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --queue-depth N   admission-queue capacity, >= 1 (default 32); full -> 503
  --deadline-ms N   per-request deadline budget, >= 1 (default 30000)
  --max-requests-per-conn N
                    close a keep-alive connection after N responses,
                    >= 1 (default 1000)
  --idle-timeout-ms N
                    close a keep-alive connection idle for N ms between
                    requests, >= 1 (default 5000)
  --max-sessions N  streaming sessions held at once, >= 1 (default 256);
                    admitting one past the bound evicts the LRU session
  --session-idle-ms N
                    expire a streaming session with no frame request for
                    N ms, >= 1 (default 60000)
  --artifact-dir DIR
                    attach DIR as the cache's disk tier: requests read
                    through precomputed artifacts and write results back;
                    a non-writable DIR fails startup
  --warmup          with --artifact-dir, load every valid artifact into
                    memory before serving (hot keys are sub-ms immediately)
  --trace-out FILE  also serves the live capture at GET /trace; the file is
                    written when the server drains

precompute options:
  --out DIR         artifact directory to fill (required; created if absent)
  --models LIST     comma-separated models, or `all` (default all)
  --datasets LIST   comma-separated datasets (default: each model's own set)
  --archs LIST      comma-separated architectures (default Diffy)
  --schemes LIST    comma-separated schemes (default DeltaD16)
  --samples N       sample indices 0..N per dataset (default 1)
  --res/--seed/--memory/--jobs as above; defaults match the serve protocol's

models: DnCNN, FFDNet, IRCNN, JointNet, VDSR
model, dataset, architecture, scheme and memory names ignore case
unknown, repeated or value-less flags are errors";

/// A command's arguments, plus a record of which ones its parsers read.
/// [`Args::finish`] rejects any `--flag` left unread, so a typo or a
/// removed option fails instead of running at a default.
struct Args {
    cmd: String,
    items: Vec<String>,
    read: Vec<Cell<bool>>,
}

impl Args {
    fn new(cmd: &str, items: &[String]) -> Args {
        Args {
            cmd: cmd.to_string(),
            items: items.to_vec(),
            read: items.iter().map(|_| Cell::new(false)).collect(),
        }
    }

    /// Where `flag` appears, marked read; an error if it appears twice.
    fn find(&self, flag: &str) -> Result<Option<usize>, String> {
        let mut at = self.items.iter().enumerate().filter(|(_, a)| *a == flag).map(|(i, _)| i);
        let first = at.next();
        if at.next().is_some() {
            return Err(format!("flag {flag} given more than once"));
        }
        if let Some(i) = first {
            self.read[i].set(true);
        }
        Ok(first)
    }

    /// The value after `flag`, if the flag is present.
    fn flag(&self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.find(flag)? else { return Ok(None) };
        let value = self.items.get(i + 1).ok_or_else(|| format!("flag {flag} needs a value"))?;
        self.read[i + 1].set(true);
        Ok(Some(value.clone()))
    }

    /// Whether the value-less `flag` is present.
    fn switch(&self, flag: &str) -> Result<bool, String> {
        Ok(self.find(flag)?.is_some())
    }

    /// Fails on the first `--flag` no parser has read. Call it after
    /// parsing and before the command does any work.
    fn finish(&self) -> Result<(), String> {
        match self.items.iter().zip(&self.read).find(|(a, r)| !r.get() && a.starts_with("--")) {
            Some((flag, _)) => Err(format!("unknown flag {flag} for `{}`", self.cmd)),
            None => Ok(()),
        }
    }
}

/// The first positional argument that names a model; failing that, the
/// protocol's error for the first positional argument.
fn parse_model(args: &Args) -> Result<CiModel, String> {
    let mut positional = args.items.iter().filter(|a| !a.starts_with("--"));
    let first = positional.clone().next().ok_or("missing model (`diffy models` lists them)")?;
    positional
        .find_map(|a| protocol::parse_model(a).ok())
        .map_or_else(|| protocol::parse_model(first), Ok)
}

fn parse_opts(args: &Args) -> Result<WorkloadOptions, String> {
    let mut opts = WorkloadOptions::DEFAULT;
    if let Some(v) = args.flag("--res")? {
        opts.resolution = v.parse().map_err(|_| format!("bad --res {v}"))?;
    }
    if let Some(v) = args.flag("--seed")? {
        opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
    }
    Ok(opts)
}

fn parse_jobs(args: &Args) -> Result<Jobs, String> {
    match args.flag("--jobs")? {
        Some(v) => v.parse().map_err(|e| format!("bad --jobs: {e}")),
        None => Ok(Jobs::available()),
    }
}

fn parse_scheme(args: &Args) -> Result<SchemeChoice, String> {
    args.flag("--scheme")?.map_or(Ok(SchemeChoice::DEFAULT), |s| protocol::parse_scheme(&s))
}

fn parse_memory(args: &Args) -> Result<MemorySystem, String> {
    let node =
        args.flag("--memory")?.map_or(Ok(MemoryNode::DEFAULT), |m| protocol::parse_memory(&m))?;
    Ok(MemorySystem::single(node))
}

fn trace(model: CiModel, opts: &WorkloadOptions) -> std::sync::Arc<TraceBundle> {
    SweepCache::global().bundle(model, DatasetId::Hd33, 0, opts)
}

/// Evaluates the [`trace`] workload under every option set, in order,
/// over `jobs` workers.
fn evaluate_all(
    model: CiModel,
    opts: &WorkloadOptions,
    evals: impl Iterator<Item = EvalOptions>,
    jobs: Jobs,
) -> Vec<NetworkResult> {
    let points: Vec<EvalPoint> = evals
        .map(|eval| EvalPoint { model, dataset: DatasetId::Hd33, sample: 0, workload: *opts, eval })
        .collect();
    SweepCache::global().evaluate_points(&points, jobs)
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let model = parse_model(args)?;
    let opts = parse_opts(args)?;
    let scheme = parse_scheme(args)?;
    let memory = parse_memory(args)?;
    let jobs = parse_jobs(args)?;
    args.finish()?;
    println!("{model} at {0}x{0} (HD projections scale by pixels)\n", opts.resolution);
    let bundle = trace(model, &opts);
    let mut table = TextTable::new(vec![
        "architecture",
        "cycles",
        "speedup",
        "HD FPS",
        "stall %",
        "traffic",
    ]);
    let archs = [Architecture::Vaa, Architecture::Pra, Architecture::Diffy];
    let evals = archs
        .iter()
        .map(|&arch| EvalOptions { arch, cfg: AcceleratorConfig::table4(), scheme, memory });
    let results = evaluate_all(model, &opts, evals, jobs);
    let base = results[0].total_cycles();
    for (arch, r) in archs.iter().zip(&results) {
        table.row(vec![
            arch.name().to_string(),
            r.total_cycles().to_string(),
            format!("{:.2}x", base as f64 / r.total_cycles() as f64),
            format!("{:.2}", bundle.hd_fps(r)),
            format!("{:.1}%", r.stall_fraction() * 100.0),
            fmt_bytes(r.total_traffic_bytes()),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let model = parse_model(args)?;
    let opts = parse_opts(args)?;
    let scheme = parse_scheme(args)?;
    let jobs = parse_jobs(args)?;
    args.finish()?;
    println!("{model}: HD FPS, Diffy + {}\n", scheme.label());
    let bundle = trace(model, &opts);
    let ladder = fig18_memory_ladder();
    let mut header = vec!["tiles".to_string()];
    header.extend(ladder.iter().map(|m| m.to_string()));
    let mut table = TextTable::new(header);
    // The whole tiles × memory grid as one deterministic fan-out: cell
    // order is row-major, so the table reads back in job order.
    let evals = FIG18_TILES.iter().flat_map(|&tiles| {
        ladder.iter().map(move |&mem| EvalOptions {
            arch: Architecture::Diffy,
            cfg: AcceleratorConfig::table4().with_tiles(tiles),
            scheme,
            memory: mem,
        })
    });
    let results = evaluate_all(model, &opts, evals, jobs);
    for (&tiles, row_results) in FIG18_TILES.iter().zip(results.chunks_exact(ladder.len())) {
        let mut row = vec![tiles.to_string()];
        for r in row_results {
            let fps = r.fps_scaled(bundle.source_pixels, HD_PIXELS);
            row.push(format!("{fps:.1}{}", if fps >= 30.0 { "*" } else { "" }));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!("(* = 30+ FPS)");
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let model = parse_model(args)?;
    let opts = parse_opts(args)?;
    args.finish()?;
    println!("{model}: per-layer value statistics\n");
    let bundle = trace(model, &opts);
    let mut table = TextTable::new(vec![
        "layer", "shape", "raw terms", "delta terms", "ratio", "sparsity",
    ]);
    for l in &bundle.trace.layers {
        let raw = stats_of_acts(&l.imap);
        let delta = stats_of_acts(&delta_rows_wrapping(&l.imap, l.geom.stride));
        table.row(vec![
            l.name.clone(),
            l.imap.shape().to_string(),
            format!("{:.2}", raw.mean_terms()),
            format!("{:.2}", delta.mean_terms()),
            format!("{:.2}x", raw.mean_terms() / delta.mean_terms().max(1e-9)),
            format!("{:.1}%", raw.sparsity() * 100.0),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_schemes(args: &Args) -> Result<(), String> {
    let model = parse_model(args)?;
    let opts = parse_opts(args)?;
    args.finish()?;
    println!("{model}: imap footprint per storage scheme\n");
    let bundle = trace(model, &opts);
    let schemes = [
        StorageScheme::NoCompression,
        StorageScheme::RleZ,
        StorageScheme::Rle,
        StorageScheme::raw_d(16),
        StorageScheme::delta_d(16),
    ];
    let mut table = TextTable::new(vec!["scheme", "total imaps", "vs 16b"]);
    let mut base = 0u64;
    let mut totals = vec![0u64; schemes.len()];
    for l in &bundle.trace.layers {
        base += l.imap.len() as u64 * 2;
        for (slot, s) in totals.iter_mut().zip(schemes) {
            *slot += diffy::memsys::traffic::encoded_bytes(&l.imap, s);
        }
    }
    for (s, &t) in schemes.iter().zip(totals.iter()) {
        table.row(vec![
            s.to_string(),
            fmt_bytes(t),
            format!("{:.1}%", 100.0 * t as f64 / base as f64),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let workload = parse_opts(args)?;
    let jobs = parse_jobs(args)?;
    args.finish()?;
    let opts = diffy::core::reporting::ReportOptions { workload, models: [true; 5], jobs };
    print!("{}", diffy::core::reporting::render_report(&opts));
    Ok(())
}

fn cmd_models(args: &Args) -> Result<(), String> {
    args.finish()?;
    let mut table = TextTable::new(vec!["model", "conv", "relu", "max fmap/layer", "weights"]);
    for m in CiModel::ALL {
        let s = m.spec();
        table.row(vec![
            m.name().to_string(),
            s.conv_layers().to_string(),
            s.relu_layers().to_string(),
            fmt_bytes(s.max_total_filter_bytes(64, 64) as u64),
            fmt_bytes(s.total_weight_bytes(64, 64) as u64),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut config = diffy::serve::ServeConfig { handle_signals: true, ..Default::default() };
    if let Some(addr) = args.flag("--addr")? {
        config.addr = addr;
    }
    config.workers = parse_jobs(args)?;
    if let Some(v) = args.flag("--queue-depth")? {
        config.queue_depth = v
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| format!("bad --queue-depth {v} (want an integer >= 1)"))?;
    }
    if let Some(v) = args.flag("--deadline-ms")? {
        config.deadline_ms = v
            .parse()
            .ok()
            .filter(|&n: &u64| n >= 1)
            .ok_or_else(|| format!("bad --deadline-ms {v} (want an integer >= 1)"))?;
    }
    if let Some(v) = args.flag("--max-requests-per-conn")? {
        config.max_requests_per_conn = v
            .parse()
            .ok()
            .filter(|&n: &u32| n >= 1)
            .ok_or_else(|| format!("bad --max-requests-per-conn {v} (want an integer >= 1)"))?;
    }
    if let Some(v) = args.flag("--idle-timeout-ms")? {
        config.idle_timeout_ms = v
            .parse()
            .ok()
            .filter(|&n: &u64| n >= 1)
            .ok_or_else(|| format!("bad --idle-timeout-ms {v} (want an integer >= 1)"))?;
    }
    if let Some(v) = args.flag("--max-sessions")? {
        config.max_sessions = v
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| format!("bad --max-sessions {v} (want an integer >= 1)"))?;
    }
    if let Some(v) = args.flag("--session-idle-ms")? {
        config.session_idle_ms = v
            .parse()
            .ok()
            .filter(|&n: &u64| n >= 1)
            .ok_or_else(|| format!("bad --session-idle-ms {v} (want an integer >= 1)"))?;
    }
    config.artifact_dir = args.flag("--artifact-dir")?;
    config.warmup = args.switch("--warmup")?;
    if config.warmup && config.artifact_dir.is_none() {
        return Err("--warmup requires --artifact-dir".to_string());
    }
    config.trace_capture = args.flag("--trace-out")?.is_some();
    args.finish()?;
    let server = diffy::serve::Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("diffy-serve listening on http://{}", server.local_addr());
    println!(
        "POST /evaluate | POST /evaluate/batch | POST /session | POST /session/{{id}}/frame | \
         DELETE /session/{{id}} | GET /metrics | GET /trace | GET /healthz | POST /shutdown"
    );
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// Splits a comma-separated list flag, resolving each name through
/// `lookup`; `None` means the flag was absent.
fn parse_list<T>(
    args: &Args,
    flag: &str,
    lookup: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    match args.flag(flag)? {
        None => Ok(None),
        Some(list) => list
            .split(',')
            .map(|name| lookup(name.trim()))
            .collect::<Result<Vec<T>, String>>()
            .map(Some),
    }
}

fn cmd_precompute(args: &Args) -> Result<(), String> {
    use diffy::core::artifact::DiskTier;
    use diffy::core::runner::datasets_for;

    let out = args.flag("--out")?.ok_or("precompute requires --out DIR")?;
    let jobs = parse_jobs(args)?;
    let opts = parse_opts(args)?;
    let memory = parse_memory(args)?;
    let samples: usize = match args.flag("--samples")? {
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| format!("bad --samples {v} (want an integer >= 1)"))?,
        None => 1,
    };
    let models = match args.flag("--models")?.as_deref() {
        None | Some("all") => CiModel::ALL.to_vec(),
        Some(_) => parse_list(args, "--models", protocol::parse_model)?.expect("flag present"),
    };
    let datasets = parse_list(args, "--datasets", protocol::parse_dataset)?;
    let archs = parse_list(args, "--archs", protocol::parse_arch)?
        .unwrap_or_else(|| vec![Architecture::DEFAULT]);
    let schemes = parse_list(args, "--schemes", protocol::parse_scheme)?
        .unwrap_or_else(|| vec![SchemeChoice::DEFAULT]);
    args.finish()?;

    // Enumerate the grid; resumability = skip keys whose artifact file
    // already exists (`contains` is an existence probe — a corrupt file
    // still heals on its first serve-side read-through).
    let tier = DiskTier::open(&out)
        .map_err(|e| format!("artifact dir `{out}` is not usable: {e}"))?;
    let mut points = Vec::new();
    let mut skipped = 0usize;
    for &model in &models {
        let model_datasets = match &datasets {
            Some(list) => list.clone(),
            None => datasets_for(model),
        };
        for dataset in model_datasets {
            for sample in 0..samples.min(dataset.samples()) {
                for &arch in &archs {
                    for &scheme in &schemes {
                        let eval = EvalOptions {
                            arch,
                            cfg: AcceleratorConfig::table4(),
                            scheme,
                            memory,
                        };
                        let key = diffy::core::artifact::result_key(
                            model, dataset, sample, &opts, &eval,
                        );
                        if tier.contains(&key) {
                            skipped += 1;
                        } else {
                            points.push((model, dataset, sample, eval));
                        }
                    }
                }
            }
        }
    }

    // One shared cache + tier for the whole run: points sharing a trace
    // build it once, and every computed result is written through
    // atomically (safe alongside a live `serve` on the same directory).
    let cache = SweepCache::new().with_disk(tier);
    let todo = points.len();
    let tasks: Vec<_> = points
        .into_iter()
        .map(|(model, dataset, sample, eval)| {
            let cache = &cache;
            let opts = &opts;
            move || {
                cache.evaluate_keyed(model, dataset, sample, opts, &eval);
            }
        })
        .collect();
    diffy::core::parallel::run_jobs(tasks, jobs);

    let disk = cache.disk().expect("tier attached above").stats();
    println!(
        "precompute: {todo} computed, {skipped} already on disk, {} bytes written -> {out}",
        disk.bytes
    );
    Ok(())
}

fn cmd_experiments(args: &Args) -> Result<(), String> {
    args.finish()?;
    let mut table = TextTable::new(vec!["paper artefact", "bench target"]);
    for e in ExperimentId::ALL {
        table.row(vec![
            e.paper_artefact().to_string(),
            format!("cargo bench -p diffy-bench --bench {}", e.bench_target()),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}
