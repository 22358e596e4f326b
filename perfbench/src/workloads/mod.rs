//! The four workloads and what they share: the set-up protocol, the
//! outcome every workload reports, and the in-process replay of one
//! `POST /evaluate` through the library's free functions.

pub mod cold_miss;
pub mod hd_eval;
pub mod stream;
pub mod warm_hit;

use crate::alloc;
use crate::server::{count, non_200};
use crate::spans::{mean, Op, Tracer, Uncovered, MS, US};
use crate::Args;
use diffy_core::accelerator::{
    evaluate_network_with_artifacts, network_scheme_traffic, NetworkResult,
};
use diffy_core::json::{parse, JsonValue};
use diffy_core::runner::ci_weights;
use diffy_core::trace::TraceLog;
use diffy_models::{run_network, CiModel, LayerTrace, NetworkTrace, NetworkWeights};
use diffy_serve::http::read_request;
use diffy_serve::{result_to_json, EvalRequest};
use diffy_sim::PaddedTerms;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run: `setup_s` is their median. The measured phase runs
/// on the last one.
pub const SETUPS: usize = 3;

/// Most measured ops a traced run replays; the replay of an op that
/// answers from a cache takes microseconds, so this bounds the span log.
pub const MAX_REPLAYED: usize = 5_000;

/// Span capacity of a traced run: every replayed op plus its layers.
pub const TRACE_CAPACITY: usize = 64 * 1024;

/// How a workload's measured phase is summarized into its latencies
/// and throughput. Each workload fixes its own, so every run of it
/// reports the same statistic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Summary {
    /// Percentiles and ops per second of the whole phase: workloads of
    /// ops too long for a window to hold many.
    #[default]
    Whole,
    /// The level three quarters of the phase's windows hold (see
    /// [`crate::stats::windows`]): workloads of short ops.
    Windows,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// How the measured phase is summarized.
    pub summary: Summary,
    /// Client-side latency of every measured op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each measured op started, in seconds into the measured phase.
    pub starts_s: Vec<f64>,
    /// Wall time of the measured phase, in seconds.
    pub measured_s: f64,
    /// Ops completed in the measured phase.
    pub ops: u64,
    /// Operations attempted in the measured phase: the ops plus any
    /// session-control requests.
    pub attempted: u64,
    /// One message per failed operation or broken conservation law.
    pub failures: Vec<String>,
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Peak heap from the start of the last set-up to the end of the
    /// measured phase, in bytes.
    pub peak_heap_bytes: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Where a traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
    /// The most a traced run's layer spans left of an op uncovered.
    pub uncovered: Uncovered,
}

/// Most ops per second the per-op sample buffers hold without growing.
const MAX_OPS_PER_S: f64 = 100_000.0;

impl Outcome {
    /// An outcome summarized as `summary`, whose per-op sample buffers
    /// are sized for a measured phase of `seconds`. Allocate it before
    /// the set-ups: the buffers are then part of the heap the peak starts
    /// from, instead of growth that would track how many ops the run
    /// completes.
    pub fn for_run(seconds: f64, summary: Summary) -> Outcome {
        let n = (seconds * MAX_OPS_PER_S) as usize;
        Outcome {
            summary,
            latencies_ms: Vec::with_capacity(n),
            starts_s: Vec::with_capacity(n),
            ..Outcome::default()
        }
    }

    /// Records one measured op that started at `op_start`, `phase_start`
    /// being the start of the measured phase; the op ends now.
    pub fn sample(&mut self, phase_start: Instant, op_start: Instant) {
        self.latencies_ms
            .push(op_start.elapsed().as_secs_f64() * 1e3);
        self.starts_s.push((op_start - phase_start).as_secs_f64());
    }

    /// Ends a traced run: checks `tracer`'s spans, writes them out and
    /// sets the per-layer metrics from them, the server's final
    /// `/metrics` (`None` without a server), `work` and `transport_us`.
    pub fn traced(
        &mut self,
        tracer: Tracer,
        args: &Args,
        server: Option<&JsonValue>,
        work: &Work,
        transport_us: f64,
    ) -> Result<(), String> {
        let path = trace_path(args);
        let (log, uncovered) = tracer.finish(&path)?;
        self.layers = layer_metrics(&log, server, work, transport_us);
        self.uncovered = uncovered;
        self.trace_file = Some(path);
        Ok(())
    }
}

/// Runs `once` [`SETUPS`] times, each on fresh state, and returns the
/// last state with every set-up's duration. The heap peak restarts
/// just before the last set-up, once the earlier states are freed.
pub fn set_up<S>(mut once: impl FnMut() -> Result<S, String>) -> Result<(S, Vec<f64>), String> {
    let mut state = None;
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        drop(state.take());
        if i + 1 == SETUPS {
            alloc::reset_peak();
        }
        let t = Instant::now();
        state = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUPS > 0"), times))
}

/// Work the replay did, for the per-layer rates and ratios.
#[derive(Debug, Default)]
pub struct Work {
    macs: u64,
    inferences: u64,
    zeros: u64,
    activations: u64,
    encoded_bytes: u64,
    /// Simulated cycles over the workload's reference set of ops.
    pub cycles: u64,
    /// Simulated off-chip bytes over the workload's reference set.
    pub traffic_bytes: u64,
}

impl Work {
    /// Counts one `run_network` trace: its conv MACs and the zero share
    /// of the activations its layers consumed.
    pub fn inferred(&mut self, trace: &NetworkTrace) {
        self.macs += trace.total_macs();
        self.inferences += 1;
        for l in &trace.layers {
            self.zeros += l.imap.iter().filter(|&&v| v == 0).count() as u64;
            self.activations += l.imap.len() as u64;
        }
    }

    /// Counts the activation bytes one traffic model encoded: every
    /// layer's imap and omap, 16 bits per value.
    pub fn encoded(&mut self, trace: &NetworkTrace) {
        let values: usize = (0..trace.layers.len())
            .map(|i| trace.layers[i].imap.len() + trace.omap(i).len())
            .sum();
        self.encoded_bytes += 2 * values as u64;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: span means from `log`,
/// counters from the server's final `/metrics` (`None` without a
/// server), rates from `work`, and `transport_us` as measured by the
/// workload.
fn layer_metrics(
    log: &TraceLog,
    server: Option<&JsonValue>,
    work: &Work,
    transport_us: f64,
) -> Vec<(&'static str, f64)> {
    let empty = JsonValue::Null;
    let m = server.unwrap_or(&empty);
    let c = |path: &[&str]| count(m, path) as f64;
    let (hits, misses) = (c(&["cache", "hits"]), c(&["cache", "misses"]));
    let infer_s = log.total_ns("models.infer") as f64 / 1e9;
    let traffic_s = log.total_ns("encoding.traffic") as f64 / 1e9;
    vec![
        ("serve.parse_us", mean(log, "serve.parse", US)),
        ("serve.serialize_us", mean(log, "serve.serialize", US)),
        ("serve.frame_us", mean(log, "serve.frame", US)),
        ("serve.transport_us", transport_us),
        ("serve.requests", c(&["requests_total"])),
        ("serve.non_200", non_200(m) as f64),
        (
            "serve.keepalive_reuses",
            c(&["connections", "keepalive_reuses"]),
        ),
        ("serve.poller_wakeups", c(&["poller", "wakeups"])),
        ("serve.sessions_created", c(&["sessions", "created"])),
        ("runner.hit_us", mean(log, "runner.hit", US)),
        ("runner.hits", hits),
        ("runner.misses", misses),
        ("runner.hit_ratio", ratio(hits, hits + misses)),
        ("runner.evictions", c(&["cache", "evictions"])),
        ("runner.resident_traces", c(&["cache", "traces"])),
        ("imaging.input_ms", mean(log, "imaging.input", MS)),
        ("models.weights_ms", mean(log, "models.weights", MS)),
        ("models.infer_ms", mean(log, "models.infer", MS)),
        (
            "models.gmac",
            ratio(work.macs as f64 / 1e9, work.inferences as f64),
        ),
        ("models.gmac_per_s", ratio(work.macs as f64 / 1e9, infer_s)),
        (
            "models.zero_act_pct",
            ratio(100.0 * work.zeros as f64, work.activations as f64),
        ),
        ("sim.plane_build_ms", mean(log, "sim.plane_build", MS)),
        ("sim.tile_sim_ms", mean(log, "sim.tile_sim", MS)),
        ("sim.temporal_ms", mean(log, "sim.temporal", MS)),
        ("sim.cycles", work.cycles as f64),
        ("encoding.traffic_ms", mean(log, "encoding.traffic", MS)),
        ("encoding.traffic_mb", work.traffic_bytes as f64 / 1e6),
        (
            "encoding.in_mb_per_s",
            ratio(work.encoded_bytes as f64 / 1e6, traffic_s),
        ),
    ]
}

/// Where a traced run writes its spans: inside the benchmark's own
/// directory, which `.gitignore` excludes.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed))
}

/// The bytes a keep-alive client sends for `POST path` with `body`.
pub fn raw_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses raw request bytes the way the server does: the HTTP framing,
/// the JSON body, then the `/evaluate` request.
pub fn parse_evaluate(raw: &[u8]) -> Result<EvalRequest, String> {
    let request = match read_request(&mut Cursor::new(raw)) {
        Ok(Ok(r)) => r,
        _ => return Err("request does not frame".into()),
    };
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    EvalRequest::from_json(&parse(text).map_err(|e| e.to_string())?)
}

/// Weight sets for `models` at seed 1, each generated as one replayed op.
pub fn replay_weights(
    models: impl IntoIterator<Item = CiModel>,
    tracer: &mut Tracer,
) -> Vec<(CiModel, Arc<NetworkWeights>)> {
    models
        .into_iter()
        .map(|model| {
            let mut op = Op::start("weights");
            let w = op.span("models.weights", || Arc::new(ci_weights(model, 1)));
            op.end();
            tracer.record(&op);
            (model, w)
        })
        .collect()
}

/// The weights of `model` in a [`replay_weights`] list.
pub fn weights_of(list: &[(CiModel, Arc<NetworkWeights>)], model: CiModel) -> &NetworkWeights {
    &list
        .iter()
        .find(|(m, _)| *m == model)
        .expect("weights replayed for every model")
        .1
}

/// One replayed `POST /evaluate` miss.
pub struct Evaluated {
    /// The response body the server must send.
    pub body: String,
    /// The evaluation it serializes.
    pub result: NetworkResult,
    /// The op's traced total.
    pub total: Duration,
}

/// Replays `raw` (a `POST /evaluate` the server would miss on) through
/// the library's free functions, in pipeline order, one layer span per
/// call: parse, input preparation, inference, plane build, traffic
/// encode, tile simulation, serialization. No cache is involved.
pub fn replay_evaluate(
    raw: &[u8],
    weights: &NetworkWeights,
    tracer: &mut Tracer,
    work: &mut Work,
) -> Result<Evaluated, String> {
    let mut op = Op::start("evaluate");
    let req = op.span("serve.parse", || parse_evaluate(raw))?;
    let (res, eval) = (req.resolution, req.eval_options());
    let input = op.span("imaging.input", || {
        let img = req.dataset.sample_scaled(req.sample, res, res);
        req.model.prepare_input(&img, req.seed ^ req.sample as u64)
    });
    let trace = op.span("models.infer", || {
        run_network(&req.model.spec(), weights, &input)
    });
    let planes: Vec<Arc<PaddedTerms>> = op.span("sim.plane_build", || {
        trace
            .layers
            .iter()
            .map(|l| Arc::new(PaddedTerms::for_layer(l)))
            .collect()
    });
    let traffic = op.span("encoding.traffic", || {
        Arc::new(network_scheme_traffic(&trace, eval.scheme))
    });
    let planes_of = |i: usize, _: &LayerTrace| planes[i].clone();
    let traffic_of = || traffic.clone();
    let result = op.span("sim.tile_sim", || {
        evaluate_network_with_artifacts(&trace, &eval, Some(&planes_of), Some(&traffic_of))
    });
    let body = op.span("serve.serialize", || {
        result_to_json(&result, (res * res) as u64).to_json()
    });
    op.end();
    tracer.record(&op);
    work.inferred(&trace);
    work.encoded(&trace);
    Ok(Evaluated {
        body,
        result,
        total: op.total(),
    })
}
