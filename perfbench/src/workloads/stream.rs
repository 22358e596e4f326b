//! `stream`: streaming-video sessions back to back, each `POST /session`
//! (IRCNN, 32², 8-frame horizon), eight `POST /session/{id}/frame` and a
//! `DELETE`. Every session watches one stream, whose frames set-up
//! renders once, so a frame op is the session write path: the session
//! lookup, its state update under its lock, the video stores and the
//! response. An op is one frame; session churn counts in throughput.

use super::{set_up, Outcome, Summary, Work, MAX_REPLAYED, TRACE_CAPACITY};
use crate::affinity::OneCpu;
use crate::keys::Rng;
use crate::server::{BenchServer, CLIENT_TIMEOUT};
use crate::spans::{Op, Tracer};
use crate::{alloc, stats, Args};
use diffy_core::json::parse;
use diffy_core::runner::{ci_weights, SweepCache};
use diffy_models::run_network;
use diffy_serve::protocol::cycles_to_json;
use diffy_serve::session::{handle_close, handle_create, handle_frame};
use diffy_serve::{KeepAliveClient, ServeConfig, SessionRequest, SessionStore};
use diffy_sim::{
    temporal_network, term_serial_network_with_terms, AcceleratorConfig, PaddedTerms, ValueMode,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `POST /session` body of the workload's one stream for `seed`.
fn create_body(seed: u64) -> String {
    let mut rng = Rng::new(seed, 0x57AE);
    let scene = ["Nature", "City", "Texture"][rng.below(3)];
    let pan_px = 1 + rng.below(4);
    let stream_seed = 1 + rng.below(1 << 20);
    format!(
        r#"{{"model":"IRCNN","scene":"{scene}","resolution":32,"frames":8,"pan_px":{pan_px},"seed":{stream_seed}}}"#
    )
}

/// Each frame's `result` as the server must serialize it, built through
/// the free functions: frame 0 is the spatial term-serial evaluation,
/// later frames the temporal engine against the previous frame.
fn references(req: &SessionRequest, tracer: &mut Tracer, work: &mut Work) -> Vec<String> {
    let spec = req.spec();
    let cfg = AcceleratorConfig::table4();
    let mut op = Op::start("weights");
    let weights = op.span("models.weights", || ci_weights(spec.model, spec.seed));
    op.end();
    tracer.record(&op);
    let mut prev = None;
    (0..spec.frames)
        .map(|f| {
            let mut op = Op::start("frame_reference");
            let input = op.span("imaging.input", || {
                let img = diffy_imaging::video::pan_frame(
                    spec.scene,
                    spec.resolution,
                    spec.resolution,
                    spec.frames,
                    spec.pan_px,
                    spec.noise(),
                    spec.seed,
                    f,
                );
                spec.model.prepare_input(&img, spec.seed)
            });
            let trace = op.span("models.infer", || {
                run_network(&spec.model.spec(), &weights, &input)
            });
            let cycles = match &prev {
                None => {
                    let planes: Vec<Arc<PaddedTerms>> = op.span("sim.plane_build", || {
                        trace
                            .layers
                            .iter()
                            .map(|l| Arc::new(PaddedTerms::for_layer(l)))
                            .collect()
                    });
                    op.span("sim.tile_sim", || {
                        term_serial_network_with_terms(
                            &trace,
                            &cfg,
                            ValueMode::Differential,
                            |i, _| planes[i].clone(),
                        )
                    })
                }
                Some(p) => op.span("sim.temporal", || {
                    temporal_network(p, &trace, &cfg, req.mode)
                }),
            };
            let json = op.span("serve.serialize", || cycles_to_json(&cycles).to_json());
            op.end();
            tracer.record(&op);
            work.inferred(&trace);
            work.cycles += cycles.total_cycles();
            prev = Some(trace);
            json
        })
        .collect()
}

/// Checks one frame response against its reference.
fn check_frame(f: usize, status: u16, body: &str, refs: &[String]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("frame {f}: status {status}"));
    }
    if !body.contains(&format!(r#""frame":{f},"#))
        || !body.contains(&format!(r#""result":{},"#, refs[f]))
    {
        return Err(format!("frame {f}: result differs from reference"));
    }
    Ok(())
}

/// Opens a session over `client`, returning its id.
fn create(client: &mut KeepAliveClient, body: &str) -> Result<String, String> {
    let r = client
        .post("/session", body)
        .map_err(|e| format!("create: {e}"))?;
    let id = parse(&r.body)
        .ok()
        .and_then(|v| v.get("session")?.as_str().map(String::from));
    match id {
        Some(id) if r.status == 200 => Ok(id),
        _ => Err(format!("create: status {} {}", r.status, r.body)),
    }
}

fn close(client: &mut KeepAliveClient, id: &str) -> Result<(), String> {
    match client.request("DELETE", &format!("/session/{id}"), None) {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(format!("close: status {}", r.status)),
        Err(e) => Err(format!("close: {e}")),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let body = create_body(args.seed);
    let req = SessionRequest::from_json(&parse(&body).map_err(|e| e.to_string())?)?;
    let frames = req.frames;
    let mut tracer = Tracer::new(args.trace, TRACE_CAPACITY);
    let mut work = Work::default();
    let refs = references(&req, &mut tracer, &mut work);

    let mut out = Outcome::for_run(args.seconds, Summary::Windows);
    // Set-up: bind, then one whole session, which renders the stream's
    // frames into the server's video stores and warms the path.
    let ((server, mut client), setup_s) = set_up(|| {
        let server = BenchServer::start(ServeConfig::default())?;
        let mut client = KeepAliveClient::new(server.addr(), CLIENT_TIMEOUT);
        let id = create(&mut client, &body)?;
        for f in 0..frames {
            let r = client
                .post(&format!("/session/{id}/frame"), "")
                .map_err(|e| e.to_string())?;
            check_frame(f, r.status, &r.body, &refs)?;
        }
        close(&mut client, &id)?;
        Ok((server, client))
    })?;

    out.setup_s = setup_s;
    let mut sessions = 0;
    // One op is a microsecond ping-pong: measure on one CPU (see
    // `affinity`).
    let one_cpu = OneCpu::pin_all()?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 1;
        let id = match create(&mut client, &body) {
            Ok(id) => id,
            Err(e) => {
                out.failures.push(e);
                continue;
            }
        };
        let path = format!("/session/{id}/frame");
        for f in 0..frames {
            let t = Instant::now();
            let resp = client.post(&path, "");
            out.sample(start, t);
            out.ops += 1;
            let checked = match resp {
                Ok(r) => check_frame(f, r.status, &r.body, &refs),
                Err(e) => Err(format!("frame {f}: {e}")),
            };
            if let Err(e) = checked {
                out.failures.push(format!("session {sessions}: {e}"));
            }
        }
        out.attempted += frames as u64 + 1;
        if let Err(e) = close(&mut client, &id) {
            out.failures.push(e);
        }
        sessions += 1;
    }
    out.measured_s = start.elapsed().as_secs_f64();
    drop(one_cpu);
    out.peak_heap_bytes = alloc::peak_bytes();

    drop(client);
    let (metrics, broken) = server.quiesced_metrics()?;
    out.failures.extend(broken);
    server.stop()?;

    if tracer.on() {
        // Replay the sessions against an in-process store and cache that
        // one untraced session has warmed: each frame op is one
        // `handle_frame` call, the whole session write path.
        let store = SessionStore::new(256, Duration::from_secs(60));
        let cache = SweepCache::bounded(64, 1024);
        let replay_session = |tracer: &mut Tracer, totals: &mut Vec<f64>| -> Result<(), String> {
            let (status, created) = handle_create(&store, &body, Instant::now());
            let id = parse(&created)
                .ok()
                .and_then(|v| v.get("session")?.as_str().map(String::from));
            let id = id
                .filter(|_| status == 200)
                .ok_or("replayed create failed")?;
            for f in 0..frames {
                let mut op = Op::start("frame");
                let (status, body) = op.span("serve.frame", || {
                    handle_frame(&store, &cache, &id, "", Instant::now())
                });
                op.end();
                tracer.record(&op);
                check_frame(f, status, &body, &refs)?;
                totals.push(op.total().as_secs_f64() * 1e6);
            }
            match handle_close(&store, &id) {
                (200, _) => Ok(()),
                (s, _) => Err(format!("replayed close: status {s}")),
            }
        };
        replay_session(&mut Tracer::new(false, 1), &mut Vec::new())?;
        let mut totals = Vec::new();
        for _ in 0..(sessions.min(MAX_REPLAYED / frames)) {
            replay_session(&mut tracer, &mut totals)?;
        }
        let transport_us: Vec<f64> = totals
            .iter()
            .zip(&out.latencies_ms)
            .map(|(op, lat)| lat * 1e3 - op)
            .collect();
        out.traced(
            tracer,
            args,
            Some(&metrics),
            &work,
            stats::median(&transport_us),
        )?;
    }
    Ok(out)
}
