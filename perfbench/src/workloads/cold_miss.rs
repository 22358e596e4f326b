//! `cold_miss`: `POST /evaluate` at the protocol defaults, one key that
//! is never repeated per op, so every op traces and evaluates a network
//! from scratch. The keys rotate through the five Table I models.

use super::{
    raw_post, replay_evaluate, replay_weights, set_up, weights_of, Outcome, Summary, Work,
    TRACE_CAPACITY,
};
use crate::keys::ColdKeys;
use crate::server::{BenchServer, CLIENT_TIMEOUT};
use crate::spans::Tracer;
use crate::{alloc, stats, Args};
use diffy_core::artifact::fnv1a64;
use diffy_models::CiModel;
use diffy_serve::protocol::MIN_RESOLUTION;
use diffy_serve::{KeepAliveClient, ServeConfig};
use std::time::Instant;

/// Trace resolution of every measured op: the protocol default.
const RESOLUTION: usize = 64;

/// The measured phase runs whole rotations (one op per model), at
/// least this many: the server's caches are full after the first, so
/// from the second on the resident set — and the heap peak — repeats.
const MIN_ROTATIONS: usize = 2;

/// FNV-1a digests of the bodies of the first ops for seed 1, one
/// 16-digit hex digest per line in op order.
const PINNED_SEED1: &str = include_str!("../../pins/cold_miss-seed1.txt");

/// The server caches hold one rotation: one trace and one plane set
/// per layer for each model. A larger cache would keep growing through
/// the run, so the heap peak would track how many ops fit in the run
/// rather than what one op costs.
fn config() -> ServeConfig {
    ServeConfig {
        trace_cache: CiModel::ALL.len(),
        plane_cache: CiModel::ALL.iter().map(|m| m.spec().conv_layers()).sum(),
        ..ServeConfig::default()
    }
}

fn post_ok(client: &mut KeepAliveClient, body: &str) -> Result<String, String> {
    match client.post("/evaluate", body) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("{body}: status {} {}", r.status, r.body)),
        Err(e) => Err(format!("{body}: {e}")),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let keys = ColdKeys::new(args.seed);
    let rotation = CiModel::ALL.len();
    let ircnn = CiModel::ALL
        .iter()
        .position(|&m| m == CiModel::Ircnn)
        .expect("IRCNN");

    let mut out = Outcome::for_run(args.seconds, Summary::Whole);
    // Set-up: bind, one small request per model to generate its
    // weights, then one untimed warm-up op at the measured resolution.
    // All on held-back keys, so no measured op finds them cached.
    let ((server, mut client), setup_s) = set_up(|| {
        let server = BenchServer::start(config())?;
        let mut client = KeepAliveClient::new(server.addr(), CLIENT_TIMEOUT);
        for m in 0..rotation {
            post_ok(&mut client, &keys.reserved(m).body(MIN_RESOLUTION))?;
        }
        post_ok(&mut client, &keys.reserved(ircnn).body(RESOLUTION))?;
        Ok((server, client))
    })?;

    out.setup_s = setup_s;
    let mut sent = Vec::new();
    let mut digests = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        let whole = i % rotation == 0;
        if whole && i / rotation >= MIN_ROTATIONS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let Some(key) = keys.op(i) else { break };
        let body = key.body(RESOLUTION);
        let t = Instant::now();
        let resp = client.post("/evaluate", &body);
        out.sample(start, t);
        digests.push(match resp {
            Ok(r) if r.status == 200 => Some(fnv1a64(r.body.as_bytes())),
            Ok(r) => {
                out.failures.push(format!("op {i}: status {}", r.status));
                None
            }
            Err(e) => {
                out.failures.push(format!("op {i}: {e}"));
                None
            }
        });
        sent.push(body);
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_heap_bytes = alloc::peak_bytes();
    out.ops = sent.len() as u64;
    out.attempted = out.ops;

    drop(client);
    let (metrics, broken) = server.quiesced_metrics()?;
    out.failures.extend(broken);
    server.stop()?;

    // Replay every measured op in-process. Its bodies are the reference
    // the served bodies must match; for seed 1 they must also match the
    // pinned digests, so a change to any simulated number shows.
    let mut tracer = Tracer::new(args.trace, TRACE_CAPACITY);
    let mut work = Work::default();
    let weights = replay_weights(CiModel::ALL, &mut tracer);
    let pinned: Vec<&str> = if args.seed == 1 {
        PINNED_SEED1.lines().collect()
    } else {
        Vec::new()
    };
    let mut transport_us = Vec::new();
    for (i, (body, served)) in sent.iter().zip(&digests).enumerate() {
        let model = keys.op(i).expect("replaying a sent key").model;
        let replayed = replay_evaluate(
            &raw_post("/evaluate", body),
            weights_of(&weights, model),
            &mut tracer,
            &mut work,
        )?;
        if i < rotation {
            work.cycles += replayed.result.total_cycles();
            work.traffic_bytes += replayed.result.total_traffic_bytes();
        }
        let want = fnv1a64(replayed.body.as_bytes());
        if let Some(pin) = pinned.get(i) {
            if format!("{want:016x}") != *pin {
                out.failures
                    .push(format!("op {i}: replay digest {want:016x} != pinned {pin}"));
            }
        }
        match served {
            Some(d) if *d != want => out
                .failures
                .push(format!("op {i}: body differs from replay")),
            _ => {}
        }
        transport_us.push((out.latencies_ms[i] * 1e3) - replayed.total.as_secs_f64() * 1e6);
    }
    if tracer.on() {
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

/// Prints the replay digests of the first `n` ops for `seed`, one per
/// line: the content of the pin file.
pub fn print_digests(seed: u64, n: usize) -> Result<(), String> {
    let keys = ColdKeys::new(seed);
    let mut tracer = Tracer::new(false, 1);
    let mut work = Work::default();
    let weights = replay_weights(CiModel::ALL, &mut tracer);
    for i in 0..n {
        let key = keys.op(i).ok_or("key stream exhausted")?;
        let r = replay_evaluate(
            &raw_post("/evaluate", &key.body(RESOLUTION)),
            weights_of(&weights, key.model),
            &mut tracer,
            &mut work,
        )?;
        println!("{:016x}", fnv1a64(r.body.as_bytes()));
    }
    Ok(())
}
