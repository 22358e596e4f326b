//! `warm_hit`: `POST /evaluate` cycling in seeded order over a fixed
//! working set of two keys per model at 32², which set-up fills, so
//! every op is a memory-tier hit and no compute layer runs.

use super::{
    parse_evaluate, raw_post, replay_evaluate, replay_weights, set_up, weights_of, Outcome,
    Summary, Work, MAX_REPLAYED, TRACE_CAPACITY,
};
use crate::affinity::OneCpu;
use crate::keys::warm_working_set;
use crate::server::{BenchServer, CLIENT_TIMEOUT};
use crate::spans::{Op, Tracer};
use crate::{alloc, stats, Args};
use diffy_core::runner::SweepCache;
use diffy_models::CiModel;
use diffy_serve::{result_to_json, KeepAliveClient, ServeConfig};
use std::time::Instant;

/// Trace resolution of the working set.
const RESOLUTION: usize = 32;

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (set, order) = warm_working_set(args.seed);
    let bodies: Vec<String> = set.iter().map(|k| k.body(RESOLUTION)).collect();

    // References, untimed: each key evaluated through the free
    // functions, with no server and no cache.
    let mut tracer = Tracer::new(args.trace, TRACE_CAPACITY);
    let mut work = Work::default();
    let weights = replay_weights(CiModel::ALL, &mut tracer);
    let mut refs = Vec::with_capacity(set.len());
    for (key, body) in set.iter().zip(&bodies) {
        let raw = raw_post("/evaluate", body);
        let r = replay_evaluate(
            &raw,
            weights_of(&weights, key.model),
            &mut tracer,
            &mut work,
        )?;
        work.cycles += r.result.total_cycles();
        work.traffic_bytes += r.result.total_traffic_bytes();
        refs.push(r.body);
    }
    drop(weights);

    let check = |i: usize, resp: &Result<diffy_serve::HttpResponse, std::io::Error>| match resp {
        Ok(r) if r.status == 200 && r.body == refs[i] => Ok(()),
        Ok(r) if r.status == 200 => Err(format!("key {i}: body differs from reference")),
        Ok(r) => Err(format!("key {i}: status {}", r.status)),
        Err(e) => Err(format!("key {i}: {e}")),
    };
    let mut out = Outcome::for_run(args.seconds, Summary::Windows);
    // Set-up: bind, fill the working set, one untimed warm-up op.
    let ((server, mut client), setup_s) = set_up(|| {
        let server = BenchServer::start(ServeConfig::default())?;
        let mut client = KeepAliveClient::new(server.addr(), CLIENT_TIMEOUT);
        for (i, body) in bodies.iter().enumerate() {
            check(i, &client.post("/evaluate", body))?;
        }
        check(order[0], &client.post("/evaluate", &bodies[order[0]]))?;
        Ok((server, client))
    })?;

    out.setup_s = setup_s;
    // One op is a microsecond ping-pong: measure on one CPU (see
    // `affinity`).
    let one_cpu = OneCpu::pin_all()?;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        let k = order[i % order.len()];
        let t = Instant::now();
        let resp = client.post("/evaluate", &bodies[k]);
        out.sample(start, t);
        if let Err(e) = check(k, &resp) {
            out.failures.push(format!("op {i}: {e}"));
        }
        i += 1;
    }
    out.measured_s = start.elapsed().as_secs_f64();
    drop(one_cpu);
    out.peak_heap_bytes = alloc::peak_bytes();
    out.ops = i as u64;
    out.attempted = out.ops;

    drop(client);
    let (metrics, broken) = server.quiesced_metrics()?;
    out.failures.extend(broken);
    server.stop()?;

    if tracer.on() {
        // Replay the op sequence against an in-process cache holding the
        // working set: parse, the result-tier lookup, serialize.
        let cache = SweepCache::bounded(64, 1024);
        let raws: Vec<Vec<u8>> = bodies.iter().map(|b| raw_post("/evaluate", b)).collect();
        for raw in &raws {
            let req = parse_evaluate(raw)?;
            cache.evaluate_keyed(
                req.model,
                req.dataset,
                req.sample,
                &req.workload(),
                &req.eval_options(),
            );
        }
        let mut transport_us = Vec::new();
        for n in 0..(i.min(MAX_REPLAYED)) {
            let k = order[n % order.len()];
            let mut op = Op::start("evaluate");
            let req = op.span("serve.parse", || parse_evaluate(&raws[k]))?;
            let hit = op.span("runner.hit", || {
                let (workload, eval) = (req.workload(), req.eval_options());
                cache.evaluate_keyed(req.model, req.dataset, req.sample, &workload, &eval)
            });
            let body = op.span("serve.serialize", || {
                result_to_json(&hit.result, hit.source_pixels).to_json()
            });
            op.end();
            tracer.record(&op);
            if body != refs[k] {
                out.failures
                    .push(format!("replayed op {n}: body differs from reference"));
            }
            transport_us.push(out.latencies_ms[n] * 1e3 - op.total().as_secs_f64() * 1e6);
        }
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
