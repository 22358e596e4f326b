//! `perfbench`: runs one workload and prints its metrics. The last line
//! of standard output is the JSON result; the exit code is 0 only when
//! every checked output was correct.

use diffy_perfbench::alloc::CountingAlloc;
use diffy_perfbench::spans::{STALLED_OPS_PER, UNCOVERED_NS, UNCOVERED_SHARE};
use diffy_perfbench::spec::{result_line, END_TO_END, PER_LAYER};
use diffy_perfbench::workloads::{cold_miss, hd_eval, stream, warm_hit, Outcome, Summary};
use diffy_perfbench::{stats, Args, USAGE};
use std::process::exit;

/// Length of the windows a [`Summary::Windows`] workload's measured
/// phase is split into. The host's speed switches between levels about
/// 1.5× apart within a run, for a share of the run that differs from run
/// to run; summarizing each window and reporting the level three
/// quarters of the windows hold keeps that share out of the result.
const WINDOW_S: f64 = 0.1;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, n] = &argv[..] {
        if flag == "--pin-digests" {
            let n = n
                .parse()
                .unwrap_or_else(|e| fail(2, &format!("bad --pin-digests: {e}")));
            cold_miss::print_digests(1, n).unwrap_or_else(|e| fail(1, &e));
            return;
        }
    }
    let args = Args::parse(&argv).unwrap_or_else(|e| fail(2, &format!("{e}\n{USAGE}")));
    let run = match args.workload.as_str() {
        "cold_miss" => cold_miss::run,
        "warm_hit" => warm_hit::run,
        "stream" => stream::run,
        _ => hd_eval::run,
    };
    let outcome = run(&args).unwrap_or_else(|e| fail(1, &format!("{}: {e}", args.workload)));
    match report(&args, &outcome) {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => fail(1, &e),
    }
}

fn fail(code: i32, message: &str) -> ! {
    eprintln!("perfbench: {message}");
    exit(code)
}

/// Prints the human-readable report and the result line; returns
/// whether the run was correct.
fn report(args: &Args, out: &Outcome) -> Result<bool, String> {
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} host_parallelism {host}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut lat = out.latencies_ms.clone();
    if lat.is_empty() {
        return Err("no op was measured".into());
    }
    lat.sort_by(f64::total_cmp);
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed);
    for f in out.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    if out.failures.len() > 20 {
        println!("FAILED ... and {} more", out.failures.len() - 20);
    }
    println!(
        "ops {} attempted {attempted} failed {failed} error_rate {}",
        out.ops,
        failed as f64 / attempted as f64
    );
    match stats::highest_supported(&lat) {
        Some((p, v)) => println!(
            "latency samples {}: p{p:.3} {v} ms (10 samples beyond it)",
            lat.len()
        ),
        None => println!(
            "latency samples {}: no percentile has 10 samples beyond it",
            lat.len()
        ),
    }
    let each: Vec<String> = out.setup_s.iter().map(f64::to_string).collect();
    println!("setup_s of each set-up: {}", each.join(" "));

    let correct = failed == 0;
    let line = if args.trace {
        let u = &out.uncovered;
        println!(
            "time of an op outside its layer spans: median {} us, largest {} us; \
             {} of {} ops beyond {}% of the op plus {} us (at most one in {} may be)",
            u.median_ns as f64 / 1e3,
            u.max_ns as f64 / 1e3,
            u.over,
            u.ops,
            UNCOVERED_SHARE * 100.0,
            UNCOVERED_NS as f64 / 1e3,
            STALLED_OPS_PER
        );
        if let Some(path) = &out.trace_file {
            println!("spans written to {}", path.display());
        }
        for (spec, (_, v)) in PER_LAYER.iter().zip(&out.layers) {
            println!("{:<24} {v:>16.4} {}", spec.name, spec.unit);
        }
        result_line(correct, attempted, failed, &PER_LAYER, &out.layers)?
    } else {
        let whole = [
            stats::nearest_rank(&lat, 50.0),
            stats::nearest_rank(&lat, 90.0),
            out.ops as f64 / out.measured_s,
        ];
        let [p50, p90, rate] = match out.summary {
            Summary::Whole => {
                println!("summary: whole run");
                whole
            }
            Summary::Windows => {
                let ws = stats::windows(&out.starts_s, &out.latencies_ms, out.measured_s, WINDOW_S);
                println!("summary: windows");
                println!(
                    "quartiles over {} windows of {WINDOW_S} s, {} without an op start; whole run: p50 {} ms, p90 {} ms, {} ops/s",
                    ws.len(),
                    ws.iter().filter(|w| w.rate == 0.0).count(),
                    whole[0],
                    whole[1],
                    whole[2]
                );
                let level = |f: fn(&stats::Window) -> f64, q: f64| {
                    let mut v: Vec<f64> = ws.iter().map(f).collect();
                    v.sort_by(f64::total_cmp);
                    stats::nearest_rank(&v, q)
                };
                // The level three quarters of the windows hold: the slower
                // latency quartile, the lower throughput quartile.
                [
                    level(|w| w.p50, 75.0),
                    level(|w| w.p90, 75.0),
                    level(|w| w.rate, 25.0),
                ]
            }
        };
        let values = [
            ("latency_p50_ms", p50),
            ("latency_p90_ms", p90),
            ("throughput_ops_s", rate),
            ("setup_s", stats::median(&out.setup_s)),
            ("peak_heap_mb", out.peak_heap_bytes as f64 / 1e6),
            (
                "success_pct",
                100.0 * (attempted - failed) as f64 / attempted as f64,
            ),
        ];
        for (spec, (_, v)) in END_TO_END.iter().zip(&values) {
            println!("{:<24} {v:>16.4} {}", spec.name, spec.unit);
        }
        result_line(correct, attempted, failed, &END_TO_END, &values)?
    };
    println!("{line}");
    Ok(correct)
}
