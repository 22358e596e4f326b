//! HD denoising pipeline study: DnCNN at 1920×1080 on all three
//! architectures, with a per-layer breakdown for Diffy — the scenario the
//! paper's introduction motivates (real-time computational imaging on
//! device-class accelerators).
//!
//! ```text
//! cargo run --release --example denoise_hd
//! ```

use diffy::core::accelerator::{EvalOptions, SchemeChoice};
use diffy::core::runner::{ci_trace_bundle, WorkloadOptions, HD_PIXELS};
use diffy::core::summary::{fmt_bytes, TextTable};
use diffy::imaging::datasets::DatasetId;
use diffy::models::CiModel;
use diffy::sim::Architecture;

fn main() {
    let model = CiModel::DnCnn;
    let opts = WorkloadOptions { resolution: 96, samples_per_dataset: 1, seed: 1 };
    println!("Tracing {model} on an HD33-class scene at {0}x{0} and projecting", opts.resolution);
    println!("to 1920x1080 (per-pixel work is resolution-stationary)...\n");
    let bundle = ci_trace_bundle(model, DatasetId::Hd33, 0, &opts);

    // Architecture comparison at HD.
    let mut arch_table =
        TextTable::new(vec!["architecture", "scheme", "HD FPS", "stall %", "traffic/frame (HD)"]);
    let hd_scale = HD_PIXELS as f64 / bundle.source_pixels as f64;
    for arch in [Architecture::Vaa, Architecture::Pra, Architecture::Diffy] {
        for scheme in [
            SchemeChoice::NO_COMPRESSION,
            SchemeChoice::DELTA_D16,
        ] {
            let r = bundle.evaluate(&EvalOptions::new(arch, scheme));
            arch_table.row(vec![
                arch.name().to_string(),
                r.scheme.clone(),
                format!("{:.2}", bundle.hd_fps(&r)),
                format!("{:.1}%", r.stall_fraction() * 100.0),
                fmt_bytes((r.total_traffic_bytes() as f64 * hd_scale) as u64),
            ]);
        }
    }
    println!("{}", arch_table.render());

    // Per-layer breakdown for Diffy + DeltaD16.
    let r = bundle.evaluate(&EvalOptions::new(
        Architecture::Diffy,
        SchemeChoice::DELTA_D16,
    ));
    let total = r.total_cycles() as f64;
    let mut layer_table =
        TextTable::new(vec!["layer", "time share", "utilization", "stall %"]);
    for l in &r.layers {
        layer_table.row(vec![
            l.name.clone(),
            format!("{:.1}%", 100.0 * l.timing.total_cycles as f64 / total),
            format!("{:.1}%", l.compute.utilization() * 100.0),
            format!("{:.1}%", l.timing.stall_fraction() * 100.0),
        ]);
    }
    println!("Diffy + DeltaD16 per-layer breakdown:\n{}", layer_table.render());
    println!(
        "Real-time HD denoising needs a scaled-up configuration; see\n\
         `cargo bench -p diffy-bench --bench fig18_realtime` for the minimum tiles/memory."
    );
}
