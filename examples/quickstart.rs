//! Quickstart: trace one CI-DNN on one image and compare the three
//! architectures — the 60-second tour of the library.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use diffy::core::accelerator::{EvalOptions, SchemeChoice};
use diffy::core::runner::{ci_trace_bundle, WorkloadOptions};
use diffy::core::summary::{fmt_x, TextTable};
use diffy::imaging::datasets::DatasetId;
use diffy::models::CiModel;
use diffy::sim::Architecture;

fn main() {
    let model = CiModel::Ircnn;
    let opts = WorkloadOptions { resolution: 64, samples_per_dataset: 1, seed: 1 };
    println!(
        "Tracing {model} on one {}x{} {} image (synthetic stand-in)...",
        opts.resolution,
        opts.resolution,
        DatasetId::Kodak24
    );
    let bundle = ci_trace_bundle(model, DatasetId::Kodak24, 0, &opts);
    println!(
        "  {} conv layers, {:.1} MMACs total\n",
        bundle.trace.layers.len(),
        bundle.trace.total_macs() as f64 / 1e6
    );

    let scheme = SchemeChoice::DELTA_D16;
    let mut table = TextTable::new(vec!["architecture", "cycles", "speedup vs VAA", "stall %"]);
    let vaa = bundle.evaluate(&EvalOptions::new(Architecture::Vaa, scheme));
    for arch in [Architecture::Vaa, Architecture::Pra, Architecture::Diffy] {
        let r = bundle.evaluate(&EvalOptions::new(arch, scheme));
        table.row(vec![
            arch.name().to_string(),
            r.total_cycles().to_string(),
            fmt_x(vaa.total_cycles() as f64 / r.total_cycles() as f64),
            format!("{:.1}%", r.stall_fraction() * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("Diffy processes the deltas of adjacent activations, so smooth");
    println!("imaging content needs fewer effectual Booth terms per value.");
}
