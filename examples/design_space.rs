//! Design-space exploration: sweep tile count × off-chip memory node for
//! one model and print the HD frame-rate grid plus the cheapest real-time
//! configuration — how an architect would actually use this library.
//!
//! ```text
//! cargo run --release --example design_space [model]
//! ```

use diffy::core::accelerator::{EvalOptions, SchemeChoice};
use diffy::core::runner::{ci_trace_bundle, WorkloadOptions, HD_PIXELS};
use diffy::core::scaling::{fig18_memory_ladder, fps_at_pixels, min_realtime_config, FIG18_TILES};
use diffy::core::summary::TextTable;
use diffy::imaging::datasets::DatasetId;
use diffy::sim::{AcceleratorConfig, Architecture};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "FFDNet".to_string());
    let model = diffy::serve::protocol::parse_model(&arg).unwrap_or_else(|e| panic!("{e}"));

    let opts = WorkloadOptions { resolution: 96, samples_per_dataset: 1, seed: 1 };
    println!("Design space for {model} at HD, Diffy + DeltaD16:\n");
    let bundle = ci_trace_bundle(model, DatasetId::Hd33, 0, &opts);
    let scheme = SchemeChoice::DELTA_D16;

    let ladder = fig18_memory_ladder();
    let mut header = vec!["tiles \\ memory".to_string()];
    header.extend(ladder.iter().map(|m| m.to_string()));
    let mut table = TextTable::new(header);
    for &tiles in &FIG18_TILES {
        let mut row = vec![tiles.to_string()];
        for &mem in &ladder {
            let eval = EvalOptions {
                arch: Architecture::Diffy,
                cfg: AcceleratorConfig::table4().with_tiles(tiles),
                scheme,
                memory: mem,
            };
            let fps = fps_at_pixels(&bundle, &eval, HD_PIXELS);
            let mark = if fps >= 30.0 { "*" } else { " " };
            row.push(format!("{fps:.1}{mark}"));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!("(* = real-time 30 FPS)\n");

    match min_realtime_config(&bundle, scheme) {
        Some((tiles, mem)) => {
            println!("cheapest real-time configuration: {tiles} tiles + {mem}")
        }
        None => println!("no configuration in the ladder reaches 30 FPS"),
    }
}
