//! Fig. 17: absolute frame rate at low resolutions (0.0625–0.5 MP) on
//! the default 4-tile Diffy with DeltaD16 and DDR4-3200 — the paper's
//! "real-time at lower resolutions" result.

use diffy_bench::{all_ci_bundles, banner, bench_options};
use diffy_core::accelerator::{EvalOptions, SchemeChoice};
use diffy_core::scaling::{megapixels_to_pixels, FIG17_MEGAPIXELS};
use diffy_core::summary::TextTable;
use diffy_sim::Architecture;

fn main() {
    let opts = bench_options();
    banner("Fig. 17", "Diffy FPS at low resolutions", &opts);

    let mut header = vec!["network".to_string()];
    header.extend(FIG17_MEGAPIXELS.iter().map(|mp| format!("{mp} MP")));
    let mut table = TextTable::new(header);
    let eval = EvalOptions::new(
        Architecture::Diffy,
        SchemeChoice::DELTA_D16,
    );

    for (model, bundles) in all_ci_bundles(&opts) {
        let mut row = vec![model.name().to_string()];
        for &mp in &FIG17_MEGAPIXELS {
            let target = megapixels_to_pixels(mp);
            let fps: f64 = bundles
                .iter()
                .map(|b| {
                    let r = b.evaluate(&eval);
                    r.fps_scaled(b.source_pixels, target)
                })
                .sum::<f64>()
                / bundles.len() as f64;
            row.push(format!("{fps:.0}"));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!("paper: real-time (30+ FPS) for all models up to 0.25 MP; DnCNN");
    println!("       reaches 19 FPS at 0.4 MP.");
}
