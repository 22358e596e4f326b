//! Fig. 13: absolute frame rate at HD (1920×1080) for VAA, PRA and
//! Diffy under each compression scheme. Traces run at reduced resolution
//! and are projected to HD linearly in pixel count (CI-DNNs are fully
//! convolutional; DESIGN.md §2.3).

use diffy_bench::{all_ci_bundles, banner, bench_options, scheme_header, COMPRESSION_SCHEMES};
use diffy_core::accelerator::EvalOptions;
use diffy_core::summary::TextTable;
use diffy_sim::Architecture;

fn main() {
    let opts = bench_options();
    banner("Fig. 13", "HD (1920x1080) frames per second", &opts);

    let mut table = TextTable::new(scheme_header(&["network", "arch"], &COMPRESSION_SCHEMES));
    for (model, bundles) in all_ci_bundles(&opts) {
        for arch in [Architecture::Vaa, Architecture::Pra, Architecture::Diffy] {
            let mut row = vec![model.name().to_string(), arch.name().to_string()];
            for scheme in COMPRESSION_SCHEMES {
                // Average FPS over the workload (FPS varies with content,
                // as the paper notes: +-7.5% PRA, +-15% Diffy).
                let fps: f64 = bundles
                    .iter()
                    .map(|b| b.hd_fps(&b.evaluate(&EvalOptions::new(arch, scheme))))
                    .sum::<f64>()
                    / bundles.len() as f64;
                row.push(format!("{fps:.1}"));
            }
            table.row(row);
        }
    }
    println!("{}", table.render());
    println!("paper: VAA 0.7-3.9 FPS, PRA 2.6-18.9 FPS, Diffy 3.9-28.5 FPS;");
    println!("       only JointNet approaches real-time 30 FPS at 4 tiles.");
}
