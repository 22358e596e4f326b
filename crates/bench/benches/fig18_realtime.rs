//! Fig. 18: the minimum configuration — tiles × off-chip memory — for
//! real-time (30 FPS) HD processing with Diffy, per model and per
//! compression scheme.

use diffy_bench::{banner, bench_options, ci_bundles, COMPRESSION_SCHEMES};
use diffy_core::scaling::min_realtime_config;
use diffy_core::summary::TextTable;
use diffy_models::CiModel;

fn main() {
    let mut opts = bench_options();
    opts.samples_per_dataset = opts.samples_per_dataset.min(1);
    banner("Fig. 18", "minimum Diffy configuration for 30 FPS at HD", &opts);

    let mut table = TextTable::new(vec!["network", "scheme", "tiles", "memory"]);
    for model in CiModel::ALL {
        let bundles = ci_bundles(model, &opts);
        // Use the HD33 bundle (the target content class) when present.
        let bundle = bundles
            .iter()
            .find(|b| b.dataset == Some(diffy_imaging::datasets::DatasetId::Hd33))
            .unwrap_or(&bundles[0]);
        for scheme in COMPRESSION_SCHEMES {
            match min_realtime_config(bundle, scheme) {
                Some((tiles, mem)) => {
                    table.row(vec![
                        model.name().to_string(),
                        scheme.label(),
                        tiles.to_string(),
                        mem.to_string(),
                    ]);
                }
                None => {
                    table.row(vec![
                        model.name().to_string(),
                        scheme.label(),
                        "-".to_string(),
                        "not reachable".to_string(),
                    ]);
                }
            }
        }
    }
    println!("{}", table.render());
    println!("paper: DnCNN is the most demanding (32 tiles + HBM2 under");
    println!("       DeltaD16); FFDNet/JointNet need 8 tiles with dual-channel");
    println!("       DDR3-1600; VDSR 16 tiles with dual LPDDR3E-2133.");
}
