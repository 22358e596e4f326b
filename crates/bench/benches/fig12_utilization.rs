//! Fig. 12: per-layer lane-utilization breakdown for Diffy — useful
//! cycles, idle cycles (cross-lane synchronization + filter
//! underutilization) and off-chip stalls. DeltaD16, DDR4-3200.

use diffy_bench::{banner, bench_options, ci_bundles};
use diffy_core::accelerator::{EvalOptions, SchemeChoice};
use diffy_core::summary::TextTable;
use diffy_models::CiModel;
use diffy_sim::Architecture;

fn main() {
    let mut opts = bench_options();
    opts.samples_per_dataset = opts.samples_per_dataset.min(1);
    banner("Fig. 12", "per-layer Diffy lane utilization breakdown", &opts);

    let eval = EvalOptions::new(
        Architecture::Diffy,
        SchemeChoice::DELTA_D16,
    );
    for model in CiModel::ALL {
        let bundles = ci_bundles(model, &opts);
        println!("{}:", model.name());
        let mut table = TextTable::new(vec!["layer", "useful", "idle", "stall"]);
        let layer_count = bundles[0].trace.layers.len();
        for li in 0..layer_count {
            let mut useful = 0u64;
            let mut total = 0u64;
            let mut stall = 0u64;
            let mut total_time = 0u64;
            let mut name = String::new();
            for b in &bundles {
                let r = b.evaluate(&eval);
                let l = &r.layers[li];
                name = l.name.clone();
                useful += l.compute.useful_slots;
                total += l.compute.total_slots;
                stall += l.timing.stall_cycles;
                total_time += l.timing.total_cycles;
            }
            // Useful fraction of compute slots, scaled by the share of
            // the layer's wall-clock that was compute (the rest is stall).
            let compute_frac = if total_time == 0 {
                0.0
            } else {
                (total_time - stall) as f64 / total_time as f64
            };
            let useful_frac =
                if total == 0 { 0.0 } else { useful as f64 / total as f64 } * compute_frac;
            let stall_frac = if total_time == 0 { 0.0 } else { stall as f64 / total_time as f64 };
            let idle_frac = (1.0 - useful_frac - stall_frac).max(0.0);
            table.row(vec![
                name,
                format!("{:.1}%", useful_frac * 100.0),
                format!("{:.1}%", idle_frac * 100.0),
                format!("{:.1}%", stall_frac * 100.0),
            ]);
        }
        println!("{}", table.render());
    }
    println!("paper: utilization varies widely per layer; first layers idle on");
    println!("       3-channel inputs (13/16 lanes), last layers on few filters;");
    println!("       VDSR's high sparsity makes cross-lane sync dominate.");
}
