//! Per-layer value statistics: mean effectual terms (raw vs delta) and
//! sparsity for one model — the microscope behind Figs. 2/3.
//!
//! ```text
//! cargo run --release --example value_stats [model]
//! ```

use diffy::core::runner::{ci_trace_bundle, WorkloadOptions};
use diffy::core::summary::TextTable;
use diffy::encoding::delta::delta_rows_wrapping;
use diffy::encoding::terms::{stats_of_acts, TermStats};
use diffy::imaging::datasets::DatasetId;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "DnCNN".to_string());
    let model = diffy::serve::protocol::parse_model(&arg).unwrap_or_else(|e| panic!("{e}"));

    let opts = WorkloadOptions { resolution: 64, samples_per_dataset: 1, seed: 1 };
    let bundle = ci_trace_bundle(model, DatasetId::Kodak24, 0, &opts);

    let mut table = TextTable::new(vec![
        "layer",
        "raw terms/act",
        "delta terms/act",
        "ratio",
        "raw sparsity",
        "delta sparsity",
    ]);
    let mut raw_all = TermStats::new();
    let mut delta_all = TermStats::new();
    for l in &bundle.trace.layers {
        let raw = stats_of_acts(&l.imap);
        let deltas = delta_rows_wrapping(&l.imap, l.geom.stride);
        let delta = stats_of_acts(&deltas);
        table.row(vec![
            l.name.clone(),
            format!("{:.2}", raw.mean_terms()),
            format!("{:.2}", delta.mean_terms()),
            format!("{:.2}x", raw.mean_terms() / delta.mean_terms().max(1e-9)),
            format!("{:.1}%", raw.sparsity() * 100.0),
            format!("{:.1}%", delta.sparsity() * 100.0),
        ]);
        raw_all.merge(&raw);
        delta_all.merge(&delta);
    }
    table.row(vec![
        "ALL".to_string(),
        format!("{:.2}", raw_all.mean_terms()),
        format!("{:.2}", delta_all.mean_terms()),
        format!("{:.2}x", raw_all.mean_terms() / delta_all.mean_terms().max(1e-9)),
        format!("{:.1}%", raw_all.sparsity() * 100.0),
        format!("{:.1}%", delta_all.sparsity() * 100.0),
    ]);
    println!("{model}: per-layer effectual-term statistics\n");
    println!("{}", table.render());
}
