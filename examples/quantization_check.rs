//! Validates the 16-bit fixed-point premise: run a CI-DNN in both the
//! accelerator's fixed-point arithmetic and a float reference, and
//! report the per-layer correlation between the two feature-map streams.
//!
//! ```text
//! cargo run --release --example quantization_check [model]
//! ```

use diffy::core::summary::TextTable;
use diffy::imaging::datasets::DatasetId;
use diffy::models::float_ref::{correlation, run_network_f32};
use diffy::models::{run_network, NetworkWeights};
use diffy::tensor::Quantizer;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "IRCNN".to_string());
    let model = diffy::serve::protocol::parse_model(&arg).unwrap_or_else(|e| panic!("{e}"));

    let res = 48;
    println!("{model}: fixed-point vs float reference at {res}x{res}\n");
    let img = DatasetId::Kodak24.sample_scaled(0, res, res);
    let weights =
        NetworkWeights::generate(&model.spec(), model.weight_gen(1), Quantizer::default());

    // Fixed-point path (the accelerator's arithmetic).
    let input_fixed = model.prepare_input(&img, 1);
    let fixed = run_network(&model.spec(), &weights, &input_fixed);

    // Float path over the *same* prepared input, dequantized — isolating
    // arithmetic error from input quantization.
    let q = Quantizer::default();
    let input_float = input_fixed.map(|v| q.dequantize(v));
    let float = run_network_f32(&model.spec(), &weights, &input_float);

    let mut table = TextTable::new(vec!["layer", "correlation"]);
    let mut min_r: f64 = 1.0;
    for (i, fmap) in float.iter().enumerate() {
        let r = correlation(fixed.omap(i), fmap);
        min_r = min_r.min(r);
        table.row(vec![fixed.layers[i].name.clone(), format!("{r:.5}")]);
    }
    println!("{}", table.render());
    println!(
        "worst layer correlation: {min_r:.5} — 16-bit fixed point with\n\
         per-layer scaling tracks the float reference through the full\n\
         stack, the premise the paper inherits from Stripes/Proteus."
    );
}
