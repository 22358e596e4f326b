//! Property tests for the imaging substrate.

use diffy_imaging::datasets::DatasetId;
use diffy_imaging::scenes::{render_scene, roughness, SceneKind};
use diffy_imaging::to_fixed;
use diffy_tensor::{Quantizer, Tensor3};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scenes_always_in_unit_range(
        kind in prop_oneof![Just(SceneKind::Nature), Just(SceneKind::City), Just(SceneKind::Texture)],
        h in 8usize..40,
        w in 8usize..40,
        seed in 0u64..500,
    ) {
        let img = render_scene(kind, h, w, seed);
        prop_assert_eq!(img.shape().as_tuple(), (3, h, w));
        prop_assert!(img.iter().all(|&v| (-1e-4..=1.0 + 1e-4).contains(&v)));
        // Spatially correlated: far below white noise's ~1/3.
        prop_assert!(roughness(&img) < 0.3);
    }

    #[test]
    fn dataset_samples_are_deterministic(
        idx in 0usize..10,
        h in 8usize..24,
        w in 8usize..24,
    ) {
        for d in [DatasetId::Cbsd68, DatasetId::Hd33] {
            let a = d.sample_scaled(idx, h, w);
            let b = d.sample_scaled(idx, h, w);
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn to_fixed_is_monotone_and_bounded(
        vals in proptest::collection::vec(0.0f32..1.0, 4..32),
    ) {
        let n = vals.len();
        let img = Tensor3::from_vec(1, 1, n, vals.clone());
        let q = Quantizer::default();
        let fx = to_fixed(&img, q);
        for (f, v) in fx.iter().zip(vals.iter()) {
            prop_assert!(*f >= 0 && *f <= 256);
            prop_assert!((q.dequantize(*f) - v).abs() <= 0.5 / q.scale() + 1e-6);
        }
    }
}
