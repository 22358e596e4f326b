//! Seeded inputs: every op a workload sends is a pure function of the
//! workload seed, so two runs with one seed replay the same sequence.

use diffy_core::runner::datasets_for;
use diffy_imaging::datasets::DatasetId;
use diffy_models::CiModel;

/// SplitMix64: a small, seedable generator whose sequence is fixed by
/// its seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `salt` so workloads that
    /// share a seed draw unrelated streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One `(model, dataset, sample)` evaluation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// Model to trace.
    pub model: CiModel,
    /// Dataset the sample comes from.
    pub dataset: DatasetId,
    /// Sample index within the dataset.
    pub sample: usize,
}

impl EvalKey {
    /// The `POST /evaluate` body for this key at `resolution`; every
    /// other field stays at its protocol default (Diffy, DeltaD16,
    /// DDR4-3200, seed 1).
    pub fn body(&self, resolution: usize) -> String {
        format!(
            r#"{{"model":"{}","dataset":"{}","sample":{},"resolution":{resolution}}}"#,
            self.model.name(),
            self.dataset.name(),
            self.sample
        )
    }
}

/// The cold_miss key stream. Op `i` runs model `CiModel::ALL[i % 5]`,
/// so every five ops are one rotation through the Table I models. Each
/// model walks its own seeded permutation of every `(dataset, sample)`
/// pair of its paper datasets, so no key repeats within a run; the last
/// pair of each permutation is held back for set-up requests.
pub struct ColdKeys {
    pairs: Vec<Vec<(DatasetId, usize)>>,
}

impl ColdKeys {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xC01D);
        let pairs = CiModel::ALL
            .iter()
            .map(|&m| {
                let mut all: Vec<(DatasetId, usize)> = datasets_for(m)
                    .into_iter()
                    .flat_map(|d| (0..d.samples()).map(move |s| (d, s)))
                    .collect();
                rng.shuffle(&mut all);
                all
            })
            .collect();
        Self { pairs }
    }

    /// The key of op `i`, or `None` once that model's pairs run out.
    pub fn op(&self, i: usize) -> Option<EvalKey> {
        let m = i % CiModel::ALL.len();
        let list = &self.pairs[m];
        let (dataset, sample) = *list[..list.len() - 1].get(i / CiModel::ALL.len())?;
        Some(EvalKey {
            model: CiModel::ALL[m],
            dataset,
            sample,
        })
    }

    /// The held-back key of model `CiModel::ALL[m]`, never returned by
    /// [`ColdKeys::op`].
    pub fn reserved(&self, m: usize) -> EvalKey {
        let (dataset, sample) = *self.pairs[m].last().expect("every model has datasets");
        EvalKey {
            model: CiModel::ALL[m],
            dataset,
            sample,
        }
    }
}

/// The warm_hit working set: two keys per model (the first two
/// rotations of the cold_miss stream for `seed`), and the seeded order
/// in which ops cycle over it.
pub fn warm_working_set(seed: u64) -> (Vec<EvalKey>, Vec<usize>) {
    let keys = ColdKeys::new(seed);
    let set: Vec<EvalKey> = (0..2 * CiModel::ALL.len())
        .map(|i| keys.op(i).expect("every model has at least three pairs"))
        .collect();
    let mut order: Vec<usize> = (0..set.len()).collect();
    Rng::new(seed, 0x4A17).shuffle(&mut order);
    (set, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn stream(seed: u64) -> Vec<EvalKey> {
        let keys = ColdKeys::new(seed);
        (0..).map_while(|i| keys.op(i)).collect()
    }

    #[test]
    fn cold_keys_never_repeat_and_skip_the_reserved_keys() {
        for seed in [1, 2, 77, u64::MAX] {
            let keys = ColdKeys::new(seed);
            let all = stream(seed);
            assert!(all.len() >= 5 * 70, "only {} keys", all.len());
            let mut seen = HashSet::new();
            for k in &all {
                assert!(seen.insert(*k), "seed {seed}: {k:?} repeats");
            }
            for m in 0..CiModel::ALL.len() {
                assert!(!seen.contains(&keys.reserved(m)));
            }
        }
    }

    #[test]
    fn cold_keys_rotate_through_the_models() {
        let keys = ColdKeys::new(5);
        for i in 0..50 {
            assert_eq!(keys.op(i).unwrap().model, CiModel::ALL[i % 5]);
        }
    }

    #[test]
    fn cold_keys_depend_only_on_the_seed() {
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9)[..10], stream(10)[..10]);
        assert_eq!(warm_working_set(3), warm_working_set(3));
    }

    #[test]
    fn body_names_the_key_and_resolution() {
        let k = EvalKey {
            model: CiModel::Vdsr,
            dataset: DatasetId::Hd33,
            sample: 4,
        };
        let v = diffy_core::json::parse(&k.body(32)).unwrap();
        let req = diffy_serve::EvalRequest::from_json(&v).unwrap();
        assert_eq!(
            (req.model, req.dataset, req.sample, req.resolution),
            (k.model, k.dataset, 4, 32)
        );
        assert_eq!(req.seed, 1);
    }
}
