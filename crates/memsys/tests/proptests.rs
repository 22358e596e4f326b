//! Property tests for the memory system.

use diffy_encoding::precision::Signedness;
use diffy_encoding::StorageScheme;
use diffy_memsys::offchip::{MemoryNode, MemorySystem};
use diffy_memsys::overlap::combine;
use diffy_memsys::traffic::LayerTraffic;
use proptest::prelude::*;

fn mem() -> MemorySystem {
    MemorySystem::single(MemoryNode::Ddr4_3200)
}

proptest! {
    #[test]
    fn overlap_total_is_max_of_parts(compute in 0u64..1_000_000, bytes in 0u64..10_000_000) {
        let traffic = LayerTraffic { imap_read_bytes: bytes, omap_write_bytes: 0, weight_bytes: 0 };
        let t = combine(compute, &traffic, &mem(), 1.0);
        prop_assert_eq!(t.total_cycles, t.compute_cycles.max(t.memory_cycles));
        prop_assert_eq!(t.stall_cycles, t.total_cycles - t.compute_cycles);
        prop_assert!(t.stall_fraction() >= 0.0 && t.stall_fraction() <= 1.0);
    }

    #[test]
    fn scheme_bits_bounded_by_values(
        row in proptest::collection::vec(0i16..=i16::MAX, 1..64),
    ) {
        // Every scheme's footprint is positive and RLE-family footprints
        // are bounded by 20 bits/value; dynamic by 16n + headers.
        let n = row.len() as u64;
        for scheme in [
            StorageScheme::raw_d(16),
            StorageScheme::delta_d(16),
            StorageScheme::RleZ,
            StorageScheme::Rle,
        ] {
            let bits = scheme.row_bits(&row, Signedness::Unsigned);
            prop_assert!(bits > 0);
            prop_assert!(bits <= 20 * n + 4 * n.div_ceil(16) + 4, "{scheme}: {bits}");
        }
    }
}
