//! Off-chip memory technologies (Fig. 15 and Fig. 18).
//!
//! The paper sweeps "memory technologies ranging from the now low-end
//! LPDDR3-1600 up to the high-end HBM2"; the scaling study (Fig. 18) adds
//! channel counts and HBM3. Bandwidths are the standard peak transfer
//! rates of each node.

use std::fmt;

/// One off-chip memory technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryNode {
    /// LPDDR3-1600: 12.8 GB/s per channel.
    Lpddr3_1600,
    /// LPDDR3E-2133: 17.1 GB/s per channel.
    Lpddr3e2133,
    /// DDR3-1600: 12.8 GB/s per channel.
    Ddr3_1600,
    /// LPDDR4-3200: 25.6 GB/s per channel.
    Lpddr4_3200,
    /// DDR4-3200: 25.6 GB/s per channel.
    Ddr4_3200,
    /// LPDDR4X-3733: 29.9 GB/s per channel.
    Lpddr4x3733,
    /// LPDDR4X-4267: 34.1 GB/s per channel.
    Lpddr4x4267,
    /// HBM2: 256 GB/s per stack.
    Hbm2,
    /// HBM3: 410 GB/s per stack.
    Hbm3,
}

impl MemoryNode {
    /// Every modelled node.
    pub const ALL: [MemoryNode; 9] = [
        MemoryNode::Lpddr3_1600,
        MemoryNode::Lpddr3e2133,
        MemoryNode::Ddr3_1600,
        MemoryNode::Lpddr4_3200,
        MemoryNode::Ddr4_3200,
        MemoryNode::Lpddr4x3733,
        MemoryNode::Lpddr4x4267,
        MemoryNode::Hbm2,
        MemoryNode::Hbm3,
    ];

    /// The paper's default node, and the one a request or command prices
    /// under unless it names one.
    pub const DEFAULT: MemoryNode = MemoryNode::Ddr4_3200;

    /// The sweep of Fig. 15, low-end to high-end.
    pub const FIG15_SWEEP: [MemoryNode; 6] = [
        MemoryNode::Lpddr3_1600,
        MemoryNode::Lpddr3e2133,
        MemoryNode::Lpddr4_3200,
        MemoryNode::Lpddr4x3733,
        MemoryNode::Lpddr4x4267,
        MemoryNode::Hbm2,
    ];

    /// Peak bandwidth of one channel/stack in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        let gb = match self {
            MemoryNode::Lpddr3_1600 | MemoryNode::Ddr3_1600 => 12.8,
            MemoryNode::Lpddr3e2133 => 17.1,
            MemoryNode::Lpddr4_3200 | MemoryNode::Ddr4_3200 => 25.6,
            MemoryNode::Lpddr4x3733 => 29.9,
            MemoryNode::Lpddr4x4267 => 34.1,
            MemoryNode::Hbm2 => 256.0,
            MemoryNode::Hbm3 => 410.0,
        };
        gb * 1e9
    }

    /// Display name matching the paper's axis labels.
    pub fn name(&self) -> &'static str {
        match self {
            MemoryNode::Lpddr3_1600 => "LPDDR3-1600",
            MemoryNode::Lpddr3e2133 => "LPDDR3E-2133",
            MemoryNode::Ddr3_1600 => "DDR3-1600",
            MemoryNode::Lpddr4_3200 => "LPDDR4-3200",
            MemoryNode::Ddr4_3200 => "DDR4-3200",
            MemoryNode::Lpddr4x3733 => "LPDDR4X-3733",
            MemoryNode::Lpddr4x4267 => "LPDDR4X-4267",
            MemoryNode::Hbm2 => "HBM2",
            MemoryNode::Hbm3 => "HBM3",
        }
    }
}

impl fmt::Display for MemoryNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A memory system: a node plus a channel count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    /// The technology node.
    pub node: MemoryNode,
    /// Number of channels (stacks for HBM).
    pub channels: usize,
}

impl MemorySystem {
    /// Single-channel system.
    pub fn single(node: MemoryNode) -> Self {
        Self { node, channels: 1 }
    }

    /// Multi-channel system.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn with_channels(node: MemoryNode, channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        Self { node, channels }
    }

    /// Aggregate bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.node.bandwidth_bytes_per_sec() * self.channels as f64
    }

    /// Bytes transferable per accelerator cycle at `frequency_ghz`.
    pub fn bytes_per_cycle(&self, frequency_ghz: f64) -> f64 {
        self.bandwidth_bytes_per_sec() / (frequency_ghz * 1e9)
    }

    /// Cycles to transfer `bytes` at `frequency_ghz` (ceiling).
    pub fn transfer_cycles(&self, bytes: u64, frequency_ghz: f64) -> u64 {
        (bytes as f64 / self.bytes_per_cycle(frequency_ghz)).ceil() as u64
    }

    /// An effectively infinite memory (the paper's "Ideal" configuration).
    pub fn ideal() -> Self {
        Self { node: MemoryNode::Hbm3, channels: 1_000_000_000 }
    }
}

impl fmt::Display for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.channels == 1 {
            write!(f, "{}", self.node)
        } else {
            write!(f, "{}x{}", self.node, self.channels)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_ordered_by_bandwidth() {
        let sweep = MemoryNode::FIG15_SWEEP;
        for pair in sweep.windows(2) {
            assert!(
                pair[0].bandwidth_bytes_per_sec() < pair[1].bandwidth_bytes_per_sec(),
                "{} !< {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn bytes_per_cycle_at_one_ghz() {
        let m = MemorySystem::single(MemoryNode::Ddr4_3200);
        assert!((m.bytes_per_cycle(1.0) - 25.6).abs() < 1e-9);
        let dual = MemorySystem::with_channels(MemoryNode::Ddr4_3200, 2);
        assert!((dual.bytes_per_cycle(1.0) - 51.2).abs() < 1e-9);
    }

    #[test]
    fn transfer_cycles_round_up() {
        let m = MemorySystem::single(MemoryNode::Ddr4_3200);
        assert_eq!(m.transfer_cycles(0, 1.0), 0);
        assert_eq!(m.transfer_cycles(1, 1.0), 1);
        assert_eq!(m.transfer_cycles(256, 1.0), 10);
    }

    #[test]
    fn ideal_memory_is_effectively_free() {
        let m = MemorySystem::ideal();
        assert_eq!(m.transfer_cycles(1 << 30, 1.0), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemoryNode::Lpddr4x4267.to_string(), "LPDDR4X-4267");
        assert_eq!(
            MemorySystem::with_channels(MemoryNode::Hbm2, 2).to_string(),
            "HBM2x2"
        );
    }
}
