//! The memory system: on-chip buffer sizing, off-chip memory nodes and
//! traffic accounting (§III-F, Table V, Figs. 5/14/15/18).
//!
//! Diffy's off-chip strategy reads each weight and input activation once
//! per layer and writes each output activation at most once per layer,
//! double-buffering row-granular tiles so compute overlaps transfers:
//!
//! * [`offchip`] — the memory technologies of Fig. 15/18 (LPDDR3-1600 up
//!   to HBM2/HBM3, multi-channel) and their bandwidths.
//! * [`traffic`] — per-layer off-chip traffic under every storage scheme,
//!   including the group headers (the "metadata" the paper accounts for).
//! * [`am`] — activation-memory sizing: two complete rows of windows plus
//!   two output rows, measured on the actual (compressed) trace data —
//!   the Table V comparison.
//! * [`wm`] — weight-memory sizing: double-buffered largest per-layer
//!   filter set.
//! * [`overlap`] — the compute/transfer overlap model that turns compute
//!   cycles + traffic into execution time and stall counts.


#![warn(missing_docs)]

pub mod am;
pub mod offchip;
pub mod overlap;
pub mod traffic;
pub mod wm;

pub use offchip::{MemoryNode, MemorySystem};
pub use overlap::{combine, LayerTiming};
pub use traffic::{network_traffic, LayerTraffic};
