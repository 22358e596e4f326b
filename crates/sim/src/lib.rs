//! Cycle models for the accelerators the paper evaluates.
//!
//! Four architectures are modelled at tile granularity, all normalized to
//! the same peak throughput (Table IV: 1K equivalent 16×16-bit MACs per
//! cycle at 1 GHz for the default 4-tile configuration):
//!
//! * **VAA** ([`vaa`]) — the value-agnostic baseline (DaDianNao-style,
//!   Fig. 6): 16 inner-product units × 16 MAC lanes per tile; execution
//!   time depends only on layer dimensions.
//! * **PRA** ([`term_serial`] with [`ValueMode::Raw`]) — Bit-Pragmatic
//!   (Fig. 7): term-serial SIPs processing 16 windows concurrently, one
//!   effectual Booth term per lane per cycle; execution time tracks the
//!   effectual content of the *raw* activations, including the cross-lane
//!   synchronization the paper identifies as the main potential/actual
//!   gap (§IV-A).
//! * **Diffy** ([`term_serial`] with [`ValueMode::Differential`]) — PRA
//!   plus differential convolution (Figs. 9/10): all windows except the
//!   leftmost of each row consume *delta* term counts; the DR and
//!   Delta_out engines are overlapped and add no cycles (§III-D/E).
//! * **SCNN** ([`scnn`]) — the sparse accelerator of the Fig. 20
//!   comparison: only nonzero-activation × nonzero-weight products are
//!   executed, on a 1024-multiplier configuration with a utilization
//!   model.
//!
//! [`potential`] computes the work-reduction bounds of Fig. 4 (ALL vs
//! RawE vs ΔE), and [`report`] aggregates per-layer results into
//! network-level summaries.


#![warn(missing_docs)]

pub mod config;
pub mod potential;
pub mod report;
mod scratch;
pub mod scnn;
pub mod stripes;
pub mod temporal;
pub mod term_serial;
pub mod vaa;

pub use config::{AcceleratorConfig, Architecture};
pub use report::{LayerCycles, NetworkCycles};
pub use stripes::{stripes_layer, stripes_network};
pub use temporal::{temporal_network, TemporalMode};
pub use term_serial::{
    selective_network, selective_network_with_terms, term_serial_layer,
    term_serial_layer_reference, term_serial_layer_with_terms, term_serial_network,
    term_serial_network_with_terms, PaddedTerms, ValueMode,
};
pub use vaa::{vaa_layer, vaa_network};
