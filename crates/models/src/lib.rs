//! Model zoo and fixed-point inference engine.
//!
//! Implements every network the paper evaluates:
//!
//! * The five CI-DNNs of Table I — DnCNN, FFDNet, IRCNN, JointNet and VDSR
//!   ([`zoo::ci`]).
//! * The classification/detection models of Fig. 19 — AlexNet, VGG16, a
//!   ResNet-18-style stack, FCN_Seg, YOLOv2 and SegNet ([`zoo::classify`]).
//!
//! Since pretrained checkpoints are unavailable offline, weights are
//! generated synthetically ([`weights`]): He-scaled Gaussians with a
//! controllable bias shift that sets the post-ReLU sparsity (used to
//! reproduce VDSR's documented high activation sparsity) and optional
//! magnitude sparsification (used by the SCNN comparison, Fig. 20).
//! DESIGN.md §2 explains why this preserves the behaviour Diffy exploits.
//!
//! The [`inference`] engine executes a [`graph::ModelSpec`] in 16-bit
//! fixed point with per-layer requantization calibration and produces a
//! [`trace::NetworkTrace`] — the per-layer imaps every simulator and
//! compression experiment in this reproduction consumes.


#![warn(missing_docs)]

pub mod float_ref;
pub mod graph;
pub mod inference;
pub mod layer;
pub mod trace;
pub mod weights;
pub mod zoo;

pub use graph::ModelSpec;
pub use inference::run_network;
pub use layer::{ConvSpec, LayerSpec};
pub use trace::{LayerTrace, NetworkTrace};
pub use weights::{NetworkWeights, WeightGen};
pub use zoo::ci::CiModel;
pub use zoo::classify::ClassModel;
