//! `asteria-nn` — a minimal, dependency-light neural-network substrate.
//!
//! The Asteria paper builds its Tree-LSTM on PyTorch. This crate is the
//! reproduction's PyTorch substitute: a dense [`Tensor`] type, a tape-based
//! reverse-mode autodiff [`Graph`], the [`Embedding`] layer, and the
//! optimizers the paper and its baselines need ([`AdaGrad`] for Asteria,
//! [`Adam`] for the Gemini baseline).
//!
//! The tape is rebuilt per example, which is what dynamic tree-shaped models
//! require — the paper itself notes that Tree-LSTM computation "depends on
//! the shape of the AST" and forces batch size 1 (§IV-A).
//!
//! # Examples
//!
//! Train `y = sigmoid(w·x)` toward 1 with AdaGrad:
//!
//! ```
//! use asteria_nn::{AdaGrad, Graph, Optimizer, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::zeros(1, 2));
//! let mut opt = AdaGrad::new(0.1);
//! for _ in 0..50 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let wn = g.param(&store, w);
//!     let x = g.input(Tensor::column(&[1.0, -1.0]));
//!     let y = g.matvec(wn, x);
//!     let p = g.sigmoid(y);
//!     let loss = g.bce_loss(p, Tensor::scalar(1.0));
//!     g.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gradcheck;
mod graph;
mod layers;
mod optim;
mod params;
mod tensor;

pub use graph::{Graph, NodeId};
pub use layers::Embedding;
pub use optim::{AdaGrad, Adam, Optimizer};
pub use params::{Fnv, ParamId, ParamStore};
pub use tensor::{ColMajor, Tensor};
