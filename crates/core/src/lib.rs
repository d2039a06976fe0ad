//! Adaptive indexing engines: original database cracking, the stochastic
//! cracking family, and the paper's baselines.
//!
//! This crate is the primary contribution of the reproduction of *Halim,
//! Idreos, Karras, Yap: Stochastic Database Cracking (VLDB 2012)*. It
//! provides, behind the single [`Engine`] interface:
//!
//! | Strategy | Paper section | Type |
//! |---|---|---|
//! | `Scan`, `Sort` | §3 baselines | [`ScanEngine`], [`SortEngine`] |
//! | `Crack` (original cracking) | §2–3 | [`CrackEngine`] |
//! | `DDC`, `DDR` | §4, Fig. 4 | [`DdcEngine`], [`DdrEngine`] |
//! | `DD1C`, `DD1R` | §4 | [`Dd1cEngine`], [`Dd1rEngine`] |
//! | `MDD1R` (a.k.a. `Scrack`) | §4, Fig. 5–6 | [`Mdd1rEngine`] |
//! | `P{x}%` progressive | §4 | [`ProgressiveEngine`] |
//! | FiftyFifty / FlipCoin / ScrackMon / L1-switch | §4 selective | [`SelectiveEngine`] |
//! | `R{N}crack` naive randomizers | §5, Fig. 12 | [`RandomInjectEngine`] |
//!
//! The physical machinery lives in [`CrackedColumn`]; everything above it
//! is thin policy. [`build_engine`] constructs any strategy by
//! [`EngineKind`], and [`Oracle`] supplies ground truth for validation.
//!
//! # Example
//!
//! ```
//! use scrack_core::{build_engine, CrackConfig, EngineKind, Oracle};
//! use scrack_types::QueryRange;
//!
//! let data: Vec<u64> = (0..10_000).rev().collect();
//! let oracle = Oracle::new(&data);
//! let mut engine = build_engine(EngineKind::Mdd1r, data, CrackConfig::default(), 42);
//! let q = QueryRange::new(100, 200);
//! let out = engine.select(q);
//! assert_eq!(out.len(), oracle.count(q));
//! assert_eq!(out.key_checksum(engine.data()), oracle.checksum(q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod config;
mod cracked;
mod engine;
mod engines;
mod factory;
pub mod fault;
mod meta;
mod naive;
mod oracle;
mod selective;

pub use baseline::{ScanEngine, SortEngine};
pub use config::{CrackConfig, UpdatePolicy};
// Re-exported so engine construction sites can name the kernel policy
// without depending on the substrate crate directly.
pub use scrack_partition::KernelPolicy;
pub use cracked::CrackedColumn;
pub use engine::Engine;
pub use engines::{
    CrackEngine, Dd1cEngine, Dd1mEngine, Dd1rEngine, DdcEngine, DdmEngine, DdrEngine, Mdd1mEngine,
    Mdd1rEngine, ProgressiveEngine,
};
pub use factory::{build_engine, EngineKind};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use meta::PieceState;
pub use naive::RandomInjectEngine;
pub use oracle::Oracle;
pub use selective::{SelectiveEngine, SelectivePolicy};
