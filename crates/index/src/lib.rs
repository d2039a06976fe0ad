//! The cracker index: structural knowledge over a cracked column.
//!
//! "A cracking DBMS maintains indexes showing which piece holds which value
//! range, in a tree structure; original cracking uses AVL-trees" (Halim et
//! al. 2012, §3; Idreos et al., CIDR 2007). This crate provides:
//!
//! * [`CrackerIndex`] — the piece-oriented view: given a key, find the
//!   piece `[start, end)` of the column that can contain it, together
//!   with the piece's value bounds and metadata. The engines always run
//!   it on the flat representation; [`IndexPolicy`] selects the AVL tree
//!   for differential tests and the piece-lookup microbenchmark;
//! * [`AvlTree`] — the paper's structure: a from-scratch, arena-based AVL
//!   tree mapping crack values (`u64`) to array positions, kept as the
//!   reference the flat index is tested against;
//! * [`FlatIndex`] — the cache-conscious production index: crack keys
//!   and positions in sorted parallel arrays (with a small
//!   insert-absorbing delta buffer), lower-bound searched over
//!   contiguous memory, metadata in a stable arena.
//!
//! Both representations produce bit-identical piece semantics (pinned by
//! the index-layer differential property test); the flat one wins on
//! lookup locality at every measured crack count.
//!
//! A crack `(v, p)` asserts: positions `< p` hold keys `< v`, positions
//! `>= p` hold keys `>= v`. Pieces are the gaps between consecutive cracks.
//! Per-piece metadata carries the crack counters of selective stochastic
//! cracking (ScrackMon) and the in-flight partition jobs of progressive
//! cracking; metadata is inherited across piece splits via [`PieceMeta`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avl;
mod flat;
mod index;

pub use avl::{AscIter, AvlTree, IdIter, NodeId};
pub use flat::{count_le, FlatAscIter, FlatIndex, FlatTripleIter, DELTA_CAP};
pub use index::{CrackIter, CrackerIndex, IndexPolicy, Piece, PieceIter, PieceMeta};
