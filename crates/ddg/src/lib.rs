//! Data-dependence graphs (DDGs) for loop scheduling.
//!
//! A DDG describes one loop body: nodes are instructions, edges are
//! dependences `(i, j)` annotated with a *distance* `m_ij` (how many
//! iterations later the dependence lands; 0 = same iteration). Each node
//! carries the latency `d_i` of its result and the function-unit class it
//! executes on.
//!
//! The crate also computes the classic period lower bound from
//! loop-carried dependences,
//! `T_dep = max over cycles C of ⌈Σ_C d_i / Σ_C m_ij⌉`
//! (Reiter 1968), exposed as [`Ddg::t_dep`], together with Tarjan SCCs,
//! cycle enumeration for small graphs, and DOT export.
//!
//! # Example
//!
//! The motivating example of Altman, Govindarajan & Gao (PLDI '95,
//! Figure 1): a self-dependence of distance 1 on a multiply with
//! latency 2 gives `T_dep = 2`.
//!
//! ```
//! use swp_ddg::{Ddg, OpClass};
//!
//! let mut g = Ddg::new();
//! let i2 = g.add_node("i2", OpClass::new(1), 2);
//! g.add_edge(i2, i2, 1).unwrap();
//! assert_eq!(g.t_dep(), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod dot;
mod graph;
mod scc;

pub use bounds::CriticalCycle;
pub use graph::{Ddg, DdgError, Edge, EdgeId, Node, NodeId, OpClass};
pub use scc::scc_ids;
