//! Hazard automata: precompiled structural-conflict oracles.
//!
//! Every hot path in this workspace ultimately answers one question:
//! *does an operation issued at residue `r mod T` collide with another
//! issue on the same physical unit?* The reservation-table scan that
//! answers it (`stages × offsets` per query, allocating per stage) is
//! correct but slow, and it is re-run millions of times across a corpus.
//!
//! Classic pipeline theory (Kogge 1981 ch. 5; Bala & Rubin, MICRO '95;
//! Proebsting & Fraser, POPL '94) compiles the table away:
//!
//! * [`CollisionMatrix`] — per class, the **cyclic conflict vector**
//!   `C ∈ {0,1}^T` with bit `d` set iff two issues separated by
//!   `d mod T` on one unit collide on some stage. A pairwise query is a
//!   single bit test. Cross-class entries are trivially `false` because
//!   units are per-class — two operations of different classes never
//!   share a physical unit.
//! * [`HazardAutomaton`] — the matrix for one `(machine, T)`, plus per
//!   class the forbidden-latency closure and the per-unit packing
//!   capacity derived from it (used to tighten `ResMII` before any solver
//!   runs). Construction is memoized per `(machine_fingerprint, T)` in a
//!   process-wide registry ([`HazardAutomaton::for_machine`]), so a
//!   corpus run builds each automaton once and every loop shares it.
//!
//! Two consumers remain: the CP engine of `swp-cpsat`, whose structural
//! propagator prunes domains with the rotated closures and sizes units
//! with the capacities, and [`res_mii`], which the fuzz harness checks
//! against `Machine::t_res`. The cycle-accurate checker of `swp-machine`
//! deliberately does not consult the automata: it scans reservation
//! tables itself, so a wrong matrix cannot fool both the CP engine and
//! the checker that validates its answers. [`stats`] counts matrix
//! probes and registry use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod bits;
mod matrix;
pub mod stats;

pub use automaton::{res_mii, HazardAutomaton};
pub use matrix::CollisionMatrix;
pub use stats::OracleCounters;
