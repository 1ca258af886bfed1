//! # rumor-workloads
//!
//! Workload generators reproducing §5 of the paper:
//!
//! * [`params::Params`] — the experimental parameters and defaults of
//!   Table 3.
//! * [`zipf::Zipf`] — the Zipfian sampler used for predicate constants and
//!   window lengths ("favoring larger windows", §5.1).
//! * [`synth`] — the two interleaved synthetic streams S and T (10 integer
//!   attributes, consecutive timestamps, §5.1).
//! * [`workload1`] — `σθ1(S) ;θ2∧θ3 T` (exercises the FR and AN indexes;
//!   Figure 9).
//! * [`workload2`] — `S ;θ1∧θ2 T` and `S µθ1∧θ2,θ3 T` (exercises the AI
//!   index; Figures 10(a,b)).
//! * [`workload3`] — sharable first input streams encoded by a channel
//!   (Figures 10(c,d)).
//! * [`perfmon`] — the simulated performance-counter datasets standing in
//!   for the paper's proprietary D1/D2 traces (§5.3).
//! * [`hybrid`] — the n-instance Query 2 workload over the perfmon data
//!   (Figure 11).
//!
//! Every generator produces *both* RUMOR logical plans and the equivalent
//! Cayuga automata from one description, so the two engines always measure
//! identical query sets.

#![warn(missing_docs)]

pub mod hybrid;
pub mod params;
pub mod perfmon;
pub mod synth;
pub mod workload1;
pub mod workload2;
pub mod workload3;
pub mod zipf;

pub use params::Params;
pub use zipf::Zipf;
