//! # rumor-core
//!
//! The core of RUMOR — the rule-based multi-query optimization framework of
//! Hong et al. (*Rule-Based Multi-Query Optimization*, EDBT 2009).
//!
//! RUMOR extends three abstractions of traditional stream engines (Table 2
//! of the paper):
//!
//! | traditional          | RUMOR                       | here |
//! |----------------------|-----------------------------|------|
//! | physical operator    | physical multi-operator     | [`plan::MopNode`], [`mop::MultiOp`] |
//! | transformation rule  | m-rule                      | [`rules::MRule`], [`rules::catalog`] |
//! | stream               | channel                     | [`plan::ChannelDef`], [`channel::ChannelTuple`] |
//!
//! A single [`plan::PlanGraph`] implements *all* registered continuous
//! queries. The [`rules::Optimizer`] applies the m-rule catalogue (Table 1)
//! to fixpoint, merging operators that can share state and computation —
//! predicate indexing, shared aggregation, shared joins, common
//! subexpression elimination for the event operators `;` and `µ`, and the
//! channel-based sharing of §3/§4.4. Physical implementations of the shared
//! m-ops live in the `rumor-ops` crate; the push-based scheduler lives in
//! `rumor-engine`.

#![warn(missing_docs)]

pub mod channel;
pub mod cost;
pub mod logical;
pub mod mop;
pub mod partition;
pub mod plan;
pub mod render;
pub mod rules;
pub mod sharable;

pub use channel::ChannelTuple;
pub use cost::{
    estimate as estimate_cost, estimate_with as estimate_cost_with, MopCost, PlanCost,
    SelectivityModel,
};
pub use logical::{AggFunc, AggSpec, IterSpec, JoinSpec, LogicalPlan, OpDef, SeqSpec};
pub use mop::{CountingEmit, Emit, MemberCtx, MopContext, MultiOp, VecEmit};
pub use partition::{
    analyze as analyze_partitioning, reanalyze as reanalyze_partitioning, ComponentReport,
    PartitionKeys, PartitionScheme, SourceRoute, Verdict,
};
pub use plan::{
    ChannelDef, Member, MopKind, MopNode, PlanDelta, PlanGraph, PlanSnapshot, Producer, SourceDef,
    StreamDef,
};
pub use rules::{
    Integration, MRule, Optimizer, OptimizerConfig, RewriteTrace, SearchStrategy, TraceEntry,
};
pub use sharable::{Sharability, SigId};
