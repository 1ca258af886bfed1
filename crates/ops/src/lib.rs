//! # rumor-ops
//!
//! Physical m-op implementations for RUMOR.
//!
//! Every m-op kind selected by the rewrite rules (see
//! [`rumor_core::MopKind`]) has an implementation here:
//!
//! * [`naive::NaiveMop`] — the reference: one-by-one execution of the member
//!   operators, exactly the semantics definition of §2.2. Every shared
//!   implementation is property-tested for I/O equivalence against it.
//! * [`select`] — predicate-indexed selection (rule sσ, the FR/AN index
//!   equivalents of §4.3) and channelized selection (rule cσ).
//! * [`project`] — shared and channelized projection (the §3.1 example).
//! * [`aggregate`] — shared window aggregation across group-bys and
//!   windows (rule sα, \[22\]) and shared fragment aggregation over
//!   channels (rule cα, \[15\]).
//! * [`join`] — shared window joins across window lengths (rule s⋈, \[12\])
//!   and precision-sharing joins over channels (rule c⋈, \[14\]).
//! * [`sequence`] — the Cayuga `;` operator with the Active-Instance (AI)
//!   index, shared across queries (rule s;) and channels (rule c;, §4.4).
//! * [`iterate`] — the Cayuga `µ` operator, shared (sµ) and channelized
//!   (cµ, §4.4).
//!
//! [`instantiate`] turns a resolved [`MopContext`] into the matching
//! implementation.

#![warn(missing_docs)]

pub mod aggregate;
pub mod iterate;
pub mod join;
pub mod naive;
pub mod project;
pub mod select;
pub mod sequence;
pub mod single;

mod emitgroup;

pub use emitgroup::OutputGroups;

use rumor_core::{MopContext, MopKind, MultiOp, OpDef};
use rumor_types::Result;

/// Instantiates the physical implementation for a resolved m-op context.
///
/// Single-member `Naive` nodes holding stateful operators (`;`, `µ`, `⋈`,
/// `α`) are instantiated with the shared implementations (with one member):
/// those carry the hash indexes — the AI index in particular — that the
/// Cayuga engine applies per state regardless of how many queries exist, so
/// the single-query baseline stays comparable (§5.2, one-query data
/// points). Semantics are unchanged (the equivalence property tests cover
/// one-member groups).
pub fn instantiate(ctx: &MopContext) -> Result<Box<dyn MultiOp>> {
    if ctx.kind == MopKind::Naive && ctx.members.len() == 1 {
        match &ctx.members[0].def {
            OpDef::Sequence(_) => return Ok(Box::new(sequence::SharedSequence::new(ctx)?)),
            OpDef::Iterate(_) => return Ok(Box::new(iterate::SharedIterate::new(ctx)?)),
            OpDef::Join(_) => return Ok(Box::new(join::SharedJoin::new(ctx)?)),
            OpDef::Aggregate(_) => return Ok(Box::new(aggregate::SharedAggregate::new(ctx)?)),
            _ => {}
        }
    }
    Ok(match ctx.kind {
        MopKind::Naive => Box::new(naive::NaiveMop::new(ctx)?),
        MopKind::IndexedSelect => Box::new(select::IndexedSelect::new(ctx)?),
        MopKind::ChannelSelect => Box::new(select::ChannelSelect::new(ctx)?),
        MopKind::SharedProject => Box::new(project::SharedProject::new(ctx)?),
        MopKind::ChannelProject => Box::new(project::ChannelProject::new(ctx)?),
        MopKind::SharedAggregate => Box::new(aggregate::SharedAggregate::new(ctx)?),
        MopKind::FragmentAggregate => Box::new(aggregate::FragmentAggregate::new(ctx)?),
        MopKind::SharedJoin => Box::new(join::SharedJoin::new(ctx)?),
        MopKind::PrecisionJoin => Box::new(join::PrecisionJoin::new(ctx)?),
        MopKind::SharedSequence => Box::new(sequence::SharedSequence::new(ctx)?),
        MopKind::ChannelSequence => Box::new(sequence::SharedSequence::new_channel(ctx)?),
        MopKind::SharedIterate => Box::new(iterate::SharedIterate::new(ctx)?),
        MopKind::ChannelIterate => Box::new(iterate::SharedIterate::new_channel(ctx)?),
    })
}
