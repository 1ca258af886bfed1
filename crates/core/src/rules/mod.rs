//! The m-rule framework (§2.3) and the rule-driven optimizer.
//!
//! An m-rule is a pair of *condition* and *action* functions on the query
//! plan. The condition identifies a set of m-ops with a sharing opportunity;
//! the action replaces them with a single target m-op implementing the same
//! members more efficiently. Because a rule's condition formally ranges over
//! the powerset of all m-ops, a practical rule also provides a *grouping*
//! function that partitions candidate m-ops by a hash key in O(n), so the
//! optimizer never enumerates subsets.
//!
//! Conflict resolution (§7 future work, implemented here): rules carry a
//! total priority order, groups are processed deterministically, and every
//! application is recorded in a [`RewriteTrace`] so plans are reproducible.

pub mod catalog;

use std::collections::HashSet;

use rumor_types::{MopId, QueryId, Result};

use crate::cost::{self, SelectivityModel};
use crate::logical::LogicalPlan;
use crate::plan::{PlanDelta, PlanGraph, Producer};
use crate::sharable::Sharability;

/// A multi-query transformation rule.
pub trait MRule: Send + Sync {
    /// Stable rule name (Table 1 uses e.g. `s_sigma`, `c_mu`).
    fn name(&self) -> &'static str;

    /// Priority: lower runs earlier. Establishes the total order that
    /// removes nondeterminism from rule application (§7).
    fn priority(&self) -> u32;

    /// Minimum group size for the action to be worthwhile (1 for
    /// single-query rewrites like predicate pushdown, 2 for merges).
    fn min_group(&self) -> usize {
        2
    }

    /// Partitions candidate m-ops into groups that the condition may accept.
    fn find_groups(&self, plan: &PlanGraph, sharable: &Sharability) -> Vec<Vec<MopId>>;

    /// The condition function: may this exact set of m-ops be merged?
    fn condition(&self, plan: &PlanGraph, sharable: &Sharability, group: &[MopId]) -> bool;

    /// The action function: merges the group, returning the target m-op.
    fn apply(&self, plan: &mut PlanGraph, group: &[MopId]) -> Result<MopId>;

    /// Whether the action encodes streams into channels (the c-rules of
    /// §3.3/§4.4). Channel encoding rewires the compiled context of every
    /// producer and consumer of the encoded streams, so incremental
    /// optimization ([`Optimizer::integrate`]) must check the blast radius
    /// before letting such a rule fire on a live plan.
    fn encodes_channels(&self) -> bool {
        false
    }
}

/// One recorded rule application.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Rule name.
    pub rule: &'static str,
    /// The merged group.
    pub group: Vec<MopId>,
    /// The target m-op produced by the action.
    pub target: MopId,
}

/// The full record of an optimization run.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    /// Applications in order.
    pub entries: Vec<TraceEntry>,
    /// Number of fixpoint passes executed.
    pub passes: usize,
    /// Sharing opportunities an *incremental* run declined, with the
    /// reason (see [`Optimizer::integrate`]): each notes a merge full
    /// re-optimization would have performed but a live hot swap could not,
    /// because it would have disturbed stateful operator state. Empty for
    /// from-scratch [`Optimizer::optimize`] runs.
    pub notes: Vec<String>,
}

impl RewriteTrace {
    /// Number of applications of a given rule.
    pub fn count(&self, rule: &str) -> usize {
        self.entries.iter().filter(|e| e.rule == rule).count()
    }

    /// Records a note, deduplicated: retry loops re-decline the same
    /// (m-op group, reason) every pass, and diagnostics only need each
    /// line once. Returns whether the note was newly added.
    pub fn note(&mut self, line: String) -> bool {
        if self.notes.contains(&line) {
            return false;
        }
        self.notes.push(line);
        true
    }

    /// Whether the incremental run fell short of the full-reoptimization
    /// fixpoint (see [`RewriteTrace::notes`]).
    pub fn fell_back(&self) -> bool {
        !self.notes.is_empty()
    }
}

/// How [`Optimizer::optimize`] chooses among applicable rewrites.
///
/// The rule catalogue is the move generator either way; the strategy
/// decides *which* applicable move commits next. Both strategies reach
/// semantically identical plans (every rule preserves query results —
/// the conformance matrix pins byte-identical outputs across both), but
/// the plans can differ in shape: greedy can lock in a locally-good merge
/// that blocks a better one (e.g. encoding a small stream family into a
/// channel before a larger overlapping family, leaving the large family
/// unmergeable), which a cost-scored search avoids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// The paper's behavior (default): rules run in priority order and
    /// the first applicable rule fires all its groups, then the pass
    /// restarts. Cheapest; order-sensitive only up to the canonical
    /// candidate ordering.
    #[default]
    Greedy,
    /// Cost-based sharing search: every applicable (rule, group)
    /// candidate across the whole catalogue is applied speculatively to a
    /// clone of the plan, the outcome is scored with
    /// [`crate::cost::estimate_with`] (see [`crate::cost::PlanCost::score`]
    /// for the objective; plans that fail to topo-sort score as infinite),
    /// and the best-scoring candidate commits. Repeats until no candidate
    /// remains. Ties break toward the catalogue's priority/canonical
    /// order, so the search degenerates to greedy when the model is
    /// indifferent.
    CostBased {
        /// Scoring depth: `1` scores each candidate's immediate outcome;
        /// `k > 1` additionally plays out `k − 1` best-immediate follow-up
        /// moves on the speculative plan before scoring, so a candidate is
        /// credited for the merges it *enables*. Values are clamped to at
        /// least 1. Cost grows with plan clones per candidate; 2 is a good
        /// default.
        lookahead: usize,
    },
}

/// Optimizer configuration: which rule families run.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Enable single-query rewrites (sequence predicate pushdown).
    pub enable_pushdown: bool,
    /// Enable the same-stream sharing rules (sσ, sπ, sα, s⋈, s;, sµ).
    pub enable_sharing: bool,
    /// Enable the channel rules (cσ, cπ, cα, c⋈, c;, cµ) — §3.3/§4.4.
    pub enable_channels: bool,
    /// Individually disabled rule names (for ablations).
    pub disabled_rules: HashSet<String>,
    /// Fixpoint pass budget.
    pub max_passes: usize,
    /// Run full plan validation after every pass (tests/debug).
    pub validate_each_pass: bool,
    /// How [`Optimizer::optimize`] picks the next rewrite (the search
    /// knob). Defaults to [`SearchStrategy::Greedy`] so existing behavior
    /// is unchanged; see [`OptimizerConfig::cost_based`].
    pub search: SearchStrategy,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            enable_pushdown: true,
            enable_sharing: true,
            enable_channels: true,
            disabled_rules: HashSet::new(),
            max_passes: 64,
            validate_each_pass: cfg!(debug_assertions),
            search: SearchStrategy::Greedy,
        }
    }
}

impl OptimizerConfig {
    /// No optimization at all — the naive one-plan-per-query baseline.
    pub fn unoptimized() -> Self {
        OptimizerConfig {
            enable_pushdown: false,
            enable_sharing: false,
            enable_channels: false,
            ..OptimizerConfig::default()
        }
    }

    /// Sharing rules but no channels — the "W/o Channel" configuration of
    /// Figures 10(c,d) and 11.
    pub fn without_channels() -> Self {
        OptimizerConfig {
            enable_channels: false,
            ..OptimizerConfig::default()
        }
    }

    /// Disables one rule by name (ablations).
    pub fn disable(mut self, rule: &str) -> Self {
        self.disabled_rules.insert(rule.to_string());
        self
    }

    /// The cost-based sharing search with the default lookahead of 2
    /// (each candidate is scored after its best single follow-up move, so
    /// enabling merges counts in its favor). Everything else matches
    /// [`OptimizerConfig::default`].
    pub fn cost_based() -> Self {
        OptimizerConfig {
            search: SearchStrategy::CostBased { lookahead: 2 },
            ..OptimizerConfig::default()
        }
    }
}

/// The rule-driven multi-query optimizer.
pub struct Optimizer {
    rules: Vec<Box<dyn MRule>>,
    config: OptimizerConfig,
    selectivity: SelectivityModel,
}

impl Optimizer {
    /// Builds the optimizer with the standard rule catalogue (Table 1).
    pub fn new(config: OptimizerConfig) -> Self {
        let rules = catalog::standard_rules(&config);
        Optimizer::with_rules(rules, config)
    }

    /// Builds an optimizer over an explicit rule set.
    pub fn with_rules(mut rules: Vec<Box<dyn MRule>>, config: OptimizerConfig) -> Self {
        rules.sort_by_key(|r| r.priority());
        Optimizer {
            rules,
            config,
            selectivity: SelectivityModel::default(),
        }
    }

    /// Calibrates the cost model with measured per-m-op selectivities
    /// (typically `StatsSnapshot::selectivity_model` from the engine).
    /// Affects [`SearchStrategy::CostBased`] scoring and the
    /// refused-merge ranking of [`Optimizer::integrate`]; the greedy path
    /// ignores it.
    pub fn with_selectivity(mut self, model: SelectivityModel) -> Self {
        self.selectivity = model;
        self
    }

    /// Registered rule names in priority order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Runs the rules to fixpoint over the plan, using the configured
    /// [`SearchStrategy`] to choose among applicable rewrites.
    pub fn optimize(&self, plan: &mut PlanGraph) -> Result<RewriteTrace> {
        match self.config.search {
            SearchStrategy::Greedy => self.optimize_greedy(plan),
            SearchStrategy::CostBased { lookahead } => {
                self.optimize_cost_based(plan, lookahead.max(1))
            }
        }
    }

    /// The greedy fixpoint (the paper's driver).
    ///
    /// Each pass recomputes the sharable-streams analysis, then runs the
    /// rules in priority order; the first rule that fires applies *all* its
    /// (disjoint) groups, then the pass restarts so later rules observe the
    /// rewritten plan. Terminates when a full pass fires nothing.
    fn optimize_greedy(&self, plan: &mut PlanGraph) -> Result<RewriteTrace> {
        let mut trace = RewriteTrace::default();
        'passes: for _pass in 0..self.config.max_passes {
            trace.passes += 1;
            let sharable = Sharability::analyze(plan);
            for rule in &self.rules {
                let Some(applicable) = self.applicable(rule.as_ref()) else {
                    continue;
                };
                let groups = rule.find_groups(plan, &sharable);
                let mut fired = false;
                for group in groups {
                    if !applicable(plan, &sharable, &group) {
                        continue;
                    }
                    let target = rule.apply(plan, &group)?;
                    trace.entries.push(TraceEntry {
                        rule: rule.name(),
                        group,
                        target,
                    });
                    fired = true;
                }
                if fired {
                    if self.config.validate_each_pass {
                        plan.validate()?;
                    }
                    continue 'passes;
                }
            }
            return Ok(trace); // full pass fired nothing: fixpoint
        }
        Ok(trace)
    }

    /// The cost-based sharing search (see [`SearchStrategy::CostBased`]).
    ///
    /// One rewrite commits per step: all applicable (rule, group)
    /// candidates are enumerated, each is played out on a clone of the
    /// plan (to `lookahead` moves deep) and scored with the calibrated
    /// cost model, and the best-scoring candidate is applied for real.
    /// Candidates are enumerated in priority/canonical order and a later
    /// candidate must beat the incumbent by a real margin, so ties fall
    /// to the same rewrite greedy would pick.
    fn optimize_cost_based(&self, plan: &mut PlanGraph, lookahead: usize) -> Result<RewriteTrace> {
        let mut trace = RewriteTrace::default();
        // One candidate commits per step; merges strictly shrink the plan
        // and pushdown disables itself, so this budget is a backstop, not
        // a tuning knob.
        let budget = self
            .config
            .max_passes
            .saturating_mul(plan.mop_count().max(4));
        for _step in 0..budget {
            trace.passes += 1;
            let sharable = Sharability::analyze(plan);
            let cands = self.candidates(plan, &sharable);
            if cands.is_empty() {
                break;
            }
            let mut best: Option<(f64, usize)> = None;
            for (i, (rule, group)) in cands.iter().enumerate() {
                let Some(score) = self.score_candidate(plan, *rule, group, lookahead) else {
                    continue;
                };
                if best.is_none_or(|(b, _)| score < b - 1e-9) {
                    best = Some((score, i));
                }
            }
            let Some((_, i)) = best else { break };
            let (rule, group) = cands.into_iter().nth(i).expect("index in range");
            let target = self.rules[rule].apply(plan, &group)?;
            trace.entries.push(TraceEntry {
                rule: self.rules[rule].name(),
                group,
                target,
            });
            if self.config.validate_each_pass {
                plan.validate()?;
            }
        }
        Ok(trace)
    }

    /// Every applicable (rule index, group) pair on the current plan, in
    /// rule-priority order with groups in canonical order.
    fn candidates(&self, plan: &PlanGraph, sharable: &Sharability) -> Vec<(usize, Vec<MopId>)> {
        let mut out = Vec::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            let Some(applicable) = self.applicable(rule.as_ref()) else {
                continue;
            };
            for group in rule.find_groups(plan, sharable) {
                if applicable(plan, sharable, &group) {
                    out.push((ri, group));
                }
            }
        }
        out
    }

    /// The one definition of an applicable rewrite. `None` when `rule` is
    /// disabled; otherwise the per-group check: the group is big enough, no
    /// member has been merged away, and the rule's condition accepts it.
    /// Drivers run the check on each group right before applying it, so
    /// the merged-away test sees every earlier apply of the same pass.
    fn applicable<'r>(
        &self,
        rule: &'r dyn MRule,
    ) -> Option<impl Fn(&PlanGraph, &Sharability, &[MopId]) -> bool + 'r> {
        if self.config.disabled_rules.contains(rule.name()) {
            return None;
        }
        Some(
            move |plan: &PlanGraph, sharable: &Sharability, group: &[MopId]| {
                group.len() >= rule.min_group()
                    && group.iter().all(|&id| plan.mop_opt(id).is_some())
                    && rule.condition(plan, sharable, group)
            },
        )
    }

    /// Applies one candidate to a clone of the plan, optionally plays out
    /// `lookahead − 1` further best-immediate moves, and returns the
    /// resulting score. `None` when the candidate's action fails (it is
    /// simply not in the running this step).
    fn score_candidate(
        &self,
        plan: &PlanGraph,
        rule: usize,
        group: &[MopId],
        lookahead: usize,
    ) -> Option<f64> {
        let mut probe = plan.clone();
        self.rules[rule].apply(&mut probe, group).ok()?;
        for _ in 1..lookahead {
            let sharable = Sharability::analyze(&probe);
            let followups = self.candidates(&probe, &sharable);
            let mut best: Option<(f64, usize, Vec<MopId>)> = None;
            for (ri, g) in followups {
                let mut next = probe.clone();
                if self.rules[ri].apply(&mut next, &g).is_err() {
                    continue;
                }
                let s = score_plan(&next, &self.selectivity);
                if best.as_ref().is_none_or(|(b, _, _)| s < *b - 1e-9) {
                    best = Some((s, ri, g));
                }
            }
            let Some((_, ri, g)) = best else { break };
            self.rules[ri].apply(&mut probe, &g).ok()?;
        }
        Some(score_plan(&probe, &self.selectivity))
    }

    /// Estimated benefit (score reduction) of a rewrite `integrate` had
    /// to decline: the refused-alternative ranking surfaced in
    /// [`RewriteTrace::notes`]. `None` when the speculative application
    /// fails or either plan cannot be scored.
    fn refused_benefit(&self, plan: &PlanGraph, rule: &dyn MRule, group: &[MopId]) -> Option<f64> {
        let before = cost::estimate_with(plan, &self.selectivity).ok()?.score();
        let mut probe = plan.clone();
        rule.apply(&mut probe, group).ok()?;
        let after = cost::estimate_with(&probe, &self.selectivity).ok()?.score();
        Some(before - after)
    }

    /// Merges one *new* query into an already-optimized plan — the
    /// incremental registration story of §1, made a first-class operation.
    ///
    /// Where [`Optimizer::optimize`] re-derives the whole shared plan,
    /// `integrate` registers the query's naive operator chain and then runs
    /// the m-rule catalogue *scoped to the touched region*: a group is only
    /// considered when it contains at least one m-op created by this
    /// integration (the new chain or a merge target derived from it). The
    /// rest of the plan is never restructured, so a compiled runtime can
    /// hot-swap to the result via the returned [`PlanDelta`] with every
    /// untouched operator keeping its state.
    ///
    /// **Fallback.** A merge that would restructure an existing *stateful*
    /// m-op (or re-encode a channel feeding/leaving one) cannot be applied
    /// to a live plan without cold-starting that operator's state, so
    /// `integrate` declines it and records the declined opportunity in
    /// [`RewriteTrace::notes`]. On such workloads the incremental plan may
    /// hold more operators than full re-optimization would produce — the
    /// notes say exactly which merges were skipped and why; re-optimizing
    /// from scratch (a fresh engine over the same queries) reclaims them.
    /// Stateless merges (shared selections, projections, channel encodings
    /// among stateless consumers) are applied exactly as a full run would.
    pub fn integrate(&self, plan: &mut PlanGraph, query: &LogicalPlan) -> Result<Integration> {
        let before = plan.snapshot();
        // Stateful m-ops with (potentially) live runtime state: the
        // integration must leave their compiled contexts bit-identical.
        let protected: HashSet<MopId> = plan
            .mops()
            .filter(|n| n.members.iter().any(|m| !m.def.is_stateless()))
            .map(|n| n.id)
            .collect();
        let query_id = plan.add_query(query)?;
        let mut touched: HashSet<MopId> = plan
            .mops()
            .map(|n| n.id)
            .filter(|&id| !before.contains(id))
            .collect();

        let mut trace = RewriteTrace::default();
        // Refused-alternative ranking: each unique declined merge is
        // scored once (estimated benefit had it been applied) so the best
        // foregone rewrite can be surfaced in the notes.
        let mut refused: Vec<(String, f64)> = Vec::new();
        'passes: for _pass in 0..self.config.max_passes {
            trace.passes += 1;
            let sharable = Sharability::analyze(plan);
            for rule in &self.rules {
                let Some(applicable) = self.applicable(rule.as_ref()) else {
                    continue;
                };
                let groups = rule.find_groups(plan, &sharable);
                let mut fired = false;
                for group in groups {
                    if !group.iter().any(|id| touched.contains(id)) {
                        continue; // outside the touched region
                    }
                    if !applicable(plan, &sharable, &group) {
                        continue;
                    }
                    if let Some(reason) =
                        integration_conflict(plan, rule.as_ref(), &group, &protected)
                    {
                        let newly_declined = trace.note(format!(
                            "{}: declined {:?}: {}",
                            rule.name(),
                            group,
                            reason
                        ));
                        if newly_declined {
                            if let Some(benefit) = self.refused_benefit(plan, rule.as_ref(), &group)
                            {
                                refused.push((format!("{} {:?}", rule.name(), group), benefit));
                            }
                        }
                        continue;
                    }
                    let target = rule.apply(plan, &group)?;
                    touched.insert(target);
                    trace.entries.push(TraceEntry {
                        rule: rule.name(),
                        group,
                        target,
                    });
                    fired = true;
                }
                if fired {
                    if self.config.validate_each_pass {
                        plan.validate()?;
                    }
                    continue 'passes;
                }
            }
            break; // scoped fixpoint
        }
        if let Some((desc, benefit)) = refused
            .into_iter()
            .filter(|(_, b)| b.is_finite())
            .max_by(|a, b| a.1.total_cmp(&b.1))
        {
            trace.note(format!(
                "best refused alternative: {desc} (estimated score reduction {benefit:.3})"
            ));
        }
        let delta = before.delta(plan);
        Ok(Integration {
            query: query_id,
            trace,
            delta,
        })
    }
}

/// Scores a plan under a selectivity model; plans that cannot be scored
/// (no topological order) are infinitely expensive so the search never
/// commits to a broken rewrite.
fn score_plan(plan: &PlanGraph, model: &SelectivityModel) -> f64 {
    cost::estimate_with(plan, model)
        .map(|c| c.score())
        .unwrap_or(f64::INFINITY)
}

/// The outcome of one [`Optimizer::integrate`] call.
#[derive(Debug, Clone)]
pub struct Integration {
    /// The id assigned to the merged-in query.
    pub query: QueryId,
    /// The scoped rewrite record, including any declined merges
    /// ([`RewriteTrace::notes`]).
    pub trace: RewriteTrace,
    /// What the integration changed, for runtime hot-swap.
    pub delta: PlanDelta,
}

/// Why a rule application must not fire during an incremental integration,
/// or `None` when it is safe. Safe means: no *protected* (stateful, live)
/// m-op is merged away, and no channel encoding rewires the compiled
/// context of a protected producer or consumer outside the group.
fn integration_conflict(
    plan: &PlanGraph,
    rule: &dyn MRule,
    group: &[MopId],
    protected: &HashSet<MopId>,
) -> Option<String> {
    if let Some(id) = group.iter().find(|id| protected.contains(id)) {
        return Some(format!(
            "merging would restructure stateful m-op {id} and cold-start its live state"
        ));
    }
    if rule.encodes_channels() {
        // The c-rule action encodes the group's port-0 input streams and
        // the target's output streams into channels; both rewire every
        // producer/consumer of those streams.
        for &id in group {
            let node = plan.mop(id);
            for m in &node.members {
                let mut affected: Vec<MopId> = Vec::new();
                if let Producer::Mop { mop, .. } = plan.stream(m.inputs[0]).producer {
                    affected.push(mop);
                }
                affected.extend(plan.consumers_of(m.inputs[0]).iter().copied());
                affected.extend(plan.consumers_of(m.output).iter().copied());
                if let Some(hit) = affected
                    .iter()
                    .find(|x| protected.contains(x) && !group.contains(x))
                {
                    return Some(format!(
                        "channel encoding would rewire stateful m-op {hit} outside the group"
                    ));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalPlan;
    use rumor_expr::Predicate;
    use rumor_types::Schema;

    #[test]
    fn unoptimized_config_runs_no_rules() {
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        for c in 0..4 {
            plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c as i64)))
                .unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::unoptimized());
        let trace = opt.optimize(&mut plan).unwrap();
        assert!(trace.entries.is_empty());
        assert_eq!(plan.mop_count(), 4);
        // Disabling the one rule that applies has the same effect.
        let opt = Optimizer::new(OptimizerConfig::default().disable("s_sigma"));
        assert_eq!(opt.optimize(&mut plan).unwrap().count("s_sigma"), 0);
        assert_eq!(plan.mop_count(), 4);
    }

    #[test]
    fn incremental_reoptimization_merges_into_existing_mops() {
        // Register + optimize, then register more queries and re-optimize:
        // the new selections must join the existing indexed m-op (the
        // incremental registration story of §1: queries arrive over time).
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        for c in 0..3 {
            plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c as i64)))
                .unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::default());
        opt.optimize(&mut plan).unwrap();
        assert_eq!(plan.mop_count(), 1);

        for c in 3..6 {
            plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c as i64)))
                .unwrap();
        }
        assert_eq!(plan.mop_count(), 4);
        let trace = opt.optimize(&mut plan).unwrap();
        assert_eq!(trace.count("s_sigma"), 1, "new nodes join the old m-op");
        assert_eq!(plan.mop_count(), 1);
        assert_eq!(plan.mops().next().unwrap().members.len(), 6);
        plan.validate().unwrap();
    }

    #[test]
    fn integrate_merges_stateless_query_into_shared_mop() {
        // Incremental integration of a selection must reach the same
        // operator count as full re-optimization: the new selection joins
        // the existing predicate-indexed m-op.
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        for c in 0..3 {
            plan.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c as i64)))
                .unwrap();
        }
        let opt = Optimizer::new(OptimizerConfig::default());
        opt.optimize(&mut plan).unwrap();
        assert_eq!(plan.mop_count(), 1);
        let old_id = plan.mops().next().unwrap().id;

        let outcome = opt
            .integrate(
                &mut plan,
                &LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 9i64)),
            )
            .unwrap();
        assert_eq!(plan.mop_count(), 1, "new selection joined the shared m-op");
        assert_eq!(plan.mops().next().unwrap().members.len(), 4);
        assert_eq!(outcome.trace.count("s_sigma"), 1);
        assert!(!outcome.trace.fell_back());
        // The old m-op was merged away; the target is new.
        assert!(outcome.delta.removed.contains(&old_id));
        assert_eq!(outcome.delta.added.len(), 1);
        plan.validate().unwrap();
    }

    #[test]
    fn integrate_declines_stateful_merge_and_records_why() {
        use crate::logical::SeqSpec;
        let seq = || {
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::True,
                    window: 10,
                },
            )
        };
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        plan.add_source("T", Schema::ints(2), None).unwrap();
        plan.add_query(&seq()).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        opt.optimize(&mut plan).unwrap();
        let stateful: Vec<MopId> = plan.mops().map(|n| n.id).collect();

        // An identical query: full re-optimization would CSE-merge it into
        // the existing (stateful) sequence m-op; integration must decline
        // — the existing op's AI-index state would not survive the merge —
        // and say so in the notes.
        let outcome = opt.integrate(&mut plan, &seq()).unwrap();
        assert!(outcome.trace.fell_back(), "{:?}", outcome.trace.notes);
        assert!(outcome.trace.notes[0].contains("stateful"));
        assert_eq!(plan.mop_count(), 2, "new sequence op stays separate");
        // The existing stateful op was not touched by the delta.
        for id in stateful {
            assert!(!outcome.delta.touches(id));
        }
        plan.validate().unwrap();

        // The oracle check the acceptance criterion names: full
        // re-optimization over the same queries reaches a smaller plan.
        let mut fresh = PlanGraph::new();
        fresh.add_source("S", Schema::ints(2), None).unwrap();
        fresh.add_source("T", Schema::ints(2), None).unwrap();
        fresh.add_query(&seq()).unwrap();
        fresh.add_query(&seq()).unwrap();
        opt.optimize(&mut fresh).unwrap();
        assert_eq!(fresh.mop_count(), 1);
    }

    #[test]
    fn integrate_leaves_unrelated_components_untouched() {
        use crate::logical::SeqSpec;
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        plan.add_source("T", Schema::ints(2), None).unwrap();
        plan.add_source("U", Schema::ints(2), None).unwrap();
        plan.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::True,
                window: 8,
            },
        ))
        .unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        opt.optimize(&mut plan).unwrap();
        let existing: Vec<MopId> = plan.mops().map(|n| n.id).collect();

        let outcome = opt
            .integrate(
                &mut plan,
                &LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)),
            )
            .unwrap();
        assert!(outcome.delta.removed.is_empty());
        assert!(outcome.delta.rewired.is_empty());
        assert_eq!(outcome.delta.added.len(), 1);
        for id in existing {
            assert!(!outcome.delta.touches(id));
        }
        plan.validate().unwrap();
    }

    #[test]
    fn trace_counts() {
        let mut t = RewriteTrace::default();
        t.entries.push(TraceEntry {
            rule: "s_sigma",
            group: vec![],
            target: rumor_types::MopId(0),
        });
        assert_eq!(t.count("s_sigma"), 1);
        assert_eq!(t.count("c_mu"), 0);
    }

    #[test]
    fn trace_notes_deduplicate() {
        let mut t = RewriteTrace::default();
        assert!(t.note("s_seq: declined [op1, op2]: stateful".to_string()));
        assert!(!t.note("s_seq: declined [op1, op2]: stateful".to_string()));
        assert!(t.note("another".to_string()));
        assert_eq!(t.notes.len(), 2);
    }

    /// A rule that keeps firing for a bounded number of passes without
    /// changing anything — stand-in for the churn retry loops that made
    /// `integrate` re-encounter (and re-note) the same declined merge on
    /// every restarted pass.
    struct PassChurner {
        remaining: std::sync::atomic::AtomicUsize,
    }

    impl MRule for PassChurner {
        fn name(&self) -> &'static str {
            "pass_churner"
        }
        fn priority(&self) -> u32 {
            99
        }
        fn min_group(&self) -> usize {
            1
        }
        fn find_groups(&self, plan: &PlanGraph, _: &Sharability) -> Vec<Vec<MopId>> {
            plan.mops().map(|n| vec![n.id]).collect()
        }
        fn condition(&self, _: &PlanGraph, _: &Sharability, _: &[MopId]) -> bool {
            self.remaining.load(std::sync::atomic::Ordering::SeqCst) > 0
        }
        fn apply(&self, _: &mut PlanGraph, group: &[MopId]) -> Result<MopId> {
            self.remaining
                .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            Ok(group[0])
        }
    }

    #[test]
    fn integrate_retry_passes_do_not_duplicate_decline_notes() {
        use crate::logical::SeqSpec;
        let seq = || {
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::True,
                    window: 10,
                },
            )
        };
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        plan.add_source("T", Schema::ints(2), None).unwrap();
        plan.add_query(&seq()).unwrap();
        let config = OptimizerConfig::default();
        Optimizer::new(config.clone()).optimize(&mut plan).unwrap();

        // A rule catalogue whose last rule keeps restarting passes: the
        // stateful decline is re-encountered on every pass and must be
        // recorded once, not once per pass.
        let mut rules = catalog::standard_rules(&config);
        rules.push(Box::new(PassChurner {
            remaining: std::sync::atomic::AtomicUsize::new(3),
        }));
        let opt = Optimizer::with_rules(rules, config);
        let outcome = opt.integrate(&mut plan, &seq()).unwrap();
        assert!(outcome.trace.passes >= 3, "churner kept passes restarting");
        let declines: Vec<&String> = outcome
            .trace
            .notes
            .iter()
            .filter(|n| n.contains("declined"))
            .collect();
        assert_eq!(declines.len(), 1, "{:?}", outcome.trace.notes);
    }

    #[test]
    fn integrate_ranks_best_refused_alternative() {
        use crate::logical::SeqSpec;
        let seq = || {
            LogicalPlan::source("S").followed_by(
                LogicalPlan::source("T"),
                SeqSpec {
                    predicate: Predicate::True,
                    window: 10,
                },
            )
        };
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(2), None).unwrap();
        plan.add_source("T", Schema::ints(2), None).unwrap();
        plan.add_query(&seq()).unwrap();
        let opt = Optimizer::new(OptimizerConfig::default());
        opt.optimize(&mut plan).unwrap();

        let outcome = opt.integrate(&mut plan, &seq()).unwrap();
        assert!(outcome.trace.fell_back());
        let ranking = outcome
            .trace
            .notes
            .iter()
            .find(|n| n.starts_with("best refused alternative"))
            .expect("refused-merge ranking note");
        assert!(ranking.contains("s_seq"), "{ranking}");
        assert!(
            ranking.contains("score reduction"),
            "benefit surfaced: {ranking}"
        );
    }

    /// The workload where greedy locks itself out: two aggregate families
    /// over overlapping select outputs. Canonical ordering makes greedy
    /// channel-encode the *small* family first, leaving the large family
    /// spanning two channels — permanently unmergeable. The cost-based
    /// search scores both candidates, commits the large merge first, and
    /// then the small family (now wholly inside the large channel) merges
    /// too.
    fn overlapping_agg_families(small: i64, big: i64) -> PlanGraph {
        use crate::logical::{AggFunc, AggSpec};
        use rumor_expr::Expr;
        let mut plan = PlanGraph::new();
        plan.add_source("S", Schema::ints(3), None).unwrap();
        let agg = |col: usize| AggSpec {
            func: AggFunc::Sum,
            input: Expr::col(col),
            group_by: vec![],
            window: 8,
        };
        for c in 0..small {
            plan.add_query(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, c))
                    .aggregate(agg(1)),
            )
            .unwrap();
        }
        for c in 0..big {
            plan.add_query(
                &LogicalPlan::source("S")
                    .select(Predicate::attr_eq_const(0, c))
                    .aggregate(agg(2)),
            )
            .unwrap();
        }
        plan
    }

    #[test]
    fn cost_based_search_escapes_greedy_channel_lockout() {
        let mut greedy_plan = overlapping_agg_families(3, 5);
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut greedy_plan)
            .unwrap();
        greedy_plan.validate().unwrap();

        let mut cost_plan = overlapping_agg_families(3, 5);
        Optimizer::new(OptimizerConfig::cost_based())
            .optimize(&mut cost_plan)
            .unwrap();
        cost_plan.validate().unwrap();

        assert!(
            cost_plan.mop_count() < greedy_plan.mop_count(),
            "cost-based {} vs greedy {}",
            cost_plan.mop_count(),
            greedy_plan.mop_count()
        );
        assert_eq!(
            cost_plan.mop_count(),
            3,
            "index + two fragment aggregates: {:?}",
            cost_plan.mops().map(|n| n.kind).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cost_based_matches_greedy_on_plain_sharing() {
        let build = || {
            let mut plan = PlanGraph::new();
            plan.add_source("S", Schema::ints(2), None).unwrap();
            for c in 0..8 {
                plan.add_query(
                    &LogicalPlan::source("S").select(Predicate::attr_eq_const(0, c as i64)),
                )
                .unwrap();
            }
            plan
        };
        let mut greedy = build();
        Optimizer::new(OptimizerConfig::default())
            .optimize(&mut greedy)
            .unwrap();
        let mut cost = build();
        Optimizer::new(OptimizerConfig::cost_based())
            .optimize(&mut cost)
            .unwrap();
        assert_eq!(greedy.mop_count(), 1);
        assert_eq!(cost.mop_count(), 1);
        cost.validate().unwrap();
    }
}
