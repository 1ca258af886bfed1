//! Static partitioning analysis for shared plans.
//!
//! Data-parallel execution of a shared plan replicates the whole m-op DAG
//! across `n` workers and routes every source tuple to exactly one worker.
//! That is only correct when tuples that must meet in stateful operator
//! state (join/sequence/iterate partners, aggregate group members) are
//! guaranteed to land on the same worker. This module computes, per plan
//! component, whether such a routing exists:
//!
//! * **stateless** — no stateful m-op consumes the component's tuples, so
//!   any distribution (round-robin) preserves per-query result multisets;
//! * **key-partitionable** — every stateful m-op's state is keyed, and the
//!   keys trace back (through selections, projections, and operator
//!   concatenations) to one consistent set of attributes per source, so
//!   hash routing on those attributes co-locates every pair of tuples that
//!   can interact;
//! * **pinned** — no consistent key exists (an unkeyed sequence scan, an
//!   aggregate with no shared group attribute, lost attribute lineage):
//!   the component must run on a single designated worker.
//!
//! A source's route covers every consumer of its tuples: each tuple goes
//! to one worker whole. Stateless sibling queries of a keyed or pinned
//! component ride along with the stateful part — their results do not
//! depend on placement — so adding or removing one never changes a route.
//!
//! The m-op side of the contract is [`PartitionKeys`], reported by every
//! physical implementation through
//! [`MultiOp::partition_keys`](crate::mop::MultiOp::partition_keys);
//! the plan side is attribute *lineage* — which source attribute a stream
//! attribute is a verbatim copy of — computed here from the operator
//! definitions.

use std::collections::{BTreeSet, HashMap};

use rumor_expr::{Expr, Side};
use rumor_types::{MopId, Result, RumorError, SourceId, StreamId, Value};

use crate::logical::OpDef;
use crate::plan::{PlanDelta, PlanGraph};

/// How a physical m-op's state is partitioned over its input attributes —
/// the key introspection report backing the partitioning analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionKeys {
    /// No state at all: outputs depend on each input tuple alone, so the
    /// operator is transparent to any input partitioning.
    Stateless,
    /// State is hash-bucketed by an equi-key: tuples interact only when
    /// their key attribute values match position-wise across ports
    /// (window joins, AI-indexed sequences, keyed iterations). `per_port`
    /// holds one attribute list per input port; the lists are parallel
    /// (position `j` of every port compares equal on interacting tuples).
    Equi {
        /// Key attribute positions per input port, parallel across ports.
        per_port: Vec<Vec<usize>>,
    },
    /// State is grouped: tuples interact exactly when they agree on every
    /// listed attribute (window aggregates). Any hash key drawn from a
    /// subset of these attributes keeps each group on one worker.
    Grouped {
        /// Attribute positions (on the single input port) that every
        /// member's grouping refines.
        group_by: Vec<usize>,
    },
    /// Stateful with no exploitable key structure: correct only when all
    /// input the operator can observe stays on one worker.
    Opaque,
}

/// Partitionability of one connected component of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every m-op reachable from the component's sources is stateless.
    Stateless,
    /// A consistent per-source hash key co-locates all interacting tuples.
    Keyed,
    /// Must execute on a single designated worker.
    Pinned,
}

/// How one source's tuples are routed across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceRoute {
    /// Any worker may take the tuple (stateless consumers only);
    /// round-robin keeps the load even and stays deterministic.
    RoundRobin,
    /// Hash the listed attribute positions of the tuple.
    Key(Vec<usize>),
    /// Always worker 0.
    Pinned,
}

/// One connected component of the plan's source/m-op graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentReport {
    /// Sources in the component, ascending.
    pub sources: Vec<SourceId>,
    /// The component verdict.
    pub verdict: Verdict,
}

/// The partitioning scheme of a plan: a verdict per component and a
/// routing rule per source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionScheme {
    routes: Vec<SourceRoute>,
    components: Vec<ComponentReport>,
}

impl PartitionScheme {
    /// The routing rule for `source`.
    pub fn route(&self, source: SourceId) -> &SourceRoute {
        &self.routes[source.index()]
    }

    /// Routing rules indexed by source.
    pub fn routes(&self) -> &[SourceRoute] {
        &self.routes
    }

    /// The component reports, in first-source order.
    pub fn components(&self) -> &[ComponentReport] {
        &self.components
    }

    /// Number of components with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.components
            .iter()
            .filter(|c| c.verdict == verdict)
            .count()
    }

    /// Whether any component benefits from more than one worker.
    pub fn is_parallelizable(&self) -> bool {
        self.components.iter().any(|c| c.verdict != Verdict::Pinned)
    }

    /// The worker index (out of `n`) for a tuple of `source` with the given
    /// attribute values, given a round-robin cursor for the source. The
    /// cursor is advanced only on round-robin routes.
    pub fn worker_for(
        &self,
        source: SourceId,
        values: &[Value],
        n: usize,
        rr_cursor: &mut usize,
    ) -> usize {
        match &self.routes[source.index()] {
            SourceRoute::Pinned => 0,
            SourceRoute::RoundRobin => {
                let w = *rr_cursor % n;
                *rr_cursor = (*rr_cursor + 1) % n;
                w
            }
            SourceRoute::Key(attrs) => {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                for &a in attrs {
                    values
                        .get(a)
                        .cloned()
                        .unwrap_or(Value::Null)
                        .group_key()
                        .hash(&mut h);
                }
                (h.finish() % n as u64) as usize
            }
        }
    }
}

/// A stream attribute's provenance: the source attribute it is a verbatim
/// copy of, when that is statically known.
type Lineage = Vec<Option<(SourceId, usize)>>;

fn member_output_lineage(
    def: &OpDef,
    inputs: &[StreamId],
    lineage: &[Lineage],
    arity_of: impl Fn(StreamId) -> usize,
) -> Lineage {
    let lin = |s: StreamId| -> &Lineage { &lineage[s.index()] };
    match def {
        OpDef::Select(_) => lin(inputs[0]).clone(),
        OpDef::Project(map) => map
            .outputs
            .iter()
            .map(|ne| match &ne.expr {
                Expr::Col {
                    side: Side::Left,
                    index,
                } => lin(inputs[0]).get(*index).copied().flatten(),
                _ => None,
            })
            .collect(),
        OpDef::Aggregate(spec) => {
            let mut out: Lineage = spec
                .group_by
                .iter()
                .map(|&g| lin(inputs[0]).get(g).copied().flatten())
                .collect();
            out.push(None); // the aggregate value column
            out
        }
        OpDef::Join(_) | OpDef::Sequence(_) => {
            let mut out = lin(inputs[0]).clone();
            out.extend(lin(inputs[1]).iter().copied());
            out
        }
        OpDef::Iterate(spec) => {
            // Emitted tuples are rebound instances; an output attribute is a
            // verbatim source copy only when the rebind map passes the same
            // instance position through unchanged (so the copy survives any
            // number of rebinds).
            let n = arity_of(inputs[0]);
            (0..spec.rebind_map.outputs.len())
                .map(|j| {
                    let keeps = spec.rebind_map.outputs[j].expr
                        == Expr::Col {
                            side: Side::Left,
                            index: j,
                        };
                    if keeps && j < n {
                        lin(inputs[0]).get(j).copied().flatten()
                    } else {
                        None
                    }
                })
                .collect()
        }
    }
}

/// Union-find over source indices.
struct Uf {
    parent: Vec<usize>,
}

impl Uf {
    fn new(n: usize) -> Self {
        Uf {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Computes the partitioning scheme of `plan` from the per-m-op key
/// reports (one entry per live m-op; see
/// [`MultiOp::partition_keys`](crate::mop::MultiOp::partition_keys)).
///
/// The analysis is conservative: any attribute whose lineage is lost, any
/// key spanning several sources, and any disagreement between stateful
/// consumers of the same source pins the whole component.
pub fn analyze(plan: &PlanGraph, reports: &[(MopId, PartitionKeys)]) -> Result<PartitionScheme> {
    analyze_inner(plan, reports, None)
}

/// Incremental re-analysis after a plan mutation: recomputes verdicts and
/// routes only for components the [`PlanDelta`] touched, copying every
/// other component's report and routes verbatim from `prev`.
///
/// A component is *dirty* (recomputed) when its source set is not present
/// in `prev` (the mutation split, grew, or connected components), when it
/// contains an ancestor source of an added or rewired m-op, or — for
/// removals, whose former ancestry the new plan no longer records — when
/// its previous verdict was anything but stateless (removing operators can
/// only relax constraints, and stateless cannot relax further). Under
/// those rules the result is identical to a full [`analyze`]; the clean
/// components just skip the constraint-resolution passes.
pub fn reanalyze(
    plan: &PlanGraph,
    reports: &[(MopId, PartitionKeys)],
    prev: &PartitionScheme,
    delta: &PlanDelta,
) -> Result<PartitionScheme> {
    analyze_inner(plan, reports, Some((prev, delta)))
}

fn analyze_inner(
    plan: &PlanGraph,
    reports: &[(MopId, PartitionKeys)],
    scope: Option<(&PartitionScheme, &PlanDelta)>,
) -> Result<PartitionScheme> {
    let n_sources = plan.sources().len();
    let n_streams = plan.stream_count();
    let order = plan.topo_order()?;

    // --- stream lineage and ancestor-source sets, in topo order ---------
    let mut lineage: Vec<Lineage> = vec![Vec::new(); n_streams];
    let mut ancestors: Vec<BTreeSet<SourceId>> = vec![BTreeSet::new(); n_streams];
    for src in plan.sources() {
        for &s in &src.streams {
            lineage[s.index()] = (0..plan.stream(s).schema.len())
                .map(|i| Some((src.id, i)))
                .collect();
            ancestors[s.index()].insert(src.id);
        }
    }
    for &id in &order {
        let node = plan.mop(id);
        for m in &node.members {
            let out =
                member_output_lineage(&m.def, &m.inputs, &lineage, |s| plan.stream(s).schema.len());
            lineage[m.output.index()] = out;
            let mut anc = BTreeSet::new();
            for &s in &m.inputs {
                anc.extend(ancestors[s.index()].iter().copied());
            }
            ancestors[m.output.index()] = anc;
        }
    }

    // --- per-channel lineage/ancestors: the meet over encoded streams ---
    // (an m-op port observes any stream of its channel, so a key attribute
    // is usable only when every encoded stream agrees on its provenance).
    let channel_info = |ch: crate::plan::ChannelDef| -> (Lineage, BTreeSet<SourceId>) {
        let mut anc = BTreeSet::new();
        let mut lin: Option<Lineage> = None;
        for &s in &ch.streams {
            anc.extend(ancestors[s.index()].iter().copied());
            let sl = &lineage[s.index()];
            lin = Some(match lin {
                None => sl.clone(),
                Some(acc) => acc
                    .iter()
                    .zip(sl.iter().chain(std::iter::repeat(&None)))
                    .map(|(a, b)| if a == b { *a } else { None })
                    .collect(),
            });
        }
        (lin.unwrap_or_default(), anc)
    };

    // --- connected components over sources -------------------------------
    let mut uf = Uf::new(n_sources);
    for &id in &order {
        let node = plan.mop(id);
        let mut all: Option<SourceId> = None;
        for m in &node.members {
            for &s in &m.inputs {
                for &a in &ancestors[s.index()] {
                    match all {
                        None => all = Some(a),
                        Some(first) => uf.union(first.index(), a.index()),
                    }
                }
            }
        }
    }

    // --- incremental scoping (see [`reanalyze`]) -------------------------
    // `clean` maps a component root to the previous report to reuse; only
    // dirty components run the constraint passes below.
    let clean: HashMap<usize, (ComponentReport, Vec<(SourceId, SourceRoute)>)> = match scope {
        None => HashMap::new(),
        Some((prev, delta)) => {
            let mut root_of = vec![0usize; n_sources];
            for (s, r) in root_of.iter_mut().enumerate() {
                *r = uf.find(s);
            }
            let mut sets: HashMap<usize, Vec<SourceId>> = HashMap::new();
            for (s, &root) in root_of.iter().enumerate() {
                sets.entry(root).or_default().push(SourceId::from_index(s));
            }
            let prev_by_set: HashMap<&[SourceId], &ComponentReport> = prev
                .components()
                .iter()
                .map(|c| (c.sources.as_slice(), c))
                .collect();
            let mut touched_roots: BTreeSet<usize> = BTreeSet::new();
            for &id in delta.added.iter().chain(delta.rewired.iter()) {
                if let Some(node) = plan.mop_opt(id) {
                    for m in &node.members {
                        for &s in &m.inputs {
                            for &a in &ancestors[s.index()] {
                                touched_roots.insert(root_of[a.index()]);
                            }
                        }
                    }
                }
            }
            let mut clean = HashMap::new();
            for (root, sources) in sets {
                if touched_roots.contains(&root) {
                    continue;
                }
                let Some(prev_component) = prev_by_set.get(sources.as_slice()) else {
                    continue; // component shape changed: recompute
                };
                // A removal's former ancestry is unrecoverable here;
                // removals only relax constraints, so all-stateless
                // components (nothing left to relax) are provably
                // unchanged and everything else is recomputed.
                if !delta.removed.is_empty() && prev_component.verdict != Verdict::Stateless {
                    continue;
                }
                let routes: Vec<(SourceId, SourceRoute)> = sources
                    .iter()
                    .map(|&s| (s, prev.route(s).clone()))
                    .collect();
                clean.insert(root, ((*prev_component).clone(), routes));
            }
            clean
        }
    };
    let node_scoped = |uf: &mut Uf, node: &crate::plan::MopNode| -> bool {
        if clean.is_empty() {
            return true;
        }
        let mut any = false;
        for m in &node.members {
            for &s in &m.inputs {
                for &a in &ancestors[s.index()] {
                    any = true;
                    if !clean.contains_key(&uf.find(a.index())) {
                        return true;
                    }
                }
            }
        }
        !any // an ancestorless node cannot be proven clean
    };

    // --- constraint resolution -------------------------------------------
    let mut pinned = vec![false; n_sources];
    let mut exact: Vec<Option<Vec<usize>>> = vec![None; n_sources];
    let mut restrict: Vec<Option<BTreeSet<usize>>> = vec![None; n_sources];

    let pin_component = |uf: &mut Uf, pinned: &mut Vec<bool>, srcs: &BTreeSet<SourceId>| {
        for &s in srcs {
            let r = uf.find(s.index());
            pinned[r] = true;
        }
    };

    // Map one port's key attribute list to `(source, attrs)`; `None` pins.
    let port_key = |node: &crate::plan::MopNode,
                    port: usize,
                    attrs: &[usize]|
     -> Option<(SourceId, Vec<usize>)> {
        let ch = plan.channel(node.inputs[port]).clone();
        let (lin, _) = channel_info(ch);
        let mut src: Option<SourceId> = None;
        let mut mapped = Vec::with_capacity(attrs.len());
        for &a in attrs {
            let (s, sa) = (*lin.get(a)?)?;
            match src {
                None => src = Some(s),
                Some(prev) if prev != s => return None,
                _ => {}
            }
            mapped.push(sa);
        }
        src.map(|s| (s, mapped))
    };

    let node_ancestors = |node: &crate::plan::MopNode| -> BTreeSet<SourceId> {
        let mut anc = BTreeSet::new();
        for m in &node.members {
            for &s in &m.inputs {
                anc.extend(ancestors[s.index()].iter().copied());
            }
        }
        anc
    };

    // Pass 1: exact equi keys and opaque pins.
    for (id, report) in reports {
        let Some(node) = plan.mop_opt(*id) else {
            return Err(RumorError::plan(format!("report for retired m-op {id}")));
        };
        if !node_scoped(&mut uf, node) {
            continue;
        }
        match report {
            PartitionKeys::Stateless | PartitionKeys::Grouped { .. } => {}
            PartitionKeys::Opaque => {
                pin_component(&mut uf, &mut pinned, &node_ancestors(node));
            }
            PartitionKeys::Equi { per_port } => {
                let mut ok = per_port.len() == node.inputs.len()
                    && per_port.iter().all(|p| !p.is_empty())
                    && per_port.windows(2).all(|w| w[0].len() == w[1].len());
                if ok {
                    for (p, attrs) in per_port.iter().enumerate() {
                        match port_key(node, p, attrs) {
                            Some((src, mapped)) => {
                                let si = src.index();
                                match &exact[si] {
                                    None => exact[si] = Some(mapped),
                                    Some(prev) if *prev != mapped => {
                                        ok = false;
                                    }
                                    _ => {}
                                }
                            }
                            None => ok = false,
                        }
                        if !ok {
                            break;
                        }
                    }
                }
                if !ok {
                    pin_component(&mut uf, &mut pinned, &node_ancestors(node));
                }
            }
        }
    }

    // Pass 2: grouped constraints (checked after every exact key exists).
    for (id, report) in reports {
        let PartitionKeys::Grouped { group_by } = report else {
            continue;
        };
        let node = plan.mop(*id);
        if !node_scoped(&mut uf, node) {
            continue;
        }
        let ch = plan.channel(node.inputs[0]).clone();
        let (lin, port_anc) = channel_info(ch);
        let mut allowed: HashMap<SourceId, BTreeSet<usize>> = HashMap::new();
        for &g in group_by {
            if let Some(Some((s, sa))) = lin.get(g) {
                allowed.entry(*s).or_default().insert(*sa);
            }
        }
        for &x in &port_anc {
            let ax = allowed.remove(&x).unwrap_or_default();
            let xi = x.index();
            match &exact[xi] {
                Some(key) => {
                    if !key.iter().all(|a| ax.contains(a)) {
                        pin_component(&mut uf, &mut pinned, &port_anc);
                        break;
                    }
                }
                None => {
                    let next = match restrict[xi].take() {
                        None => ax,
                        Some(r) => r.intersection(&ax).copied().collect(),
                    };
                    restrict[xi] = Some(next);
                }
            }
        }
    }

    // Empty grouped intersections pin their component.
    let empty_restrict: Vec<usize> = restrict
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Some(set) if set.is_empty()))
        .map(|(s, _)| s)
        .collect();
    for s in empty_restrict {
        let r = uf.find(s);
        pinned[r] = true;
    }

    // --- verdicts and routes ---------------------------------------------
    let mut by_root: HashMap<usize, Vec<SourceId>> = HashMap::new();
    for s in 0..n_sources {
        let r = uf.find(s);
        by_root.entry(r).or_default().push(SourceId::from_index(s));
    }
    let mut roots: Vec<usize> = by_root.keys().copied().collect();
    roots.sort_unstable();

    let mut routes = vec![SourceRoute::RoundRobin; n_sources];
    let mut components = Vec::with_capacity(roots.len());
    for r in roots {
        let sources = by_root.remove(&r).expect("root listed");
        if let Some((report, prev_routes)) = clean.get(&r) {
            for (s, route) in prev_routes {
                routes[s.index()] = route.clone();
            }
            components.push(report.clone());
            continue;
        }
        let verdict = if pinned[r] {
            Verdict::Pinned
        } else if sources
            .iter()
            .any(|s| exact[s.index()].is_some() || restrict[s.index()].is_some())
        {
            Verdict::Keyed
        } else {
            Verdict::Stateless
        };
        for &s in &sources {
            let si = s.index();
            routes[si] = match verdict {
                Verdict::Pinned => SourceRoute::Pinned,
                Verdict::Stateless => SourceRoute::RoundRobin,
                Verdict::Keyed => {
                    let key = exact[si]
                        .clone()
                        .or_else(|| restrict[si].as_ref().map(|r| r.iter().copied().collect()));
                    match key {
                        Some(key) => SourceRoute::Key(key),
                        // Tuples of this source never reach stateful state.
                        None => SourceRoute::RoundRobin,
                    }
                }
            };
        }
        components.push(ComponentReport { sources, verdict });
    }

    Ok(PartitionScheme { routes, components })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggFunc, AggSpec, LogicalPlan, SeqSpec};
    use rumor_expr::{CmpOp, Predicate};
    use rumor_types::Schema;

    fn stateless_reports(plan: &PlanGraph) -> Vec<(MopId, PartitionKeys)> {
        plan.mops()
            .map(|n| (n.id, PartitionKeys::Stateless))
            .collect()
    }

    #[test]
    fn stateless_plan_is_round_robin() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        let scheme = analyze(&p, &stateless_reports(&p)).unwrap();
        assert_eq!(scheme.components().len(), 1);
        assert_eq!(scheme.components()[0].verdict, Verdict::Stateless);
        assert_eq!(*scheme.route(s), SourceRoute::RoundRobin);
        assert!(scheme.is_parallelizable());
    }

    #[test]
    fn equi_sequence_keys_both_sources() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(3), None).unwrap();
        let t = p.add_source("T", Schema::ints(3), None).unwrap();
        p.add_query(
            &LogicalPlan::source("S")
                .select(Predicate::attr_eq_const(0, 1i64))
                .followed_by(
                    LogicalPlan::source("T"),
                    SeqSpec {
                        predicate: Predicate::cmp(
                            CmpOp::Eq,
                            rumor_expr::Expr::col(1),
                            rumor_expr::Expr::rcol(2),
                        ),
                        window: 10,
                    },
                ),
        )
        .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(_) => PartitionKeys::Equi {
                        per_port: vec![vec![1], vec![2]],
                    },
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components().len(), 1);
        assert_eq!(scheme.components()[0].verdict, Verdict::Keyed);
        // The select preserves lineage, so S keys on attr 1, T on attr 2.
        assert_eq!(*scheme.route(s), SourceRoute::Key(vec![1]));
        assert_eq!(*scheme.route(t), SourceRoute::Key(vec![2]));
    }

    #[test]
    fn opaque_op_pins_component_but_not_others() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(2), None).unwrap();
        let t = p.add_source("T", Schema::ints(2), None).unwrap();
        let u = p.add_source("U", Schema::ints(2), None).unwrap();
        // S;T with an opaque (unkeyed) sequence; U stays stateless.
        p.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::True,
                window: 5,
            },
        ))
        .unwrap();
        p.add_query(&LogicalPlan::source("U").select(Predicate::True))
            .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(_) => PartitionKeys::Opaque,
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.count(Verdict::Pinned), 1);
        assert_eq!(scheme.count(Verdict::Stateless), 1);
        assert_eq!(*scheme.route(s), SourceRoute::Pinned);
        assert_eq!(*scheme.route(t), SourceRoute::Pinned);
        assert_eq!(*scheme.route(u), SourceRoute::RoundRobin);
    }

    #[test]
    fn pinned_component_with_stateless_siblings_routes_whole() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(2), None).unwrap();
        let t = p.add_source("T", Schema::ints(2), None).unwrap();
        // An unkeyed (opaque) sequence pins the S/T component...
        p.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::True,
                window: 5,
            },
        ))
        .unwrap();
        // ...and a purely stateless sibling query on S rides along.
        p.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        // So does a bare tap on S.
        p.add_query(&LogicalPlan::source("S")).unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(_) => PartitionKeys::Opaque,
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components().len(), 1);
        assert_eq!(scheme.components()[0].verdict, Verdict::Pinned);
        // Every S and T tuple goes to worker 0 whole.
        assert_eq!(*scheme.route(s), SourceRoute::Pinned);
        assert_eq!(*scheme.route(t), SourceRoute::Pinned);
        assert!(!scheme.is_parallelizable());
    }

    #[test]
    fn keyed_component_with_stateless_siblings_routes_whole() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(3), None).unwrap();
        let t = p.add_source("T", Schema::ints(3), None).unwrap();
        // An equi-keyed sequence keys the S/T component...
        p.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(
                    CmpOp::Eq,
                    rumor_expr::Expr::col(0),
                    rumor_expr::Expr::rcol(0),
                ),
                window: 10,
            },
        ))
        .unwrap();
        // ...and a purely stateless sibling query on S rides along.
        p.add_query(&LogicalPlan::source("S").select(Predicate::attr_eq_const(1, 1i64)))
            .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(_) => PartitionKeys::Equi {
                        per_port: vec![vec![0], vec![0]],
                    },
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components().len(), 1);
        assert_eq!(scheme.components()[0].verdict, Verdict::Keyed);
        // Every S tuple hashes whole, exactly like T's.
        assert_eq!(*scheme.route(s), SourceRoute::Key(vec![0]));
        assert_eq!(*scheme.route(t), SourceRoute::Key(vec![0]));
        assert!(scheme.is_parallelizable());
        let mut cursor = 0usize;
        let vals = [Value::Int(42), Value::Int(0), Value::Int(0)];
        let w_s = scheme.worker_for(s, &vals, 4, &mut cursor);
        let w_t = scheme.worker_for(t, &vals, 4, &mut cursor);
        assert_eq!(w_s, w_t);
        assert_eq!(cursor, 0, "key hashing must not advance the rr cursor");
    }

    #[test]
    fn whole_component_pin_reported_without_siblings() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        p.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::True,
                window: 5,
            },
        ))
        .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(_) => PartitionKeys::Opaque,
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components().len(), 1);
        assert_eq!(scheme.components()[0].verdict, Verdict::Pinned);
        assert!(!scheme.is_parallelizable());
    }

    #[test]
    fn grouped_aggregate_intersects_group_bys() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(3), None).unwrap();
        let agg = |group_by: Vec<usize>| AggSpec {
            func: AggFunc::Sum,
            input: rumor_expr::Expr::col(2),
            group_by,
            window: 10,
        };
        p.add_query(&LogicalPlan::source("S").aggregate(agg(vec![0, 1])))
            .unwrap();
        p.add_query(&LogicalPlan::source("S").aggregate(agg(vec![0])))
            .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Aggregate(spec) => PartitionKeys::Grouped {
                        group_by: spec.group_by.clone(),
                    },
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components()[0].verdict, Verdict::Keyed);
        // {0,1} ∩ {0} = {0}.
        assert_eq!(*scheme.route(s), SourceRoute::Key(vec![0]));
    }

    #[test]
    fn conflicting_equi_keys_pin() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(3), None).unwrap();
        let t = p.add_source("T", Schema::ints(3), None).unwrap();
        let seq = |l: usize, r: usize| SeqSpec {
            predicate: Predicate::cmp(
                CmpOp::Eq,
                rumor_expr::Expr::col(l),
                rumor_expr::Expr::rcol(r),
            ),
            window: 10,
        };
        p.add_query(&LogicalPlan::source("S").followed_by(LogicalPlan::source("T"), seq(0, 0)))
            .unwrap();
        p.add_query(&LogicalPlan::source("S").followed_by(LogicalPlan::source("T"), seq(1, 1)))
            .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(spec) => {
                        let (keys, _) = spec.predicate.split_equi_join();
                        let (l, r): (Vec<_>, Vec<_>) = keys.into_iter().unzip();
                        PartitionKeys::Equi {
                            per_port: vec![l, r],
                        }
                    }
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components()[0].verdict, Verdict::Pinned);
        assert_eq!(*scheme.route(s), SourceRoute::Pinned);
        assert_eq!(*scheme.route(t), SourceRoute::Pinned);
    }

    #[test]
    fn projection_that_drops_key_lineage_pins() {
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        // π computes a fresh value into attr 0, destroying its lineage,
        // then a sequence keys on it.
        let map = rumor_expr::SchemaMap::new(vec![
            rumor_expr::NamedExpr::new(
                "a0",
                rumor_expr::Expr::col(0).mul(rumor_expr::Expr::lit(2i64)),
            ),
            rumor_expr::NamedExpr::new("a1", rumor_expr::Expr::col(1)),
        ]);
        p.add_query(&LogicalPlan::source("S").project(map).followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(
                    CmpOp::Eq,
                    rumor_expr::Expr::col(0),
                    rumor_expr::Expr::rcol(0),
                ),
                window: 10,
            },
        ))
        .unwrap();
        let reports: Vec<(MopId, PartitionKeys)> = p
            .mops()
            .map(|n| {
                let key = match &n.members[0].def {
                    OpDef::Sequence(_) => PartitionKeys::Equi {
                        per_port: vec![vec![0], vec![0]],
                    },
                    _ => PartitionKeys::Stateless,
                };
                (n.id, key)
            })
            .collect();
        let scheme = analyze(&p, &reports).unwrap();
        assert_eq!(scheme.components()[0].verdict, Verdict::Pinned);
    }

    #[test]
    fn reanalyze_matches_full_analysis_across_churn() {
        // Keyed S/T component + stateless U component; churn on U and on a
        // new keyed pair, with removals — reanalyze must equal analyze at
        // every step while only recomputing dirty components.
        let mut p = PlanGraph::new();
        p.add_source("S", Schema::ints(3), None).unwrap();
        p.add_source("T", Schema::ints(3), None).unwrap();
        p.add_source("U", Schema::ints(3), None).unwrap();
        let reports = |p: &PlanGraph| -> Vec<(MopId, PartitionKeys)> {
            p.mops()
                .map(|n| {
                    let key = match &n.members[0].def {
                        OpDef::Sequence(spec) => {
                            let (keys, _) = spec.predicate.split_equi_join();
                            if keys.is_empty() {
                                PartitionKeys::Opaque
                            } else {
                                let (l, r): (Vec<_>, Vec<_>) = keys.into_iter().unzip();
                                PartitionKeys::Equi {
                                    per_port: vec![l, r],
                                }
                            }
                        }
                        OpDef::Aggregate(spec) => PartitionKeys::Grouped {
                            group_by: spec.group_by.clone(),
                        },
                        _ => PartitionKeys::Stateless,
                    };
                    (n.id, key)
                })
                .collect()
        };
        let seq = LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::cmp(
                    CmpOp::Eq,
                    rumor_expr::Expr::col(0),
                    rumor_expr::Expr::rcol(0),
                ),
                window: 10,
            },
        );
        p.add_query(&seq).unwrap();
        let mut scheme = analyze(&p, &reports(&p)).unwrap();

        // Add a stateless query on U: only U's component is dirty.
        let snap = p.snapshot();
        let qu = p
            .add_query(&LogicalPlan::source("U").select(Predicate::attr_eq_const(0, 1i64)))
            .unwrap();
        let delta = snap.delta(&p);
        let incremental = reanalyze(&p, &reports(&p), &scheme, &delta).unwrap();
        assert_eq!(incremental, analyze(&p, &reports(&p)).unwrap());
        scheme = incremental;

        // Add an aggregate on U (stateless → keyed flip of that component).
        let snap = p.snapshot();
        p.add_query(&LogicalPlan::source("U").aggregate(AggSpec {
            func: AggFunc::Sum,
            input: rumor_expr::Expr::col(2),
            group_by: vec![0],
            window: 5,
        }))
        .unwrap();
        let delta = snap.delta(&p);
        let incremental = reanalyze(&p, &reports(&p), &scheme, &delta).unwrap();
        assert_eq!(incremental, analyze(&p, &reports(&p)).unwrap());
        scheme = incremental;

        // Remove the stateless U query: removal-relaxation path.
        let delta = p.remove_query(qu).unwrap();
        let incremental = reanalyze(&p, &reports(&p), &scheme, &delta).unwrap();
        assert_eq!(incremental, analyze(&p, &reports(&p)).unwrap());
    }

    #[test]
    fn reanalyze_tracks_tap_only_deltas() {
        // An opaque sequence pins S/T. A bare source tap adds/removes NO
        // m-ops — the delta's op lists are empty — and changes no route:
        // reanalyze keeps the scheme exactly as it was, matching full
        // analyze both ways.
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_source("T", Schema::ints(2), None).unwrap();
        p.add_query(&LogicalPlan::source("S").followed_by(
            LogicalPlan::source("T"),
            SeqSpec {
                predicate: Predicate::True,
                window: 5,
            },
        ))
        .unwrap();
        let reports = |p: &PlanGraph| -> Vec<(MopId, PartitionKeys)> {
            p.mops()
                .map(|n| {
                    let key = match &n.members[0].def {
                        OpDef::Sequence(_) => PartitionKeys::Opaque,
                        _ => PartitionKeys::Stateless,
                    };
                    (n.id, key)
                })
                .collect()
        };
        let scheme = analyze(&p, &reports(&p)).unwrap();
        assert_eq!(*scheme.route(s), SourceRoute::Pinned);

        let snap = p.snapshot();
        let q_tap = p.add_query(&LogicalPlan::source("S")).unwrap();
        let delta = snap.delta(&p);
        assert!(delta.added.is_empty() && delta.removed.is_empty() && delta.rewired.is_empty());
        assert_eq!(delta.retapped, vec![s]);
        assert!(!delta.is_empty());
        let incremental = reanalyze(&p, &reports(&p), &scheme, &delta).unwrap();
        assert_eq!(incremental, analyze(&p, &reports(&p)).unwrap());
        assert_eq!(incremental, scheme);

        let delta = p.remove_query(q_tap).unwrap();
        assert_eq!(delta.retapped, vec![s]);
        let back = reanalyze(&p, &reports(&p), &incremental, &delta).unwrap();
        assert_eq!(back, analyze(&p, &reports(&p)).unwrap());
        assert_eq!(back, scheme);
    }

    #[test]
    fn worker_for_routes_deterministically() {
        let mut p = PlanGraph::new();
        let s = p.add_source("S", Schema::ints(2), None).unwrap();
        p.add_query(&LogicalPlan::source("S").select(Predicate::True))
            .unwrap();
        let scheme = analyze(&p, &stateless_reports(&p)).unwrap();
        let mut cursor = 0usize;
        let vals = [Value::Int(1), Value::Int(2)];
        let w0 = scheme.worker_for(s, &vals, 3, &mut cursor);
        let w1 = scheme.worker_for(s, &vals, 3, &mut cursor);
        let w2 = scheme.worker_for(s, &vals, 3, &mut cursor);
        assert_eq!((w0, w1, w2), (0, 1, 2));
    }
}
