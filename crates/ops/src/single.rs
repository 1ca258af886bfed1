//! Single-operator executors: the textbook implementations of each physical
//! operator, used both as the members of [`crate::naive::NaiveMop`] (the
//! reference semantics of §2.2) and as building blocks elsewhere.
//!
//! Executors receive plain [`Tuple`]s (decoding is the caller's job) and
//! append plain output tuples to a caller-provided buffer (encoding is the
//! caller's job too).

use std::collections::{BTreeMap, HashMap, VecDeque};

use rumor_core::logical::{AggFunc, AggSpec, IterSpec, JoinSpec, OpDef, SeqSpec};
use rumor_expr::{EvalCtx, Predicate, SchemaMap};
use rumor_types::{OrdValue, Timestamp, Tuple, Value, ValueKey};

/// Concatenates two tuples with an explicit output timestamp.
pub fn concat_with_ts(left: &Tuple, right: &Tuple, ts: Timestamp) -> Tuple {
    let mut values = Vec::with_capacity(left.arity() + right.arity());
    values.extend_from_slice(left.values());
    values.extend_from_slice(right.values());
    Tuple::new(ts, values)
}

/// Extracts the group-by key of a tuple.
pub fn group_key(tuple: &Tuple, group_by: &[usize]) -> Vec<ValueKey> {
    group_by
        .iter()
        .map(|&i| tuple.value(i).cloned().unwrap_or(Value::Null).group_key())
        .collect()
}

/// A single-operator executor.
pub enum SingleOp {
    /// Selection.
    Select(SelectExec),
    /// Projection.
    Project(ProjectExec),
    /// Window aggregation.
    Aggregate(AggExec),
    /// Window join.
    Join(JoinExec),
    /// Cayuga sequence.
    Sequence(SeqExec),
    /// Cayuga iteration.
    Iterate(IterExec),
}

impl SingleOp {
    /// Builds the executor for an operator definition.
    pub fn new(def: &OpDef) -> SingleOp {
        match def {
            OpDef::Select(p) => SingleOp::Select(SelectExec::new(p.clone())),
            OpDef::Project(m) => SingleOp::Project(ProjectExec::new(m.clone())),
            OpDef::Aggregate(spec) => SingleOp::Aggregate(AggExec::new(spec.clone())),
            OpDef::Join(spec) => SingleOp::Join(JoinExec::new(spec.clone())),
            OpDef::Sequence(spec) => SingleOp::Sequence(SeqExec::new(spec.clone())),
            OpDef::Iterate(spec) => SingleOp::Iterate(IterExec::new(spec.clone())),
        }
    }

    /// Processes one input tuple on `port`, appending outputs to `out`.
    pub fn process(&mut self, port: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        match self {
            SingleOp::Select(e) => e.process(tuple, out),
            SingleOp::Project(e) => e.process(tuple, out),
            SingleOp::Aggregate(e) => e.process(tuple, out),
            SingleOp::Join(e) => e.process(port, tuple, out),
            SingleOp::Sequence(e) => e.process(port, tuple, out),
            SingleOp::Iterate(e) => e.process(port, tuple, out),
        }
    }
}

// ----------------------------------------------------------------------
// Selection / projection
// ----------------------------------------------------------------------

/// σ: emits input tuples satisfying the predicate.
pub struct SelectExec {
    predicate: Predicate,
}

impl SelectExec {
    /// Creates the executor.
    pub fn new(predicate: Predicate) -> Self {
        SelectExec { predicate }
    }

    /// Processes one tuple.
    pub fn process(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        if self.predicate.eval(&EvalCtx::unary(tuple)) {
            out.push(tuple.clone());
        }
    }
}

/// π: applies the schema map to every tuple.
pub struct ProjectExec {
    map: SchemaMap,
}

impl ProjectExec {
    /// Creates the executor.
    pub fn new(map: SchemaMap) -> Self {
        ProjectExec { map }
    }

    /// Processes one tuple.
    pub fn process(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        out.push(self.map.apply_unary(tuple));
    }
}

// ----------------------------------------------------------------------
// Window aggregation
// ----------------------------------------------------------------------

/// Incrementally maintained aggregate state of one group.
///
/// A state that empties must be replaced by a fresh one (as [`AggExec`]
/// drops an empty group): `sum_float` and `all_int` are not restored by
/// removals, so only a fresh state keeps results bit-identical.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Number of tuples in the group (COUNT, and AVG's denominator).
    pub count: usize,
    /// Number of non-null aggregated values.
    pub value_count: usize,
    /// Integer sum (valid while `all_int`).
    pub sum_int: i64,
    /// Float sum (always maintained for coerced results).
    pub sum_float: f64,
    /// Whether every non-null input so far was an integer.
    pub all_int: bool,
    /// Multiset of values for MIN/MAX under eviction; empty for COUNT, SUM
    /// and AVG, which never pay for it.
    pub values: BTreeMap<OrdValue, usize>,
    ordered: bool,
}

impl GroupState {
    /// Fresh, empty state for `func`.
    pub fn new(func: AggFunc) -> Self {
        GroupState {
            count: 0,
            value_count: 0,
            sum_int: 0,
            sum_float: 0.0,
            all_int: true,
            values: BTreeMap::new(),
            ordered: matches!(func, AggFunc::Min | AggFunc::Max),
        }
    }

    /// Adds a tuple's aggregated value.
    pub fn add(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Null => return,
            Value::Int(i) => {
                self.sum_int = self.sum_int.wrapping_add(*i);
                self.sum_float += *i as f64;
            }
            other => {
                self.all_int = false;
                if let Some(f) = other.as_float() {
                    self.sum_float += f;
                }
            }
        }
        self.value_count += 1;
        if self.ordered {
            *self.values.entry(OrdValue(v.clone())).or_insert(0) += 1;
        }
    }

    /// Removes a previously added value (window eviction).
    pub fn remove(&mut self, v: &Value) {
        self.count -= 1;
        if !v.is_null() {
            self.value_count -= 1;
            if let Value::Int(i) = v {
                self.sum_int = self.sum_int.wrapping_sub(*i);
            }
            if let Some(f) = v.as_float() {
                self.sum_float -= f;
            }
            if self.ordered {
                let key = OrdValue(v.clone());
                if let Some(n) = self.values.get_mut(&key) {
                    *n -= 1;
                    if *n == 0 {
                        self.values.remove(&key);
                    }
                }
            }
        }
    }

    /// True when no tuples remain.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The current aggregate value.
    pub fn result(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.value_count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum_int)
                } else {
                    Value::Float(self.sum_float)
                }
            }
            AggFunc::Avg => {
                if self.value_count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_float / self.value_count as f64)
                }
            }
            AggFunc::Min => self
                .values
                .keys()
                .next()
                .map(|k| k.0.clone())
                .unwrap_or(Value::Null),
            AggFunc::Max => self
                .values
                .keys()
                .next_back()
                .map(|k| k.0.clone())
                .unwrap_or(Value::Null),
        }
    }

    /// Merges another state into this one (fragment combination, \[15\]).
    /// Only sound for states over disjoint tuple sets.
    pub fn merge_from(&mut self, other: &GroupState) {
        self.count += other.count;
        self.value_count += other.value_count;
        self.sum_int = self.sum_int.wrapping_add(other.sum_int);
        self.sum_float += other.sum_float;
        self.all_int &= other.all_int;
        if self.ordered {
            for (k, n) in &other.values {
                *self.values.entry(k.clone()).or_insert(0) += n;
            }
        }
    }
}

/// α: time-based sliding-window aggregation with group-by. On each input
/// tuple at `now`, evicts every tuple with `ts < now - window` (all of
/// them when `window = 0`), folds the new one in, and emits the refreshed
/// aggregate of the tuple's group — the window is `[now - window, now]`.
pub struct AggExec {
    spec: AggSpec,
    window: VecDeque<(Timestamp, Vec<ValueKey>, Value)>,
    groups: HashMap<Vec<ValueKey>, GroupState>,
}

impl AggExec {
    /// Creates the executor.
    pub fn new(spec: AggSpec) -> Self {
        AggExec {
            spec,
            window: VecDeque::new(),
            groups: HashMap::new(),
        }
    }

    fn evict(&mut self, now: Timestamp) {
        while let Some((ts, _, _)) = self.window.front() {
            if now.saturating_sub(self.spec.window) > *ts || self.spec.window == 0 {
                let (_, key, v) = self.window.pop_front().expect("checked front");
                let g = self.groups.get_mut(&key).expect("group for windowed tuple");
                g.remove(&v);
                if g.is_empty() {
                    self.groups.remove(&key);
                }
            } else {
                break;
            }
        }
    }

    /// Processes one tuple: emits the refreshed `(group attrs..., agg)` row.
    pub fn process(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        self.evict(tuple.ts);
        let key = group_key(tuple, &self.spec.group_by);
        let v = self.spec.input.eval(&EvalCtx::unary(tuple));
        self.window.push_back((tuple.ts, key.clone(), v.clone()));
        let func = self.spec.func;
        let g = self
            .groups
            .entry(key)
            .or_insert_with(|| GroupState::new(func));
        g.add(&v);
        let result = g.result(func);
        let mut values = Vec::with_capacity(self.spec.group_by.len() + 1);
        for &i in &self.spec.group_by {
            values.push(tuple.value(i).cloned().unwrap_or(Value::Null));
        }
        values.push(result);
        out.push(Tuple::new(tuple.ts, values));
    }
}

// ----------------------------------------------------------------------
// Window join
// ----------------------------------------------------------------------

/// ⋈: sliding-window join. Two tuples join iff their timestamps differ by
/// at most the window and the predicate holds; output is the concatenation
/// stamped with the later timestamp. This reference executor scans state
/// linearly; the shared implementations use hash indexes.
pub struct JoinExec {
    spec: JoinSpec,
    left: VecDeque<Tuple>,
    right: VecDeque<Tuple>,
}

impl JoinExec {
    /// Creates the executor.
    pub fn new(spec: JoinSpec) -> Self {
        JoinExec {
            spec,
            left: VecDeque::new(),
            right: VecDeque::new(),
        }
    }

    /// Processes a tuple arriving on `port` (0 = left, 1 = right).
    pub fn process(&mut self, port: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        let horizon = tuple.ts.saturating_sub(self.spec.window);
        while self.left.front().is_some_and(|t| t.ts < horizon) {
            self.left.pop_front();
        }
        while self.right.front().is_some_and(|t| t.ts < horizon) {
            self.right.pop_front();
        }
        if port == 0 {
            for r in &self.right {
                if self.spec.predicate.eval(&EvalCtx::binary(tuple, r)) {
                    out.push(concat_with_ts(tuple, r, tuple.ts));
                }
            }
            self.left.push_back(tuple.clone());
        } else {
            for l in &self.left {
                if self.spec.predicate.eval(&EvalCtx::binary(l, tuple)) {
                    out.push(concat_with_ts(l, tuple, tuple.ts));
                }
            }
            self.right.push_back(tuple.clone());
        }
    }
}

// ----------------------------------------------------------------------
// Cayuga sequence (;)
// ----------------------------------------------------------------------

/// `;`: every left tuple becomes an instance; a right event matches an
/// instance iff the instance is strictly older, within the duration window,
/// and the predicate holds on (instance, event). A match emits the
/// concatenation and deletes the instance (§5.2 deletion semantics).
pub struct SeqExec {
    spec: SeqSpec,
    instances: VecDeque<Tuple>,
}

impl SeqExec {
    /// Creates the executor.
    pub fn new(spec: SeqSpec) -> Self {
        SeqExec {
            spec,
            instances: VecDeque::new(),
        }
    }

    /// Processes a tuple arriving on `port` (0 = instance, 1 = event).
    pub fn process(&mut self, port: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        if port == 0 {
            self.instances.push_back(tuple.clone());
            return;
        }
        let horizon = tuple.ts.saturating_sub(self.spec.window);
        while self.instances.front().is_some_and(|i| i.ts < horizon) {
            self.instances.pop_front();
        }
        let mut survivors = VecDeque::with_capacity(self.instances.len());
        for inst in self.instances.drain(..) {
            let matched =
                inst.ts < tuple.ts && self.spec.predicate.eval(&EvalCtx::binary(&inst, tuple));
            if matched {
                out.push(concat_with_ts(&inst, tuple, tuple.ts));
            } else {
                survivors.push_back(inst);
            }
        }
        self.instances = survivors;
    }
}

// ----------------------------------------------------------------------
// Cayuga iteration (µ)
// ----------------------------------------------------------------------

/// One µ instance: the pattern-in-progress plus its birth timestamp (the
/// duration window is anchored at the instance's first event).
#[derive(Debug, Clone)]
pub struct IterInstance {
    /// Timestamp of the left event that started the pattern.
    pub start_ts: Timestamp,
    /// Current instance tuple (schema = left input schema).
    pub tuple: Tuple,
}

/// `µ`: iterative sequence. Left tuples create instances; for each right
/// event and live, strictly older instance:
///
/// * filter predicate θf true  → the instance survives unchanged;
/// * rebind predicate θr true  → the rebind map produces the updated
///   instance, which is stored **and emitted**;
/// * both true                 → non-determinism: the instance duplicates
///   and traverses both edges (§4.2);
/// * neither                   → the instance is deleted.
pub struct IterExec {
    spec: IterSpec,
    instances: Vec<IterInstance>,
}

impl IterExec {
    /// Creates the executor.
    pub fn new(spec: IterSpec) -> Self {
        IterExec {
            spec,
            instances: Vec::new(),
        }
    }

    /// Processes a tuple arriving on `port` (0 = instance, 1 = event).
    pub fn process(&mut self, port: usize, tuple: &Tuple, out: &mut Vec<Tuple>) {
        if port == 0 {
            self.instances.push(IterInstance {
                start_ts: tuple.ts,
                tuple: tuple.clone(),
            });
            return;
        }
        let horizon = tuple.ts.saturating_sub(self.spec.window);
        let mut next = Vec::with_capacity(self.instances.len());
        for inst in self.instances.drain(..) {
            if inst.start_ts < horizon {
                continue; // duration window expired
            }
            if inst.start_ts >= tuple.ts {
                // Same-timestamp (or future) instances are untouched: an
                // event never iterates the instance it just created.
                next.push(inst);
                continue;
            }
            let ctx = EvalCtx::binary(&inst.tuple, tuple);
            let f = self.spec.filter.eval(&ctx);
            let r = self.spec.rebind.eval(&ctx);
            if f {
                next.push(inst.clone());
            }
            if r {
                let rebound = self.spec.rebind_map.apply_binary(&inst.tuple, tuple);
                out.push(rebound.clone());
                next.push(IterInstance {
                    start_ts: inst.start_ts,
                    tuple: rebound,
                });
            }
            // neither f nor r: dropped.
        }
        self.instances = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_expr::{CmpOp, Expr, NamedExpr};

    fn run_unary(op: &mut SingleOp, inputs: &[Tuple]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for t in inputs {
            op.process(0, t, &mut out);
        }
        out
    }

    #[test]
    fn select_filters() {
        let mut op = SingleOp::new(&OpDef::Select(Predicate::attr_eq_const(0, 1i64)));
        let out = run_unary(
            &mut op,
            &[
                Tuple::ints(0, &[1]),
                Tuple::ints(1, &[2]),
                Tuple::ints(2, &[1]),
            ],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 0);
        assert_eq!(out[1].ts, 2);
    }

    #[test]
    fn project_maps() {
        let map = SchemaMap::new(vec![NamedExpr::new("x", Expr::col(0).add(Expr::lit(1i64)))]);
        let mut op = SingleOp::new(&OpDef::Project(map));
        let out = run_unary(&mut op, &[Tuple::ints(5, &[10])]);
        assert_eq!(out[0], Tuple::ints(5, &[11]));
    }

    #[test]
    fn aggregate_sliding_sum() {
        let spec = AggSpec {
            func: AggFunc::Sum,
            input: Expr::col(1),
            group_by: vec![0],
            window: 2,
        };
        let mut op = SingleOp::new(&OpDef::Aggregate(spec));
        // Group 7: values 10 @0, 20 @1, 30 @3 (window 2 keeps ts in [t-2, t]).
        let out = run_unary(
            &mut op,
            &[
                Tuple::ints(0, &[7, 10]),
                Tuple::ints(1, &[7, 20]),
                Tuple::ints(3, &[7, 30]),
            ],
        );
        assert_eq!(out[0], Tuple::ints(0, &[7, 10]));
        assert_eq!(out[1], Tuple::ints(1, &[7, 30]));
        // At ts=3 the ts=0 tuple (10) has expired; 20 (ts=1) remains.
        assert_eq!(out[2], Tuple::ints(3, &[7, 50]));
    }

    #[test]
    fn aggregate_group_isolation() {
        let spec = AggSpec {
            func: AggFunc::Count,
            input: Expr::col(0),
            group_by: vec![0],
            window: 100,
        };
        let mut op = SingleOp::new(&OpDef::Aggregate(spec));
        let out = run_unary(
            &mut op,
            &[
                Tuple::ints(0, &[1]),
                Tuple::ints(1, &[2]),
                Tuple::ints(2, &[1]),
            ],
        );
        assert_eq!(out[0], Tuple::ints(0, &[1, 1]));
        assert_eq!(out[1], Tuple::ints(1, &[2, 1]));
        assert_eq!(out[2], Tuple::ints(2, &[1, 2]));
    }

    #[test]
    fn aggregate_min_max_under_eviction() {
        let spec = AggSpec {
            func: AggFunc::Max,
            input: Expr::col(0),
            group_by: vec![],
            window: 2,
        };
        let mut op = SingleOp::new(&OpDef::Aggregate(spec));
        let out = run_unary(
            &mut op,
            &[
                Tuple::ints(0, &[9]),
                Tuple::ints(1, &[5]),
                Tuple::ints(3, &[1]), // 9 expired; max of {5, 1} = 5
            ],
        );
        assert_eq!(out[2].value(0), Some(&Value::Int(5)));
    }

    #[test]
    fn avg_is_float() {
        let spec = AggSpec {
            func: AggFunc::Avg,
            input: Expr::col(0),
            group_by: vec![],
            window: 10,
        };
        let mut op = SingleOp::new(&OpDef::Aggregate(spec));
        let out = run_unary(&mut op, &[Tuple::ints(0, &[1]), Tuple::ints(1, &[2])]);
        assert_eq!(out[1].value(0), Some(&Value::Float(1.5)));
    }

    #[test]
    fn join_within_window() {
        let spec = JoinSpec {
            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            window: 3,
        };
        let mut op = SingleOp::new(&OpDef::Join(spec));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(0, &[7, 1]), &mut out); // left
        op.process(1, &Tuple::ints(1, &[7, 2]), &mut out); // right: joins
        op.process(1, &Tuple::ints(2, &[8, 3]), &mut out); // right: key mismatch
        op.process(1, &Tuple::ints(9, &[7, 4]), &mut out); // right: window expired
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Tuple::ints(1, &[7, 1, 7, 2]));
    }

    #[test]
    fn join_right_then_left() {
        let spec = JoinSpec {
            predicate: Predicate::True,
            window: 5,
        };
        let mut op = SingleOp::new(&OpDef::Join(spec));
        let mut out = Vec::new();
        op.process(1, &Tuple::ints(0, &[1]), &mut out);
        op.process(0, &Tuple::ints(2, &[2]), &mut out);
        assert_eq!(out.len(), 1);
        // Left values first regardless of arrival order.
        assert_eq!(out[0], Tuple::ints(2, &[2, 1]));
    }

    #[test]
    fn sequence_matches_and_deletes() {
        let spec = SeqSpec {
            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            window: 10,
        };
        let mut op = SingleOp::new(&OpDef::Sequence(spec));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(0, &[7]), &mut out);
        op.process(1, &Tuple::ints(1, &[7]), &mut out); // matches, deletes
        op.process(1, &Tuple::ints(2, &[7]), &mut out); // instance gone
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Tuple::ints(1, &[7, 7]));
    }

    #[test]
    fn sequence_window_expiry() {
        let spec = SeqSpec {
            predicate: Predicate::True,
            window: 3,
        };
        let mut op = SingleOp::new(&OpDef::Sequence(spec));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(0, &[1]), &mut out);
        op.process(1, &Tuple::ints(4, &[2]), &mut out); // 4 - 0 > 3: expired
        assert!(out.is_empty());
        op.process(0, &Tuple::ints(5, &[3]), &mut out);
        op.process(1, &Tuple::ints(8, &[4]), &mut out); // 8 - 5 <= 3: match
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sequence_requires_strictly_older_instance() {
        let spec = SeqSpec {
            predicate: Predicate::True,
            window: 10,
        };
        let mut op = SingleOp::new(&OpDef::Sequence(spec));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(5, &[1]), &mut out);
        op.process(1, &Tuple::ints(5, &[2]), &mut out); // same ts: no match
        assert!(out.is_empty());
    }

    fn monotone_iter_spec() -> IterSpec {
        // Instance schema: (key, last). Filter: other keys pass by.
        // Rebind: same key and strictly increasing value.
        IterSpec {
            filter: Predicate::cmp(CmpOp::Ne, Expr::col(0), Expr::rcol(0)),
            rebind: Predicate::and(vec![
                Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
                Predicate::cmp(CmpOp::Gt, Expr::rcol(1), Expr::col(1)),
            ]),
            rebind_map: SchemaMap::new(vec![
                NamedExpr::new("a0", Expr::col(0)),
                NamedExpr::new("a1", Expr::rcol(1)),
            ]),
            window: 100,
        }
    }

    #[test]
    fn iterate_builds_monotone_pattern() {
        let mut op = SingleOp::new(&OpDef::Iterate(monotone_iter_spec()));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(0, &[7, 10]), &mut out); // start at 10
        op.process(1, &Tuple::ints(1, &[7, 15]), &mut out); // rebind -> 15
        op.process(1, &Tuple::ints(2, &[8, 99]), &mut out); // other key: filter
        op.process(1, &Tuple::ints(3, &[7, 20]), &mut out); // rebind -> 20
        assert_eq!(
            out,
            vec![Tuple::ints(1, &[7, 15]), Tuple::ints(3, &[7, 20])]
        );
        // Non-increasing same-key event kills the instance.
        op.process(1, &Tuple::ints(4, &[7, 5]), &mut out);
        op.process(1, &Tuple::ints(5, &[7, 30]), &mut out);
        assert_eq!(out.len(), 2, "pattern died at ts=4");
    }

    #[test]
    fn iterate_duplicates_on_both_edges() {
        // filter=True and rebind=True: each event doubles the instances and
        // emits one rebound tuple per pre-existing instance.
        let spec = IterSpec {
            filter: Predicate::True,
            rebind: Predicate::True,
            rebind_map: SchemaMap::new(vec![NamedExpr::new("a0", Expr::rcol(0))]),
            window: 100,
        };
        let mut op = SingleOp::new(&OpDef::Iterate(spec));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(0, &[1]), &mut out);
        op.process(1, &Tuple::ints(1, &[2]), &mut out);
        assert_eq!(out.len(), 1);
        op.process(1, &Tuple::ints(2, &[3]), &mut out);
        assert_eq!(out.len(), 1 + 2, "two instances each rebind");
    }

    #[test]
    fn iterate_window_expiry() {
        let mut spec = monotone_iter_spec();
        spec.window = 2;
        let mut op = SingleOp::new(&OpDef::Iterate(spec));
        let mut out = Vec::new();
        op.process(0, &Tuple::ints(0, &[7, 10]), &mut out);
        op.process(1, &Tuple::ints(5, &[7, 20]), &mut out); // expired
        assert!(out.is_empty());
    }

    #[test]
    fn aggregate_window_boundaries() {
        let sum = |window| {
            SingleOp::new(&OpDef::Aggregate(AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(0),
                group_by: vec![],
                window,
            }))
        };
        // Window 2 at t = 5 keeps ts 3 (= t - 2, inclusive) and drops ts 2.
        let out = run_unary(
            &mut sum(2),
            &[
                Tuple::ints(2, &[100]),
                Tuple::ints(3, &[10]),
                Tuple::ints(5, &[1]),
            ],
        );
        assert_eq!(out[2], Tuple::ints(5, &[11]));
        // Window 0 keeps only the current tuple, even against a predecessor
        // with an equal timestamp.
        let out = run_unary(&mut sum(0), &[Tuple::ints(4, &[7]), Tuple::ints(4, &[2])]);
        assert_eq!(out[1], Tuple::ints(4, &[2]));
        // Window 1 with the same tie keeps both.
        let out = run_unary(&mut sum(1), &[Tuple::ints(4, &[7]), Tuple::ints(4, &[2])]);
        assert_eq!(out[1], Tuple::ints(4, &[9]));
    }

    #[test]
    fn group_state_result_types() {
        let mut g = GroupState::new(AggFunc::Min);
        g.add(&Value::Int(3));
        g.add(&Value::Int(4));
        assert_eq!(g.result(AggFunc::Sum), Value::Int(7));
        assert_eq!(g.result(AggFunc::Count), Value::Int(2));
        assert_eq!(g.result(AggFunc::Avg), Value::Float(3.5));
        assert_eq!(g.result(AggFunc::Min), Value::Int(3));
        assert_eq!(g.result(AggFunc::Max), Value::Int(4));
        g.add(&Value::Float(0.5));
        assert_eq!(g.result(AggFunc::Sum), Value::Float(7.5));
        assert_eq!(g.result(AggFunc::Min), Value::Float(0.5));
    }

    #[test]
    fn group_state_skips_the_multiset_unless_min_or_max() {
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            let mut g = GroupState::new(func);
            g.add(&Value::Int(3));
            g.add(&Value::Float(0.5));
            assert!(g.values.is_empty(), "{func}");
            g.remove(&Value::Int(3));
            assert_eq!(g.result(AggFunc::Count), Value::Int(1));
        }
        let mut g = GroupState::new(AggFunc::Max);
        g.add(&Value::Int(3));
        assert_eq!(g.values.len(), 1);
    }

    #[test]
    fn group_state_nulls_and_empty() {
        let mut g = GroupState::new(AggFunc::Min);
        g.add(&Value::Null);
        assert_eq!(g.result(AggFunc::Count), Value::Int(1), "COUNT counts rows");
        assert_eq!(g.result(AggFunc::Sum), Value::Null);
        assert_eq!(g.result(AggFunc::Min), Value::Null);
        g.remove(&Value::Null);
        assert!(g.is_empty());
    }

    #[test]
    fn group_state_merge() {
        let mut a = GroupState::new(AggFunc::Max);
        a.add(&Value::Int(1));
        let mut b = GroupState::new(AggFunc::Max);
        b.add(&Value::Int(5));
        a.merge_from(&b);
        assert_eq!(a.result(AggFunc::Sum), Value::Int(6));
        assert_eq!(a.result(AggFunc::Max), Value::Int(5));
        assert_eq!(a.result(AggFunc::Count), Value::Int(2));
    }
}
