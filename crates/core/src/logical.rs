//! Logical operator definitions and logical query plans.
//!
//! A *logical query* (§2.1) is what the user registers; the optimizer turns
//! a set of logical queries into one physical query plan of m-ops. The
//! [`OpDef`] here is the *definition* of a physical operator — the object
//! m-rules compare when deciding sharability ("two selection operators with
//! the same predicate", "two aggregation operators with the same aggregate
//! function and group-by specification", §3.2).

use std::fmt;

use rumor_expr::{Expr, Predicate, SchemaMap};
use rumor_types::{Field, Result, RumorError, Schema, ValueType};

/// Aggregate functions supported by the sliding-window aggregation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Count of tuples in the window (per group).
    Count,
    /// Sum of the input expression.
    Sum,
    /// Arithmetic mean of the input expression.
    Avg,
    /// Minimum of the input expression.
    Min,
    /// Maximum of the input expression.
    Max,
}

impl AggFunc {
    /// Output type of the aggregate given its input type.
    pub fn output_type(&self, input: ValueType) -> ValueType {
        match self {
            AggFunc::Count => ValueType::Int,
            AggFunc::Avg => ValueType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// A sliding-window aggregation operator definition.
///
/// Emission model: for every input tuple, the operator updates the window
/// state of the tuple's group and emits the refreshed aggregate for that
/// group (timestamped with the input tuple's timestamp). This per-tuple
/// refresh model is what the paper's Query 1 relies on — the SMOOTHED stream
/// has one smoothed reading per input reading.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Aggregated input expression (ignored for `Count`).
    pub input: Expr,
    /// Group-by attribute positions on the input stream.
    pub group_by: Vec<usize>,
    /// Time-based sliding window length (`RANGE`). A tuple with timestamp
    /// `t` aggregates the input tuples of its group seen so far with
    /// timestamps in `[t - window, t]` (both ends inclusive). `window = 0`
    /// is the exception: it aggregates the current tuple alone, even when a
    /// predecessor carries the same timestamp.
    pub window: u64,
}

impl AggSpec {
    /// The definition "modulo group-by and window": rule sα shares
    /// aggregation operators with the same function and input expression
    /// but *different* group-by specifications and windows — one window
    /// buffer at the widest window, per-member eviction \[22\].
    pub fn shared_key(&self) -> (AggFunc, &Expr) {
        (self.func, &self.input)
    }

    /// Output schema: the group-by attributes followed by the aggregate
    /// value column (named after the function).
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        let mut fields = Vec::with_capacity(self.group_by.len() + 1);
        for &g in &self.group_by {
            let f = input
                .field(g)
                .ok_or_else(|| RumorError::plan(format!("group-by column {g} out of range")))?;
            fields.push(f.clone());
        }
        let in_ty = self.input.infer_type(input, None)?;
        fields.push(Field::new(
            self.func.to_string(),
            self.func.output_type(in_ty),
        ));
        Schema::new(fields)
    }
}

/// A sliding-window join operator definition.
///
/// Two tuples `l`, `r` join iff `|l.ts - r.ts| <= window` and the predicate
/// holds on the pair. The output is the concatenation of both tuples,
/// timestamped with the later of the two.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinSpec {
    /// Join predicate over (left, right).
    pub predicate: Predicate,
    /// Window length. Rule s⋈ shares joins with the same predicate but
    /// different window lengths \[12\].
    pub window: u64,
}

/// The Cayuga sequence operator `;θ` (§4.2).
///
/// Every left-input tuple becomes a stored *instance*. A right-input event
/// `e` matches instance `i` iff `i.ts < e.ts <= i.ts + window` and the
/// predicate holds on `(i, e)`; the match emits `i ⊕ e` and **deletes** the
/// instance (the paper relies on this deletion semantics in §5.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqSpec {
    /// Edge predicate over (instance, event).
    pub predicate: Predicate,
    /// Duration window ("duration predicate" in Cayuga terminology).
    pub window: u64,
}

/// The Cayuga iteration operator `µθf,θr` (§4.2).
///
/// Instances are created from left-input tuples. For each right-input event
/// `e` and live instance `i` (within the duration window):
///
/// * if the **filter** predicate θf holds on `(i, e)`, the instance remains
///   unchanged;
/// * if the **rebind** predicate θr holds, the rebind schema map produces an
///   updated instance `i' = Fr(i, e)` which is stored *and emitted*;
/// * if both hold, the automaton is non-deterministic: the instance is
///   duplicated and traverses both edges;
/// * if neither holds, the instance is deleted.
///
/// The rebind map must preserve the instance schema (which is the left
/// input schema): `µ` concatenates an unbounded number of events, so the
/// accumulated pattern state lives in instance attributes updated by `Fr`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IterSpec {
    /// Filter-edge predicate θf over (instance, event).
    pub filter: Predicate,
    /// Rebind-edge predicate θr over (instance, event).
    pub rebind: Predicate,
    /// Rebind schema map Fr: (instance, event) → instance.
    pub rebind_map: SchemaMap,
    /// Duration window for instances.
    pub window: u64,
}

/// The definition of one physical operator — the unit m-rules reason about.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpDef {
    /// Selection σ.
    Select(Predicate),
    /// Projection π (expressive SQL SELECT-clause projection, §4.2).
    Project(SchemaMap),
    /// Sliding-window aggregation α.
    Aggregate(AggSpec),
    /// Sliding-window join ⋈.
    Join(JoinSpec),
    /// Cayuga sequence `;`.
    Sequence(SeqSpec),
    /// Cayuga iteration `µ`.
    Iterate(IterSpec),
}

impl OpDef {
    /// Number of input ports (1 for unary, 2 for binary operators).
    pub fn arity(&self) -> usize {
        match self {
            OpDef::Select(_) | OpDef::Project(_) | OpDef::Aggregate(_) => 1,
            OpDef::Join(_) | OpDef::Sequence(_) | OpDef::Iterate(_) => 2,
        }
    }

    /// Short operator-type symbol used in plan rendering.
    pub fn symbol(&self) -> &'static str {
        match self {
            OpDef::Select(_) => "σ",
            OpDef::Project(_) => "π",
            OpDef::Aggregate(_) => "α",
            OpDef::Join(_) => "⋈",
            OpDef::Sequence(_) => ";",
            OpDef::Iterate(_) => "µ",
        }
    }

    /// Whether this is a selection — the operator the sharable-streams
    /// relation `~` is transparent to (§3.2).
    pub fn is_select(&self) -> bool {
        matches!(self, OpDef::Select(_))
    }

    /// Whether the operator keeps no state across input tuples. The plan
    /// lifecycle uses this statically (before any physical instantiation):
    /// stateless m-ops may be restructured freely by incremental
    /// optimization and pruning, while stateful ones (windowed joins,
    /// sequences, iterations, aggregates) carry live runtime state that a
    /// hot swap must not disturb.
    pub fn is_stateless(&self) -> bool {
        matches!(self, OpDef::Select(_) | OpDef::Project(_))
    }

    /// Output schema of the operator given its input schemas.
    pub fn output_schema(&self, inputs: &[&Schema]) -> Result<Schema> {
        if inputs.len() != self.arity() {
            return Err(RumorError::plan(format!(
                "operator {} expects {} inputs, got {}",
                self.symbol(),
                self.arity(),
                inputs.len()
            )));
        }
        match self {
            OpDef::Select(pred) => {
                pred.check_types(inputs[0], None)?;
                Ok(inputs[0].clone())
            }
            OpDef::Project(map) => map.output_schema(inputs[0], None),
            OpDef::Aggregate(spec) => spec.output_schema(inputs[0]),
            OpDef::Join(spec) => {
                spec.predicate.check_types(inputs[0], Some(inputs[1]))?;
                Ok(inputs[0].concat(inputs[1]))
            }
            OpDef::Sequence(spec) => {
                spec.predicate.check_types(inputs[0], Some(inputs[1]))?;
                Ok(inputs[0].concat(inputs[1]))
            }
            OpDef::Iterate(spec) => {
                spec.filter.check_types(inputs[0], Some(inputs[1]))?;
                spec.rebind.check_types(inputs[0], Some(inputs[1]))?;
                let out = spec.rebind_map.output_schema(inputs[0], Some(inputs[1]))?;
                if !out.union_compatible(inputs[0]) {
                    return Err(RumorError::plan(
                        "µ rebind map must preserve the instance schema".to_string(),
                    ));
                }
                Ok(out)
            }
        }
    }
}

impl fmt::Display for OpDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpDef::Select(p) => write!(f, "σ[{p}]"),
            OpDef::Project(m) => write!(f, "{m}"),
            OpDef::Aggregate(a) => write!(
                f,
                "α[{}({}) win={} by={:?}]",
                a.func, a.input, a.window, a.group_by
            ),
            OpDef::Join(j) => write!(f, "⋈[{} win={}]", j.predicate, j.window),
            OpDef::Sequence(s) => write!(f, ";[{} win={}]", s.predicate, s.window),
            OpDef::Iterate(i) => write!(
                f,
                "µ[f:{} r:{} map:{} win={}]",
                i.filter, i.rebind, i.rebind_map, i.window
            ),
        }
    }
}

/// A logical query plan — the tree shape a registered query arrives in
/// before the optimizer weaves it into the shared physical plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// A named base stream (registered source).
    Source(String),
    /// Selection over an input.
    Select {
        /// Input subplan.
        input: Box<LogicalPlan>,
        /// Selection predicate.
        predicate: Predicate,
    },
    /// Projection over an input.
    Project {
        /// Input subplan.
        input: Box<LogicalPlan>,
        /// Projection map.
        map: SchemaMap,
    },
    /// Sliding-window aggregation.
    Aggregate {
        /// Input subplan.
        input: Box<LogicalPlan>,
        /// Aggregation spec.
        spec: AggSpec,
    },
    /// Sliding-window join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join spec.
        spec: JoinSpec,
    },
    /// Cayuga sequence.
    Sequence {
        /// First (instance-producing) input.
        left: Box<LogicalPlan>,
        /// Second (event) input.
        right: Box<LogicalPlan>,
        /// Sequence spec.
        spec: SeqSpec,
    },
    /// Cayuga iteration.
    Iterate {
        /// First (instance-producing) input.
        left: Box<LogicalPlan>,
        /// Second (event) input.
        right: Box<LogicalPlan>,
        /// Iteration spec.
        spec: IterSpec,
    },
}

impl LogicalPlan {
    /// Source reference.
    pub fn source(name: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Source(name.into())
    }

    /// Wraps with a selection.
    pub fn select(self, predicate: Predicate) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wraps with a projection.
    pub fn project(self, map: SchemaMap) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            map,
        }
    }

    /// Wraps with an aggregation.
    pub fn aggregate(self, spec: AggSpec) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            spec,
        }
    }

    /// Joins with another plan.
    pub fn join(self, right: LogicalPlan, spec: JoinSpec) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            spec,
        }
    }

    /// Sequences with an event input.
    pub fn followed_by(self, right: LogicalPlan, spec: SeqSpec) -> LogicalPlan {
        LogicalPlan::Sequence {
            left: Box::new(self),
            right: Box::new(right),
            spec,
        }
    }

    /// Iterates over an event input.
    pub fn iterate(self, right: LogicalPlan, spec: IterSpec) -> LogicalPlan {
        LogicalPlan::Iterate {
            left: Box::new(self),
            right: Box::new(right),
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_expr::{CmpOp, NamedExpr};

    #[test]
    fn arities() {
        assert_eq!(OpDef::Select(Predicate::True).arity(), 1);
        assert_eq!(
            OpDef::Join(JoinSpec {
                predicate: Predicate::True,
                window: 10
            })
            .arity(),
            2
        );
    }

    #[test]
    fn select_schema_passthrough() {
        let s = Schema::ints(3);
        let def = OpDef::Select(Predicate::attr_eq_const(0, 1i64));
        assert_eq!(def.output_schema(&[&s]).unwrap(), s);
        // Out-of-range predicate column is a plan error.
        let bad = OpDef::Select(Predicate::attr_eq_const(7, 1i64));
        assert!(bad.output_schema(&[&s]).is_err());
    }

    #[test]
    fn aggregate_schema() {
        let s = Schema::ints(3);
        let spec = AggSpec {
            func: AggFunc::Avg,
            input: Expr::col(2),
            group_by: vec![0],
            window: 5,
        };
        let out = OpDef::Aggregate(spec).output_schema(&[&s]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.field(0).unwrap().name, "a0");
        assert_eq!(out.field(1).unwrap().name, "avg");
        assert_eq!(out.field(1).unwrap().ty, ValueType::Float);
    }

    #[test]
    fn agg_func_output_types() {
        assert_eq!(AggFunc::Count.output_type(ValueType::Float), ValueType::Int);
        assert_eq!(AggFunc::Sum.output_type(ValueType::Int), ValueType::Int);
        assert_eq!(AggFunc::Avg.output_type(ValueType::Int), ValueType::Float);
        assert_eq!(AggFunc::Min.output_type(ValueType::Float), ValueType::Float);
    }

    #[test]
    fn join_and_sequence_schema_concat() {
        let l = Schema::ints(2);
        let r = Schema::ints(1);
        let join = OpDef::Join(JoinSpec {
            predicate: Predicate::cmp(CmpOp::Eq, Expr::col(0), Expr::rcol(0)),
            window: 100,
        });
        let out = join.output_schema(&[&l, &r]).unwrap();
        assert_eq!(out.len(), 3);
        let seq = OpDef::Sequence(SeqSpec {
            predicate: Predicate::True,
            window: 100,
        });
        assert_eq!(seq.output_schema(&[&l, &r]).unwrap().len(), 3);
    }

    #[test]
    fn iterate_requires_schema_preserving_map() {
        let l = Schema::ints(2);
        let r = Schema::ints(2);
        let good = OpDef::Iterate(IterSpec {
            filter: Predicate::False,
            rebind: Predicate::True,
            rebind_map: SchemaMap::new(vec![
                NamedExpr::new("a0", Expr::col(0)),
                NamedExpr::new("a1", Expr::rcol(1)),
            ]),
            window: 10,
        });
        assert!(good.output_schema(&[&l, &r]).is_ok());

        let bad = OpDef::Iterate(IterSpec {
            filter: Predicate::False,
            rebind: Predicate::True,
            rebind_map: SchemaMap::new(vec![NamedExpr::new("x", Expr::col(0))]),
            window: 10,
        });
        assert!(bad.output_schema(&[&l, &r]).is_err());
    }

    #[test]
    fn shared_key_ignores_group_by_and_window() {
        let a = AggSpec {
            func: AggFunc::Sum,
            input: Expr::col(1),
            group_by: vec![0],
            window: 9,
        };
        let b = AggSpec {
            group_by: vec![0, 2],
            window: 20,
            ..a.clone()
        };
        assert_eq!(a.shared_key(), b.shared_key());
        assert_ne!(a, b);
        let c = AggSpec {
            input: Expr::col(2),
            ..a.clone()
        };
        assert_ne!(a.shared_key(), c.shared_key());
    }

    #[test]
    fn logical_builders() {
        let q = LogicalPlan::source("S")
            .select(Predicate::attr_eq_const(0, 3i64))
            .aggregate(AggSpec {
                func: AggFunc::Count,
                input: Expr::col(0),
                group_by: vec![],
                window: 10,
            });
        match q {
            LogicalPlan::Aggregate { input, .. } => match *input {
                LogicalPlan::Select { input, .. } => {
                    assert_eq!(*input, LogicalPlan::source("S"));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_symbols() {
        assert_eq!(OpDef::Select(Predicate::True).symbol(), "σ");
        let def = OpDef::Select(Predicate::True);
        assert_eq!(def.to_string(), "σ[true]");
    }

    #[test]
    fn wrong_input_count_rejected() {
        let s = Schema::ints(1);
        let def = OpDef::Select(Predicate::True);
        assert!(def.output_schema(&[&s, &s]).is_err());
    }
}
