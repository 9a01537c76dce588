//! Semantic plan fingerprints.
//!
//! Opportunistic views are identified by a canonical fingerprint of their
//! defining sub-plan, so the same subexpression computed by two different
//! queries (the paper's evolutionary workload revisits subexpressions
//! constantly) maps to the same view. Matching at this level is the
//! "semantic" reuse of the paper's \[15\] — in contrast to ReStore's syntactic
//! job-level matching.
//!
//! Canonicalization is deliberately conservative (false *negatives* cost
//! performance, false *positives* would be corruption):
//!
//! * conjunctive predicates hash as the *sorted multiset* of their factors,
//!   so `a AND b` ≡ `b AND a`;
//! * commutative binary operators sort their operand digests;
//! * comparisons normalize orientation via their mirrored operator, so
//!   `x < 5` ≡ `5 > x`;
//! * everything else is structural.
//!
//! The digest is FNV-1a/64 ([`Fnv`]) folded over a tagged pre-order
//! encoding — stable across processes and platforms, which keeps view names
//! reproducible. A literal folds in as a checksum folds a cell
//! ([`digest_value`]), so literals that compare equal (±0.0, any NaN)
//! fingerprint equal.
//!
//! A [`LogicalPlan`] digests its arena once, when it is built, and carries
//! the result (`Digests`) to every plan derived from it whose nodes keep
//! their meaning; [`fingerprint_nodes`] recomputes from scratch.

use crate::expr::{AggExpr, BinOp, Expr};
use crate::op::Operator;
use crate::plan::{LogicalPlan, PlanNode};
use miso_common::prehash::Fnv;
use miso_data::checksum::digest_value;
use miso_data::Schema;
use std::fmt;

/// A 64-bit semantic digest of a sub-plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Canonical view name derived from the digest (stable across runs).
    pub fn view_name(&self) -> String {
        format!("v_{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Parses a canonical `v_<16 hex digits>` view name back to its fingerprint.
/// Only what [`Fingerprint::view_name`] prints is canonical (lowercase
/// digits, no sign), so `parse_view_fingerprint(n) == Some(f)` exactly when
/// `n == Fingerprint(f).view_name()`: comparing parsed fingerprints is
/// comparing names.
pub fn parse_view_fingerprint(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("v_")?;
    if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// What a plan's arena digests to: each node's fingerprint and each
/// filter's conjunct digests. A function of the nodes alone.
#[derive(Default)]
pub(crate) struct Digests {
    /// Each node's fingerprint, in arena order.
    pub(crate) fps: Vec<Fingerprint>,
    /// Every filter's conjunct digests in predicate order, node after node.
    pub(crate) conjuncts: Vec<u64>,
    /// `ends[i]`: where node `i`'s conjunct digests end in `conjuncts`.
    pub(crate) ends: Vec<u32>,
}

impl Digests {
    /// Node `i`'s conjunct digests (empty unless it is a filter).
    pub(crate) fn conjuncts(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.conjuncts[start as usize..self.ends[i] as usize]
    }

    /// Appends a node whose digests are already known.
    pub(crate) fn push(&mut self, fp: Fingerprint, conjuncts: &[u64]) {
        self.fps.push(fp);
        self.conjuncts.extend_from_slice(conjuncts);
        self.ends.push(self.conjuncts.len() as u32);
    }
}

/// Digests an arena bottom-up, each expression hashed once.
pub(crate) fn digest_arena(nodes: &[PlanNode]) -> Digests {
    let mut d = Digests {
        fps: Vec::with_capacity(nodes.len()),
        conjuncts: Vec::new(),
        ends: Vec::with_capacity(nodes.len()),
    };
    let mut inputs: Vec<u64> = Vec::new();
    let mut conjuncts: Vec<u64> = Vec::new();
    for node in nodes {
        conjuncts.clear();
        if let Operator::Filter { predicate } = &node.op {
            conjuncts.extend(predicate.conjuncts().into_iter().map(expr_digest));
        }
        inputs.clear();
        inputs.extend(node.inputs.iter().map(|i| d.fps[i.raw() as usize].0));
        let fp = Fingerprint(fingerprint_op(&node.op, &inputs, &conjuncts));
        d.push(fp, &conjuncts);
    }
    d
}

/// Fingerprints of every node of `plan` in arena order (a node's id is its
/// index), computed afresh — the reference for the ones the plan carries
/// ([`LogicalPlan::fingerprints`]).
pub fn fingerprint_nodes(plan: &LogicalPlan) -> Vec<Fingerprint> {
    digest_arena(plan.nodes()).fps
}

/// One node's digest from its inputs' fingerprints and, for a filter, its
/// conjunct digests in predicate order.
fn fingerprint_op(op: &Operator, inputs: &[u64], conjuncts: &[u64]) -> u64 {
    let mut h = Fnv::new();
    match op {
        Operator::ScanLog { log } => {
            h.byte(1);
            h.str(log);
        }
        Operator::ScanView { view, .. } => {
            // A view scan IS the view's defining expression. Canonical view
            // names embed the defining fingerprint, so scanning view `v_X`
            // fingerprints as X itself — making identity *compositional*:
            // `agg(ScanView(F))` equals `agg(F's defining subtree)`, which is
            // what lets views harvested from already-rewritten plans match
            // later raw queries.
            if let Some(fp) = parse_view_fingerprint(view) {
                return fp;
            }
            // Non-canonical names (ETL tables, tests): structural hash.
            h.byte(2);
            h.str(view);
        }
        Operator::Filter { .. } => {
            h.byte(3);
            // Order-insensitive conjunct multiset.
            let mut factor_digests = conjuncts.to_vec();
            factor_digests.sort_unstable();
            h.u64(factor_digests.len() as u64);
            for d in factor_digests {
                h.u64(d);
            }
        }
        Operator::Project { exprs } => {
            h.byte(4);
            h.u64(exprs.len() as u64);
            for (name, e) in exprs {
                h.str(name);
                h.u64(expr_digest(e));
            }
        }
        Operator::Join { on } => {
            h.byte(5);
            h.u64(on.len() as u64);
            for &(l, r) in on {
                h.u64(l as u64);
                h.u64(r as u64);
            }
        }
        Operator::Aggregate { group_by, aggs } => {
            h.byte(6);
            h.u64(group_by.len() as u64);
            for &g in group_by {
                h.u64(g as u64);
            }
            h.u64(aggs.len() as u64);
            for agg in aggs {
                h.u64(agg_digest(agg));
            }
        }
        Operator::Udf { name, output } => {
            h.byte(7);
            h.str(name);
            h.u64(schema_digest(output));
        }
        Operator::Sort { keys } => {
            h.byte(8);
            h.u64(keys.len() as u64);
            for &(k, desc) in keys {
                h.u64(k as u64);
                h.byte(desc as u8);
            }
        }
        Operator::Limit { n } => {
            h.byte(9);
            h.u64(*n);
        }
    }
    h.u64(inputs.len() as u64);
    for &i in inputs {
        h.u64(i);
    }
    h.finish()
}

fn schema_digest(schema: &Schema) -> u64 {
    let mut h = Fnv::new();
    for f in schema.fields() {
        h.str(&f.name);
        h.str(&f.ty.to_string());
    }
    h.finish()
}

fn agg_digest(agg: &AggExpr) -> u64 {
    let mut h = Fnv::new();
    h.str(&agg.func.to_string());
    h.str(&agg.name);
    match &agg.input {
        Some(e) => h.u64(expr_digest(e)),
        None => h.byte(0),
    }
    h.finish()
}

/// Canonical digest of a scalar expression.
pub fn expr_digest(e: &Expr) -> u64 {
    let mut h = Fnv::new();
    digest_expr_into(e, &mut h);
    h.finish()
}

fn digest_expr_into(e: &Expr, h: &mut Fnv) {
    match e {
        Expr::Column(i) => {
            h.byte(1);
            h.u64(*i as u64);
        }
        Expr::Literal(v) => {
            h.byte(2);
            digest_value(v, h);
        }
        Expr::FieldGet { input, key } => {
            h.byte(3);
            h.str(key);
            digest_expr_into(input, h);
        }
        Expr::Cast { input, ty } => {
            h.byte(4);
            h.str(&ty.to_string());
            digest_expr_into(input, h);
        }
        Expr::Unary { op, input } => {
            h.byte(5);
            h.str(&op.to_string());
            digest_expr_into(input, h);
        }
        Expr::Binary { op, left, right } => {
            let ld = expr_digest(left);
            let rd = expr_digest(right);
            if op.commutative() && *op != BinOp::And && *op != BinOp::Or {
                // Sort operand digests for symmetric ops; AND/OR handled as
                // n-ary multisets below for associativity as well.
                h.byte(6);
                h.str(&op.to_string());
                let (a, b) = if ld <= rd { (ld, rd) } else { (rd, ld) };
                h.u64(a);
                h.u64(b);
            } else if matches!(op, BinOp::And | BinOp::Or) {
                h.byte(7);
                h.str(&op.to_string());
                let mut ds = flatten_assoc(e, *op);
                ds.sort_unstable();
                h.u64(ds.len() as u64);
                for d in ds {
                    h.u64(d);
                }
            } else if let Some(mirror) = op.mirrored() {
                // Orient comparisons so the smaller digest is on the left.
                h.byte(8);
                if ld <= rd {
                    h.str(&op.to_string());
                    h.u64(ld);
                    h.u64(rd);
                } else {
                    h.str(&mirror.to_string());
                    h.u64(rd);
                    h.u64(ld);
                }
            } else {
                h.byte(9);
                h.str(&op.to_string());
                h.u64(ld);
                h.u64(rd);
            }
        }
        Expr::Func { name, args } => {
            h.byte(10);
            h.str(name);
            h.u64(args.len() as u64);
            for a in args {
                digest_expr_into(a, h);
            }
        }
    }
}

fn flatten_assoc(e: &Expr, op: BinOp) -> Vec<u64> {
    match e {
        Expr::Binary { op: o, left, right } if *o == op => {
            let mut ds = flatten_assoc(left, op);
            ds.extend(flatten_assoc(right, op));
            ds
        }
        other => vec![expr_digest(other)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operator;
    use crate::plan::PlanBuilder;
    use miso_common::ids::NodeId;
    use miso_data::{DataType, Value};

    fn scan_filter(pred: Expr) -> LogicalPlan {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("a".into(), Expr::col(0).get("a").cast(DataType::Int)),
                        ("b".into(), Expr::col(0).get("b").cast(DataType::Int)),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let f = b
            .add(Operator::Filter { predicate: pred }, vec![proj])
            .unwrap();
        b.finish(f).unwrap()
    }

    fn float_literal(f: f64) -> LogicalPlan {
        scan_filter(Expr::col(0).eq(Expr::Literal(Value::Float(f))))
    }

    #[test]
    fn literals_that_compare_equal_fingerprint_equal() {
        // A literal digests as a checksum digests the cell: every NaN is one
        // value, whatever its payload, as under `Value::eq`.
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 0xdead);
        assert!(payload.is_nan() && payload.to_bits() != quiet.to_bits());
        let (a, b) = (float_literal(quiet), float_literal(payload));
        assert_eq!(a.fingerprint(a.root()), b.fingerprint(b.root()));
        let (pos, neg) = (float_literal(0.0), float_literal(-0.0));
        assert_eq!(pos.fingerprint(pos.root()), neg.fingerprint(neg.root()));
        let one = float_literal(1.0);
        assert_ne!(one.fingerprint(one.root()), pos.fingerprint(pos.root()));
    }

    #[test]
    fn identical_plans_identical_fingerprints() {
        let p1 = scan_filter(Expr::col(0).eq(Expr::lit(1i64)));
        let p2 = scan_filter(Expr::col(0).eq(Expr::lit(1i64)));
        assert_eq!(p1.fingerprint(p1.root()), p2.fingerprint(p2.root()));
    }

    #[test]
    fn different_predicates_differ() {
        let p1 = scan_filter(Expr::col(0).eq(Expr::lit(1i64)));
        let p2 = scan_filter(Expr::col(0).eq(Expr::lit(2i64)));
        assert_ne!(p1.fingerprint(p1.root()), p2.fingerprint(p2.root()));
    }

    #[test]
    fn conjunct_order_is_canonical() {
        let a = Expr::col(0).eq(Expr::lit(1i64));
        let b = Expr::col(1).eq(Expr::lit(2i64));
        let p1 = scan_filter(a.clone().and(b.clone()));
        let p2 = scan_filter(b.and(a));
        assert_eq!(p1.fingerprint(p1.root()), p2.fingerprint(p2.root()));
    }

    #[test]
    fn and_is_associative() {
        let a = Expr::col(0).eq(Expr::lit(1i64));
        let b = Expr::col(1).eq(Expr::lit(2i64));
        let c = Expr::col(0).eq(Expr::lit(3i64));
        let left = a.clone().and(b.clone()).and(c.clone());
        let right = a.and(b.and(c));
        assert_eq!(expr_digest(&left), expr_digest(&right));
    }

    #[test]
    fn comparison_orientation_is_canonical() {
        let lt = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::lit(5i64)),
        };
        let gt = Expr::Binary {
            op: BinOp::Gt,
            left: Box::new(Expr::lit(5i64)),
            right: Box::new(Expr::col(0)),
        };
        assert_eq!(expr_digest(&lt), expr_digest(&gt));
        // but x<5 differs from x>5
        let gt2 = Expr::Binary {
            op: BinOp::Gt,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::lit(5i64)),
        };
        assert_ne!(expr_digest(&lt), expr_digest(&gt2));
    }

    #[test]
    fn commutative_arithmetic_is_canonical() {
        let ab = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::col(1)),
        };
        let ba = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::col(0)),
        };
        assert_eq!(expr_digest(&ab), expr_digest(&ba));
        let sub_ab = Expr::Binary {
            op: BinOp::Sub,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::col(1)),
        };
        let sub_ba = Expr::Binary {
            op: BinOp::Sub,
            left: Box::new(Expr::col(1)),
            right: Box::new(Expr::col(0)),
        };
        assert_ne!(expr_digest(&sub_ab), expr_digest(&sub_ba));
    }

    #[test]
    fn subtree_fingerprints_are_consistent_with_extraction() {
        let p = scan_filter(Expr::col(0).eq(Expr::lit(7i64)));
        let proj_id = NodeId(1);
        let sub = p.subplan(proj_id);
        assert_eq!(p.fingerprint(proj_id), sub.fingerprint(sub.root()));
    }

    #[test]
    fn view_names_are_stable() {
        let p = scan_filter(Expr::col(0).eq(Expr::lit(1i64)));
        let name = p.fingerprint(p.root()).view_name();
        assert!(name.starts_with("v_"));
        assert_eq!(name.len(), 2 + 16);
        assert_eq!(name, p.fingerprint(p.root()).view_name());
    }

    #[test]
    fn scan_view_fingerprint_is_its_defining_fingerprint() {
        // Compositionality: replacing a subtree with its view leaves the
        // enclosing plan's fingerprint unchanged.
        let p = scan_filter(Expr::col(0).eq(Expr::lit(9i64)));
        let before = p.fingerprint(p.root());
        let sub_fp = p.fingerprint(NodeId(2));
        let rewritten = p.replace_with_view(NodeId(2), &sub_fp.view_name()).unwrap();
        assert_eq!(rewritten.fingerprint(rewritten.root()), before);
        assert_eq!(rewritten.fingerprint(NodeId(0)), sub_fp);
    }

    #[test]
    fn non_canonical_view_names_still_hash() {
        let mut b = PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "etl_twitter".into(),
                    schema: miso_data::Schema::new(vec![miso_data::Field::new("a", DataType::Int)]),
                },
                vec![],
            )
            .unwrap();
        let p = b.finish(sv).unwrap();
        let fp1 = p.fingerprint(p.root());
        assert_ne!(fp1.0, 0);
        assert_eq!(parse_view_fingerprint("etl_twitter"), None);
        assert_eq!(parse_view_fingerprint("v_00000000000000ff"), Some(255));
        assert_eq!(parse_view_fingerprint("v_short"), None);
        // Only the spelling `view_name` prints is a name.
        assert_eq!(parse_view_fingerprint("v_00000000000000FF"), None);
        assert_eq!(parse_view_fingerprint("v_+0000000000000ff"), None);
        let fp = Fingerprint(0xdead_beef_0000_00ff);
        assert_eq!(parse_view_fingerprint(&fp.view_name()), Some(fp.0));
    }

    #[test]
    fn scan_view_identity_is_transitive() {
        // Replacing a subtree by its view, where the view name embeds the
        // subtree fingerprint, yields a plan whose fingerprint is a function
        // of the same semantics regardless of which query produced the view.
        let p1 = scan_filter(Expr::col(0).eq(Expr::lit(1i64)));
        let p2 = scan_filter(Expr::col(0).eq(Expr::lit(1i64)));
        let fp1 = p1.fingerprint(NodeId(1));
        let r1 = p1.replace_with_view(NodeId(1), &fp1.view_name()).unwrap();
        let fp2 = p2.fingerprint(NodeId(1));
        let r2 = p2.replace_with_view(NodeId(1), &fp2.view_name()).unwrap();
        assert_eq!(r1.fingerprint(r1.root()), r2.fingerprint(r2.root()));
    }
}
