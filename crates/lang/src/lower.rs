//! Lowering: AST → logical plan.
//!
//! Produces exactly the plan shapes the paper's queries exhibit on Hive:
//!
//! ```text
//! ScanLog → Project(extract fields)  [per table]
//!         → Filter(pushed-down single-table predicates)
//!         → Join ...                 [left-deep]
//!         → Filter(cross-table predicates)
//!         → Project(group keys + agg args) → Aggregate → Filter(HAVING)
//!         → Project(select list) → Sort → Limit
//! ```
//!
//! Field references `t.user_id` become JSON extraction + SerDe cast from the
//! log's single `record` column; only the fields a query actually touches
//! are extracted ("the log schema of interest is specified within the query
//! itself"). Single-table WHERE conjuncts are pushed below joins, as Hive
//! does — this is also what gives opportunistic views their selective,
//! reusable shapes.

use crate::ast::*;
use crate::Catalog;
use miso_common::ids::NodeId;
use miso_common::{MisoError, Result};
use miso_data::DataType;
use miso_plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder, UnaryOp};
use std::collections::{HashMap, HashSet};

/// Lowers a parsed query against a catalog.
pub fn lower(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    let mut builder = PlanBuilder::new();
    let root = lower_query(query, catalog, &mut builder)?;
    builder.finish(root)
}

/// Column scope over the joined FROM result: alias → ordered column names,
/// flattened positionally.
#[derive(Debug, Clone)]
struct Scope {
    entries: Vec<(String, Vec<String>)>,
}

impl Scope {
    fn single(alias: &str, cols: Vec<String>) -> Scope {
        Scope {
            entries: vec![(alias.to_string(), cols)],
        }
    }

    fn push(&mut self, alias: &str, cols: Vec<String>) {
        self.entries.push((alias.to_string(), cols));
    }

    fn arity(&self) -> usize {
        self.entries.iter().map(|(_, c)| c.len()).sum()
    }

    fn offset_of_alias(&self, alias: &str) -> Option<usize> {
        let mut offset = 0;
        for (a, cols) in &self.entries {
            if a == alias {
                return Some(offset);
            }
            offset += cols.len();
        }
        None
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        match qualifier {
            Some(q) => {
                let offset = self
                    .offset_of_alias(q)
                    .ok_or_else(|| MisoError::Analysis(format!("unknown table alias `{q}`")))?;
                let (_, cols) = self
                    .entries
                    .iter()
                    .find(|(a, _)| a == q)
                    .expect("alias just found");
                let idx = cols
                    .iter()
                    .position(|c| c == name)
                    .ok_or_else(|| MisoError::Analysis(format!("no column `{name}` in `{q}`")))?;
                Ok(offset + idx)
            }
            None => {
                let mut hits = Vec::new();
                let mut offset = 0;
                for (_, cols) in &self.entries {
                    if let Some(idx) = cols.iter().position(|c| c == name) {
                        hits.push(offset + idx);
                    }
                    offset += cols.len();
                }
                match hits.len() {
                    0 => Err(MisoError::Analysis(format!("unknown column `{name}`"))),
                    1 => Ok(hits[0]),
                    _ => Err(MisoError::Analysis(format!("ambiguous column `{name}`"))),
                }
            }
        }
    }
}

fn lower_query(query: &Query, catalog: &Catalog, b: &mut PlanBuilder) -> Result<NodeId> {
    // 0. A table alias names one FROM item, an output alias one column.
    let tables =
        std::iter::once(&query.from.first).chain(query.from.joins.iter().map(|j| &j.table));
    unique("table alias", tables.map(TableRef::alias))?;
    unique(
        "column alias",
        query.select.iter().filter_map(|item| item.alias.as_deref()),
    )?;

    // 1. Which fields does each base-log alias need extracted?
    let fields_by_alias = collect_fields(query)?;

    // 2. Partition WHERE into per-alias pushdown conjuncts and residual.
    let (pushdown, residual_where) = partition_where(query);

    // 3. Build each FROM branch.
    let (mut node, mut scope) =
        lower_table_ref(&query.from.first, catalog, b, &fields_by_alias, &pushdown)?;

    // 4. Left-deep joins.
    for join in &query.from.joins {
        let (right_node, right_scope) =
            lower_table_ref(&join.table, catalog, b, &fields_by_alias, &pushdown)?;
        let left_arity = scope.arity();
        let mut joined_scope = scope.clone();
        for (alias, cols) in &right_scope.entries {
            joined_scope.push(alias, cols.clone());
        }
        // Split ON into equi-conjuncts (left col = right col) and residue.
        let mut on_pairs: Vec<(usize, usize)> = Vec::new();
        let mut residue: Vec<Expr> = Vec::new();
        for conjunct in conjuncts_of(&join.on) {
            if let Some((l, r)) = as_equi_pair(conjunct, &scope, &right_scope, left_arity)? {
                on_pairs.push((l, r));
            } else {
                residue.push(resolve_expr(conjunct, &joined_scope)?);
            }
        }
        if on_pairs.is_empty() {
            return Err(MisoError::Analysis(
                "JOIN requires at least one equality condition between the two sides".into(),
            ));
        }
        node = b.add(Operator::Join { on: on_pairs }, vec![node, right_node])?;
        if let Some(pred) = Expr::conjoin(residue) {
            node = b.add(Operator::Filter { predicate: pred }, vec![node])?;
        }
        scope = joined_scope;
    }

    // 5. Residual WHERE above the joins.
    if let Some(w) = residual_where {
        let pred = resolve_expr(&w, &scope)?;
        node = b.add(Operator::Filter { predicate: pred }, vec![node])?;
    }

    // 6. Aggregation pipeline or plain projection.
    let has_agg = !query.group_by.is_empty()
        || query.select.iter().any(|s| s.expr.contains_aggregate())
        || query
            .having
            .as_ref()
            .is_some_and(SqlExpr::contains_aggregate);

    let (node, out_names) = if has_agg {
        lower_aggregation(query, b, node, &scope)?
    } else {
        lower_plain_select(query, b, node, &scope)?
    };
    let mut node = node;

    // 7. ORDER BY over the output schema.
    if !query.order_by.is_empty() {
        let mut keys = Vec::new();
        for key in &query.order_by {
            let idx = resolve_output_column(&key.expr, &out_names, query)?;
            keys.push((idx, key.desc));
        }
        node = b.add(Operator::Sort { keys }, vec![node])?;
    }

    // 8. LIMIT.
    if let Some(n) = query.limit {
        node = b.add(Operator::Limit { n }, vec![node])?;
    }
    Ok(node)
}

/// Fails with `MisoError::Analysis` on the first name `names` repeats.
fn unique<'n>(what: &str, names: impl Iterator<Item = &'n str>) -> Result<()> {
    let mut seen = HashSet::new();
    for name in names {
        if !seen.insert(name) {
            return Err(MisoError::Analysis(format!(
                "{what} `{name}` is bound twice"
            )));
        }
    }
    Ok(())
}

/// Collects, per base-log alias, the set of fields the query extracts.
fn collect_fields(query: &Query) -> Result<HashMap<String, Vec<String>>> {
    // Select aliases shadow table fields in HAVING/ORDER BY.
    let select_aliases: HashSet<&str> = query
        .select
        .iter()
        .filter_map(|s| s.alias.as_deref())
        .collect();

    let base_aliases: Vec<&str> = {
        let mut v = vec![query.from.first.alias()];
        v.extend(query.from.joins.iter().map(|j| j.table.alias()));
        v
    };
    let single_base = if base_aliases.len() == 1 {
        Some(base_aliases[0])
    } else {
        None
    };

    let mut fields: HashMap<String, Vec<String>> = HashMap::new();
    let mut add = |alias: &str, name: &str| {
        let list = fields.entry(alias.to_string()).or_default();
        if !list.iter().any(|f| f == name) {
            list.push(name.to_string());
        }
    };
    // (Field lists are sorted canonically below, so two queries touching the
    // same fields of a log produce identical extraction projections — and
    // therefore identical opportunistic-view fingerprints — regardless of
    // the order the fields appear in the query text.)
    let mut visit = |e: &SqlExpr, allow_bare_alias: bool| {
        e.visit(&mut |sub| {
            if let SqlExpr::Column { qualifier, name } = sub {
                match qualifier {
                    Some(q) => add(q, name),
                    None => {
                        if allow_bare_alias && select_aliases.contains(name.as_str()) {
                            // references a select alias, not a field
                        } else if let Some(alias) = single_base {
                            add(alias, name);
                        }
                        // multi-table unqualified bare names fail later at
                        // resolution with a precise error.
                    }
                }
            }
        });
    };
    for item in &query.select {
        visit(&item.expr, false);
    }
    if let Some(w) = &query.where_clause {
        visit(w, false);
    }
    for join in &query.from.joins {
        visit(&join.on, false);
    }
    for g in &query.group_by {
        visit(g, false);
    }
    if let Some(h) = &query.having {
        visit(h, true);
    }
    for k in &query.order_by {
        visit(&k.expr, true);
    }
    for list in fields.values_mut() {
        list.sort();
    }
    Ok(fields)
}

/// Splits WHERE into (alias → pushable conjuncts) and the residual predicate.
fn partition_where(query: &Query) -> (HashMap<String, Vec<SqlExpr>>, Option<SqlExpr>) {
    let mut pushdown: HashMap<String, Vec<SqlExpr>> = HashMap::new();
    let mut residual: Vec<SqlExpr> = Vec::new();
    if let Some(w) = &query.where_clause {
        for conjunct in conjuncts_of(w) {
            let quals = conjunct.qualifiers();
            if quals.len() == 1 && fully_qualified(conjunct) {
                pushdown
                    .entry(quals[0].to_string())
                    .or_default()
                    .push(conjunct.clone());
            } else {
                residual.push(conjunct.clone());
            }
        }
    }
    let residual = residual.into_iter().reduce(|acc, e| SqlExpr::Binary {
        op: SqlBinOp::And,
        left: Box::new(acc),
        right: Box::new(e),
    });
    (pushdown, residual)
}

/// True iff every column reference in `e` carries a qualifier.
fn fully_qualified(e: &SqlExpr) -> bool {
    let mut ok = true;
    e.visit(&mut |sub| {
        if let SqlExpr::Column {
            qualifier: None, ..
        } = sub
        {
            ok = false;
        }
    });
    ok
}

fn conjuncts_of(e: &SqlExpr) -> Vec<&SqlExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a SqlExpr, out: &mut Vec<&'a SqlExpr>) {
        if let SqlExpr::Binary {
            op: SqlBinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

/// Recognizes `a.x = b.y` with `a` on the accumulated left side and `b` on
/// the newly joined right side (either orientation).
fn as_equi_pair(
    e: &SqlExpr,
    left: &Scope,
    right: &Scope,
    _left_arity: usize,
) -> Result<Option<(usize, usize)>> {
    let SqlExpr::Binary {
        op: SqlBinOp::Eq,
        left: l,
        right: r,
    } = e
    else {
        return Ok(None);
    };
    let (
        SqlExpr::Column {
            qualifier: Some(lq),
            name: ln,
        },
        SqlExpr::Column {
            qualifier: Some(rq),
            name: rn,
        },
    ) = (l.as_ref(), r.as_ref())
    else {
        return Ok(None);
    };
    let in_left = |q: &str| left.offset_of_alias(q).is_some();
    let in_right = |q: &str| right.offset_of_alias(q).is_some();
    if in_left(lq) && in_right(rq) {
        Ok(Some((
            left.resolve(Some(lq), ln)?,
            right.resolve(Some(rq), rn)?,
        )))
    } else if in_left(rq) && in_right(lq) {
        Ok(Some((
            left.resolve(Some(rq), rn)?,
            right.resolve(Some(lq), ln)?,
        )))
    } else {
        Ok(None)
    }
}

/// Builds one FROM branch; returns its root node and scope.
fn lower_table_ref(
    table: &TableRef,
    catalog: &Catalog,
    b: &mut PlanBuilder,
    fields_by_alias: &HashMap<String, Vec<String>>,
    pushdown: &HashMap<String, Vec<SqlExpr>>,
) -> Result<(NodeId, Scope)> {
    match table {
        TableRef::Base { name, alias } => {
            if !catalog.has_log(name) {
                return Err(MisoError::Analysis(format!("unknown log `{name}`")));
            }
            let fields = fields_by_alias.get(alias).cloned().unwrap_or_default();
            if fields.is_empty() {
                return Err(MisoError::Analysis(format!(
                    "table `{alias}` is never referenced; remove it or reference a field"
                )));
            }
            let scan = b.add(Operator::ScanLog { log: name.clone() }, vec![])?;
            let exprs: Vec<(String, Expr)> = fields
                .iter()
                .map(|f| {
                    let extract = Expr::col(0).get(f.clone());
                    let e = match catalog.field_hint(name, f) {
                        Some(ty) if ty != DataType::Json => extract.cast(ty),
                        _ => extract,
                    };
                    (f.clone(), e)
                })
                .collect();
            let mut node = b.add(Operator::Project { exprs }, vec![scan])?;
            let scope = Scope::single(alias, fields);
            node = apply_pushdown(alias, node, &scope, pushdown, b)?;
            Ok((node, scope))
        }
        TableRef::Derived { query, alias } => {
            let sub_root = lower_query(query, catalog, b)?;
            let cols = derived_columns(query)?;
            let scope = Scope::single(alias, cols);
            let node = apply_pushdown(alias, sub_root, &scope, pushdown, b)?;
            Ok((node, scope))
        }
        TableRef::Apply { udf, input, alias } => {
            let output = catalog
                .udf_output(udf)
                .ok_or_else(|| MisoError::Analysis(format!("unknown UDF `{udf}`")))?
                .clone();
            // The UDF consumes the *raw* rows of its input: a bare scan for
            // base logs (user code reads the JSON record), or the derived
            // plan's output rows.
            let input_node = match input.as_ref() {
                TableRef::Base { name, .. } => {
                    if !catalog.has_log(name) {
                        return Err(MisoError::Analysis(format!("unknown log `{name}`")));
                    }
                    b.add(Operator::ScanLog { log: name.clone() }, vec![])?
                }
                other => lower_table_ref(other, catalog, b, fields_by_alias, pushdown)?.0,
            };
            let node = b.add(
                Operator::Udf {
                    name: udf.clone(),
                    output: output.clone(),
                },
                vec![input_node],
            )?;
            let cols = output.fields().iter().map(|f| f.name.clone()).collect();
            let scope = Scope::single(alias, cols);
            let node = apply_pushdown(alias, node, &scope, pushdown, b)?;
            Ok((node, scope))
        }
    }
}

fn apply_pushdown(
    alias: &str,
    node: NodeId,
    scope: &Scope,
    pushdown: &HashMap<String, Vec<SqlExpr>>,
    b: &mut PlanBuilder,
) -> Result<NodeId> {
    let Some(conjuncts) = pushdown.get(alias) else {
        return Ok(node);
    };
    let resolved: Vec<Expr> = conjuncts
        .iter()
        .map(|c| resolve_expr(c, scope))
        .collect::<Result<_>>()?;
    match Expr::conjoin(resolved) {
        Some(pred) => Ok(b.add(Operator::Filter { predicate: pred }, vec![node])?),
        None => Ok(node),
    }
}

/// Output column names of a derived table.
fn derived_columns(query: &Query) -> Result<Vec<String>> {
    query
        .select
        .iter()
        .enumerate()
        .map(|(i, item)| match (&item.alias, &item.expr) {
            (Some(a), _) => Ok(a.clone()),
            (None, SqlExpr::Column { name, .. }) => Ok(name.clone()),
            _ => Err(MisoError::Analysis(format!(
                "select item {i} of a derived table needs an alias"
            ))),
        })
        .collect()
}

/// Resolves a surface expression against a scope.
fn resolve_expr(e: &SqlExpr, scope: &Scope) -> Result<Expr> {
    Ok(match e {
        SqlExpr::Column { qualifier, name } => {
            Expr::Column(scope.resolve(qualifier.as_deref(), name)?)
        }
        SqlExpr::Int(i) => Expr::lit(*i),
        SqlExpr::Float(f) => Expr::lit(*f),
        SqlExpr::Str(s) => Expr::lit(s.as_str()),
        SqlExpr::Bool(b) => Expr::lit(*b),
        SqlExpr::Null => Expr::Literal(miso_data::Value::Null),
        SqlExpr::Binary { op, left, right } => {
            let l = resolve_expr(left, scope)?;
            let r = resolve_expr(right, scope)?;
            match op {
                SqlBinOp::Like => Expr::Func {
                    name: "contains".into(),
                    args: vec![l, strip_like_wildcards(r)],
                },
                other => Expr::Binary {
                    op: plan_binop(*other),
                    left: Box::new(l),
                    right: Box::new(r),
                },
            }
        }
        SqlExpr::Not(inner) => Expr::Unary {
            op: UnaryOp::Not,
            input: Box::new(resolve_expr(inner, scope)?),
        },
        SqlExpr::Neg(inner) => Expr::Unary {
            op: UnaryOp::Neg,
            input: Box::new(resolve_expr(inner, scope)?),
        },
        SqlExpr::IsNull { expr, negated } => Expr::Unary {
            op: if *negated {
                UnaryOp::IsNotNull
            } else {
                UnaryOp::IsNull
            },
            input: Box::new(resolve_expr(expr, scope)?),
        },
        SqlExpr::Cast { expr, ty } => resolve_expr(expr, scope)?.cast(*ty),
        SqlExpr::Call {
            name, args, star, ..
        } => {
            if is_aggregate_name(name) {
                return Err(MisoError::Analysis(format!(
                    "aggregate `{name}` not allowed here"
                )));
            }
            if *star {
                return Err(MisoError::Analysis(format!(
                    "`{name}(*)` is only valid for COUNT"
                )));
            }
            Expr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| resolve_expr(a, scope))
                    .collect::<Result<_>>()?,
            }
        }
    })
}

/// `LIKE '%foo%'` is implemented as `contains` after stripping `%` anchors.
fn strip_like_wildcards(pattern: Expr) -> Expr {
    match pattern {
        Expr::Literal(miso_data::Value::Str(s)) => Expr::lit(s.trim_matches('%')),
        other => other,
    }
}

fn plan_binop(op: SqlBinOp) -> BinOp {
    match op {
        SqlBinOp::Add => BinOp::Add,
        SqlBinOp::Sub => BinOp::Sub,
        SqlBinOp::Mul => BinOp::Mul,
        SqlBinOp::Div => BinOp::Div,
        SqlBinOp::Mod => BinOp::Mod,
        SqlBinOp::Eq => BinOp::Eq,
        SqlBinOp::Ne => BinOp::Ne,
        SqlBinOp::Lt => BinOp::Lt,
        SqlBinOp::Le => BinOp::Le,
        SqlBinOp::Gt => BinOp::Gt,
        SqlBinOp::Ge => BinOp::Ge,
        SqlBinOp::And => BinOp::And,
        SqlBinOp::Or => BinOp::Or,
        SqlBinOp::Like => unreachable!("LIKE handled separately"),
    }
}

/// One aggregate call discovered in SELECT/HAVING.
#[derive(Debug, Clone, PartialEq)]
struct FoundAgg {
    surface: SqlExpr,
    func: AggFunc,
    arg: Option<SqlExpr>,
    name: String,
}

fn lower_aggregation(
    query: &Query,
    b: &mut PlanBuilder,
    input: NodeId,
    scope: &Scope,
) -> Result<(NodeId, Vec<String>)> {
    // Discover aggregate calls in SELECT and HAVING.
    let mut aggs: Vec<FoundAgg> = Vec::new();
    let mut discover = |e: &SqlExpr| -> Result<()> {
        let mut err = None;
        e.visit(&mut |sub| {
            if let SqlExpr::Call {
                name,
                distinct,
                star,
                args,
            } = sub
            {
                if !is_aggregate_name(name) {
                    return;
                }
                let func = match (name.as_str(), distinct, star) {
                    ("count", false, true) => AggFunc::Count,
                    ("count", true, false) => AggFunc::CountDistinct,
                    ("count", false, false) => AggFunc::Count,
                    ("sum", false, false) => AggFunc::Sum,
                    ("min", false, false) => AggFunc::Min,
                    ("max", false, false) => AggFunc::Max,
                    ("avg", false, false) => AggFunc::Avg,
                    _ => {
                        err = Some(MisoError::Analysis(format!(
                            "unsupported aggregate form `{name}`"
                        )));
                        return;
                    }
                };
                let arg = args.first().cloned();
                if args.len() > 1 {
                    err = Some(MisoError::Analysis(format!(
                        "aggregate `{name}` takes at most one argument"
                    )));
                    return;
                }
                let found = FoundAgg {
                    surface: sub.clone(),
                    func,
                    arg,
                    name: String::new(),
                };
                if !aggs.iter().any(|a| a.surface == found.surface) {
                    aggs.push(found);
                }
            }
        });
        err.map_or(Ok(()), Err)
    };
    for item in &query.select {
        discover(&item.expr)?;
    }
    if let Some(h) = &query.having {
        discover(h)?;
    }
    // Name aggregates: select-item alias when the item *is* the call.
    for agg in aggs.iter_mut() {
        let alias = query.select.iter().find_map(|item| {
            (item.expr == agg.surface)
                .then(|| item.alias.clone())
                .flatten()
        });
        agg.name = alias.unwrap_or_default();
    }
    let mut seen_names: HashSet<String> = HashSet::new();
    for (i, agg) in aggs.iter_mut().enumerate() {
        if agg.name.is_empty() || !seen_names.insert(agg.name.clone()) {
            agg.name = format!("agg{i}");
            seen_names.insert(agg.name.clone());
        }
    }

    // Group-key names: select alias when the key equals a select item.
    let group_names: Vec<String> = query
        .group_by
        .iter()
        .enumerate()
        .map(|(i, g)| {
            query
                .select
                .iter()
                .find_map(|item| (item.expr == *g).then(|| item.alias.clone()).flatten())
                .or_else(|| match g {
                    SqlExpr::Column { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| format!("g{i}"))
        })
        .collect();

    // Pre-aggregation projection: group keys then aggregate args.
    let mut pre_exprs: Vec<(String, Expr)> = Vec::new();
    for (g, name) in query.group_by.iter().zip(&group_names) {
        pre_exprs.push((name.clone(), resolve_expr(g, scope)?));
    }
    let n_groups = pre_exprs.len();
    let mut agg_inputs: Vec<Option<usize>> = Vec::new();
    for (i, agg) in aggs.iter().enumerate() {
        match &agg.arg {
            Some(arg) => {
                pre_exprs.push((format!("a{i}"), resolve_expr(arg, scope)?));
                agg_inputs.push(Some(pre_exprs.len() - 1));
            }
            None => agg_inputs.push(None),
        }
    }
    // Degenerate global aggregate with no args (e.g. just COUNT(*)) still
    // needs a projection input column; reuse a constant.
    if pre_exprs.is_empty() {
        pre_exprs.push(("one".into(), Expr::lit(1i64)));
    }
    let pre = b.add(Operator::Project { exprs: pre_exprs }, vec![input])?;

    let agg_exprs: Vec<AggExpr> = aggs
        .iter()
        .zip(&agg_inputs)
        .map(|(agg, input_col)| {
            AggExpr::new(agg.func, input_col.map(Expr::Column), agg.name.clone())
        })
        .collect();
    let mut node = b.add(
        Operator::Aggregate {
            group_by: (0..n_groups).collect(),
            aggs: agg_exprs,
        },
        vec![pre],
    )?;

    // Post-aggregation schema: group names then agg names.
    let mut agg_schema_names: Vec<String> = group_names.clone();
    agg_schema_names.extend(aggs.iter().map(|a| a.name.clone()));

    // HAVING over the aggregate output.
    if let Some(h) = &query.having {
        let pred = resolve_post_agg(h, query, &group_names, &aggs)?;
        node = b.add(Operator::Filter { predicate: pred }, vec![node])?;
    }

    // Final projection in select-list order.
    let mut final_exprs: Vec<(String, Expr)> = Vec::new();
    let mut out_names = Vec::new();
    for (i, item) in query.select.iter().enumerate() {
        let name = item
            .alias
            .clone()
            .or_else(|| match &item.expr {
                SqlExpr::Column { name, .. } => Some(name.clone()),
                _ => None,
            })
            .unwrap_or_else(|| format!("c{i}"));
        let e = resolve_post_agg(&item.expr, query, &group_names, &aggs)?;
        final_exprs.push((name.clone(), e));
        out_names.push(name);
    }
    let node = b.add(Operator::Project { exprs: final_exprs }, vec![node])?;
    Ok((node, out_names))
}

/// Resolves an expression over the aggregate output (group cols, then aggs).
fn resolve_post_agg(
    e: &SqlExpr,
    query: &Query,
    group_names: &[String],
    aggs: &[FoundAgg],
) -> Result<Expr> {
    // Aggregate call → its output column.
    if let Some(idx) = aggs.iter().position(|a| a.surface == *e) {
        return Ok(Expr::Column(group_names.len() + idx));
    }
    // A group-by expression used verbatim → its key column.
    if let Some(idx) = query.group_by.iter().position(|g| g == e) {
        return Ok(Expr::Column(idx));
    }
    match e {
        SqlExpr::Column {
            qualifier: None,
            name,
        } => {
            if let Some(idx) = group_names.iter().position(|g| g == name) {
                return Ok(Expr::Column(idx));
            }
            if let Some(idx) = aggs.iter().position(|a| a.name == *name) {
                return Ok(Expr::Column(group_names.len() + idx));
            }
            Err(MisoError::Analysis(format!(
                "`{name}` is neither a group key nor an aggregate"
            )))
        }
        SqlExpr::Column {
            qualifier: Some(q),
            name,
        } => Err(MisoError::Analysis(format!(
            "`{q}.{name}` must appear in GROUP BY to be selected"
        ))),
        SqlExpr::Int(i) => Ok(Expr::lit(*i)),
        SqlExpr::Float(f) => Ok(Expr::lit(*f)),
        SqlExpr::Str(s) => Ok(Expr::lit(s.as_str())),
        SqlExpr::Bool(b) => Ok(Expr::lit(*b)),
        SqlExpr::Null => Ok(Expr::Literal(miso_data::Value::Null)),
        SqlExpr::Binary { op, left, right } => {
            let l = resolve_post_agg(left, query, group_names, aggs)?;
            let r = resolve_post_agg(right, query, group_names, aggs)?;
            match op {
                SqlBinOp::Like => Ok(Expr::Func {
                    name: "contains".into(),
                    args: vec![l, strip_like_wildcards(r)],
                }),
                other => Ok(Expr::Binary {
                    op: plan_binop(*other),
                    left: Box::new(l),
                    right: Box::new(r),
                }),
            }
        }
        SqlExpr::Not(inner) => Ok(Expr::Unary {
            op: UnaryOp::Not,
            input: Box::new(resolve_post_agg(inner, query, group_names, aggs)?),
        }),
        SqlExpr::Neg(inner) => Ok(Expr::Unary {
            op: UnaryOp::Neg,
            input: Box::new(resolve_post_agg(inner, query, group_names, aggs)?),
        }),
        SqlExpr::IsNull { expr, negated } => Ok(Expr::Unary {
            op: if *negated {
                UnaryOp::IsNotNull
            } else {
                UnaryOp::IsNull
            },
            input: Box::new(resolve_post_agg(expr, query, group_names, aggs)?),
        }),
        SqlExpr::Cast { expr, ty } => {
            Ok(resolve_post_agg(expr, query, group_names, aggs)?.cast(*ty))
        }
        SqlExpr::Call { name, args, .. } => {
            if is_aggregate_name(name) {
                return Err(MisoError::Analysis(format!(
                    "aggregate `{name}` form not found in SELECT/HAVING discovery"
                )));
            }
            Ok(Expr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| resolve_post_agg(a, query, group_names, aggs))
                    .collect::<Result<_>>()?,
            })
        }
    }
}

fn lower_plain_select(
    query: &Query,
    b: &mut PlanBuilder,
    input: NodeId,
    scope: &Scope,
) -> Result<(NodeId, Vec<String>)> {
    let mut exprs = Vec::new();
    let mut out_names = Vec::new();
    for (i, item) in query.select.iter().enumerate() {
        let name = item
            .alias
            .clone()
            .or_else(|| match &item.expr {
                SqlExpr::Column { name, .. } => Some(name.clone()),
                _ => None,
            })
            .unwrap_or_else(|| format!("c{i}"));
        // Duplicate output names get positional suffixes.
        let name = if out_names.contains(&name) {
            format!("{name}_{i}")
        } else {
            name
        };
        exprs.push((name.clone(), resolve_expr(&item.expr, scope)?));
        out_names.push(name);
    }
    let node = b.add(Operator::Project { exprs }, vec![input])?;
    Ok((node, out_names))
}

/// Resolves an ORDER BY key to an output column index.
fn resolve_output_column(e: &SqlExpr, out_names: &[String], query: &Query) -> Result<usize> {
    match e {
        SqlExpr::Column {
            qualifier: None,
            name,
        } => out_names.iter().position(|n| n == name).ok_or_else(|| {
            MisoError::Analysis(format!("ORDER BY `{name}` is not an output column"))
        }),
        other => {
            // Allow ordering by a select expression written out verbatim.
            query
                .select
                .iter()
                .position(|item| item.expr == *other)
                .ok_or_else(|| {
                    MisoError::Analysis("ORDER BY expression must name an output column".into())
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Catalog;
    use miso_data::{Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::standard();
        c.add_udf(
            "sentiment_extract",
            Schema::new(vec![
                Field::new("user_id", DataType::Int),
                Field::new("score", DataType::Float),
            ]),
        );
        c
    }

    fn lower_sql(sql: &str) -> LogicalPlan {
        lower(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn simple_projection() {
        let p = lower_sql("SELECT t.city AS c, t.followers FROM twitter t");
        assert_eq!(p.schema().names(), vec!["c", "followers"]);
        assert_eq!(p.base_logs(), vec!["twitter"]);
        // scan -> extract-project -> select-project
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn extraction_casts_use_hints() {
        let p = lower_sql("SELECT t.followers FROM twitter t");
        assert_eq!(p.schema().field("followers").unwrap().ty, DataType::Int);
        let p2 = lower_sql("SELECT t.hashtags FROM twitter t");
        assert_eq!(p2.schema().field("hashtags").unwrap().ty, DataType::Json);
    }

    #[test]
    fn where_single_table_pushes_below_select() {
        let p = lower_sql("SELECT t.city FROM twitter t WHERE t.followers > 10");
        // scan -> extract-project -> filter (pushed) -> select-project: the
        // filter sits directly on the extraction, the same shape a joined
        // branch gets — uniform shapes make opportunistic views reusable.
        assert_eq!(p.len(), 4);
        assert!(matches!(
            p.node(miso_common::ids::NodeId(2)).op,
            Operator::Filter { .. }
        ));
        assert!(matches!(
            p.node(miso_common::ids::NodeId(3)).op,
            Operator::Project { .. }
        ));
    }

    #[test]
    fn join_with_pushdown() {
        let p = lower_sql(
            "SELECT t.user_id FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
             WHERE t.followers > 10 AND f.likes > 2 AND t.user_id + f.venue_id > 0",
        );
        // Each branch gets a pushed filter; the mixed conjunct stays above.
        let filters = p
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::Filter { .. }))
            .count();
        assert_eq!(filters, 3);
        let joins = p
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Operator::Join { .. }))
            .count();
        assert_eq!(joins, 1);
        assert_eq!(p.base_logs(), vec!["foursquare", "twitter"]);
    }

    #[test]
    fn join_requires_equality() {
        let q = parse("SELECT t.user_id FROM twitter t JOIN foursquare f ON t.followers > f.likes")
            .unwrap();
        assert!(lower(&q, &catalog()).is_err());
    }

    #[test]
    fn aggregation_pipeline() {
        let p = lower_sql(
            "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS s \
             FROM twitter t GROUP BY t.city HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 3",
        );
        assert_eq!(p.schema().names(), vec!["city", "n", "s"]);
        let kinds: Vec<&str> = p
            .nodes()
            .iter()
            .map(|n| match n.op {
                Operator::ScanLog { .. } => "scan",
                Operator::Project { .. } => "proj",
                Operator::Filter { .. } => "filter",
                Operator::Aggregate { .. } => "agg",
                Operator::Sort { .. } => "sort",
                Operator::Limit { .. } => "limit",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["scan", "proj", "proj", "agg", "filter", "proj", "sort", "limit"]
        );
    }

    #[test]
    fn count_distinct_lowering() {
        let p = lower_sql("SELECT COUNT(DISTINCT t.user_id) AS users FROM twitter t");
        let agg = p
            .nodes()
            .iter()
            .find_map(|n| match &n.op {
                Operator::Aggregate { aggs, .. } => Some(aggs.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(agg[0].func, AggFunc::CountDistinct);
        assert_eq!(p.schema().names(), vec!["users"]);
    }

    #[test]
    fn arithmetic_over_aggregates() {
        let p = lower_sql("SELECT SUM(t.retweets) / COUNT(*) AS ratio FROM twitter t");
        assert_eq!(p.schema().names(), vec!["ratio"]);
        // Two distinct aggregates discovered.
        let agg = p
            .nodes()
            .iter()
            .find_map(|n| match &n.op {
                Operator::Aggregate { aggs, .. } => Some(aggs.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(agg, 2);
    }

    #[test]
    fn derived_table() {
        let p = lower_sql(
            "SELECT d.uid FROM (SELECT t.user_id AS uid FROM twitter t WHERE t.followers > 5) d",
        );
        assert_eq!(p.schema().names(), vec!["uid"]);
    }

    #[test]
    fn apply_udf_over_base_scans_raw() {
        let p = lower_sql("SELECT x.score FROM APPLY(sentiment_extract, twitter) x");
        assert!(p.has_udf());
        // scan -> udf -> project: the UDF consumes raw records (no SerDe
        // projection below it).
        let kinds: Vec<bool> = p
            .nodes()
            .iter()
            .map(|n| matches!(n.op, Operator::Udf { .. }))
            .collect();
        assert_eq!(kinds.iter().filter(|&&b| b).count(), 1);
        assert_eq!(p.node(NodeId(1)).inputs, vec![NodeId(0)]);
        assert!(matches!(p.node(NodeId(0)).op, Operator::ScanLog { .. }));
    }

    #[test]
    fn unqualified_columns_single_table() {
        let p = lower_sql("SELECT city FROM twitter t WHERE followers > 10");
        assert_eq!(p.schema().names(), vec!["city"]);
    }

    #[test]
    fn unknown_names_error() {
        let c = catalog();
        assert!(lower(&parse("SELECT t.x FROM nope t").unwrap(), &c).is_err());
        assert!(lower(&parse("SELECT q.x FROM twitter t").unwrap(), &c).is_err());
        assert!(lower(
            &parse("SELECT x.s FROM APPLY(missing_udf, twitter) x").unwrap(),
            &c
        )
        .is_err());
    }

    #[test]
    fn group_by_non_selected_field_errors_in_select() {
        // selecting a non-grouped field under aggregation is an error
        let q = parse("SELECT t.city, COUNT(*) FROM twitter t GROUP BY t.lang").unwrap();
        assert!(lower(&q, &catalog()).is_err());
    }

    #[test]
    fn order_by_unknown_column_errors() {
        let q = parse("SELECT t.city FROM twitter t ORDER BY nope").unwrap();
        assert!(lower(&q, &catalog()).is_err());
    }

    /// Inputs that once reached `Schema::new`'s duplicate-name assertion.
    #[test]
    fn duplicate_names_are_analysis_errors_not_panics() {
        let self_join = "SELECT a.city AS c FROM twitter a \
             JOIN twitter b ON a.user_id = b.user_id \
             JOIN twitter c ON a.user_id = c.user_id";
        assert!(lower(&parse(self_join).unwrap(), &catalog()).is_ok());
        for sql in [
            "SELECT t.city AS c, COUNT(*) AS c FROM twitter t GROUP BY t.city",
            "SELECT t.city AS c, t.lang AS c FROM twitter t",
            "SELECT l.name AS n FROM twitter t \
             JOIN landmarks l ON t.city = l.city \
             JOIN landmarks l ON t.city = l.city",
            "SELECT t.city AS c FROM twitter t JOIN twitter t ON t.user_id = t.user_id",
        ] {
            let err = lower(&parse(sql).unwrap(), &catalog()).unwrap_err();
            assert!(
                matches!(&err, MisoError::Analysis(m) if m.contains("bound twice")),
                "{sql}: {err:?}"
            );
        }
    }

    #[test]
    fn like_becomes_contains() {
        let p = lower_sql("SELECT t.text FROM twitter t WHERE t.text LIKE '%gem%'");
        let has_contains = p.nodes().iter().any(|n| match &n.op {
            Operator::Filter { predicate } => {
                let mut found = false;
                predicate.visit(&mut |e| {
                    if let Expr::Func { name, args } = e {
                        if name == "contains" {
                            if let Expr::Literal(miso_data::Value::Str(s)) = &args[1] {
                                found = s == "gem";
                            }
                        }
                    }
                });
                found
            }
            _ => false,
        });
        assert!(has_contains);
    }
}
