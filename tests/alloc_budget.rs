//! Allocation budget: running a plan allocates per morsel and per column,
//! never per cell. A counting global allocator measures one execution at
//! 2 000 and at 20 000 input rows; the larger may allocate at most
//! [`SLACK`] more times. The cases would allocate once or more per string
//! cell or per row if a string column held one heap string per slot, if a
//! UDF's input row were built afresh for every call, or if a JSON array of
//! strings were kept as a tree per line.
//!
//! The test binary holds this one test, and the engine runs on one thread,
//! so every allocation counted is the execution's own.

use miso::common::ids::NodeId;
use miso::common::{pool, MisoError, QueryGuard};
use miso::data::{ColBatch, Column, DataType, Field, Row, Schema, Value};
use miso::exec::col::parse_log_columns;
use miso::exec::{
    execute_subset_guarded, DataSource, FusedField, LogColumns, LogLines, MemSource, Retention,
    Udf, UdfRegistry,
};
use miso::plan::{BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Allocations (and reallocations) since the process started.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every operation is delegated unchanged to `System`; the counter is
// a static atomic, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many more allocations 20 000 rows may cost than 2 000: the extra
/// morsels' vectors, and the doubling of buffers that grow with the input.
const SLACK: u64 = 100;

/// Allocations made by executing `plan` over `src`, keeping only the root.
fn allocations(plan: &LogicalPlan, src: &dyn DataSource, udfs: &UdfRegistry) -> u64 {
    let run = |_: ()| {
        let guard = QueryGuard::inert_ref();
        let none = HashMap::new();
        execute_subset_guarded(
            plan,
            None,
            none,
            src,
            udfs,
            Retention::ROOT_ONLY,
            guard,
            None,
        )
        .expect("the plan runs")
    };
    // Warm lazily built state (thread-locals, the pool) outside the count.
    drop(run(()));
    let before = ALLOCS.load(Relaxed);
    let exec = run(());
    let after = ALLOCS.load(Relaxed);
    drop(exec);
    after - before
}

fn field(name: &str, ty: DataType) -> Field {
    Field::new(name, ty)
}

/// Case 1: `facts` (key, two strings) filtered to half its rows, joined with
/// a 64-row `dims` (key, label): the filter gathers two string columns, the
/// join three.
fn filter_join(rows: usize) -> (LogicalPlan, MemSource) {
    let mut src = MemSource::new();
    let facts = (0..rows as i64).map(|i| {
        let name = Value::str(format!("user-{i}-é"));
        let city = if i % 9 == 0 {
            Value::Null
        } else {
            Value::str(["Zürich", "東京", "Lyon"][i as usize % 3])
        };
        Row::new(vec![Value::Int(i % 128), name, city])
    });
    src.add_view("facts", facts.collect());
    let dims = (0..64).map(|k| Row::new(vec![Value::Int(k), Value::str(format!("seg {k}"))]));
    src.add_view("dims", dims.collect());
    let mut b = PlanBuilder::new();
    let scan = |view: &str, schema| Operator::ScanView {
        view: view.into(),
        schema: Schema::new(schema),
    };
    let (int, str) = (DataType::Int, DataType::Str);
    let facts = scan(
        "facts",
        vec![field("k", int), field("name", str), field("city", str)],
    );
    let facts = b.add(facts, vec![]).unwrap();
    let dims = scan("dims", vec![field("k", int), field("label", str)]);
    let dims = b.add(dims, vec![]).unwrap();
    let half = Expr::Binary {
        op: BinOp::Lt,
        left: Box::new(Expr::col(0)),
        right: Box::new(Expr::lit(64i64)),
    };
    let filter = Operator::Filter { predicate: half };
    let filter = b.add(filter, vec![facts]).unwrap();
    let join = Operator::Join { on: vec![(0, 0)] };
    let join = b.add(join, vec![filter, dims]).unwrap();
    (b.finish(join).unwrap(), src)
}

/// A log whose columns were parsed once, as a store's warm log image serves
/// them: a fused scan of its `keys` copies nothing and parses nothing.
struct Image {
    lines: Vec<String>,
    keys: &'static [&'static str],
    columns: ColBatch,
}

impl Image {
    /// The image of `lines`' bare `keys`, parsed by the fused reader.
    fn parse(lines: Vec<String>, keys: &'static [&'static str]) -> Image {
        let fields: Vec<FusedField> = keys
            .iter()
            .map(|key| FusedField { key, ty: None })
            .collect();
        let (columns, _) = parse_log_columns(&lines, &fields).expect("the lines parse");
        Image {
            lines,
            keys,
            columns,
        }
    }
}

impl DataSource for Image {
    fn log_lines(&self, _: &str) -> miso::common::Result<LogLines<'_>> {
        Ok(LogLines::one(&self.lines))
    }

    fn view_batch(&self, view: &str) -> miso::common::Result<Arc<ColBatch>> {
        Err(MisoError::Store(format!("unknown view `{view}`")))
    }

    fn log_columns(&self, _: &str, fields: &[FusedField<'_>]) -> miso::common::Result<LogColumns> {
        let keys: Vec<&str> = fields.iter().map(|f| f.key).collect();
        assert_eq!(keys, self.keys);
        assert!(fields.iter().all(|f| f.ty.is_none()));
        Ok(LogColumns {
            batch: self.columns.clone(),
            skipped_lines: 0,
            cols_hit: fields.len() as u64,
            cols_parsed: 0,
        })
    }
}

/// The fields case 2's UDF reads.
const DECLARED: [&str; 2] = ["text", "user_id"];

/// Case 2: a log scan fused into a UDF that declares the fields it reads —
/// strings that grow and shrink from line to line, and integers — and
/// answers no rows.
fn fused_udf(rows: usize) -> (LogicalPlan, Image, UdfRegistry) {
    let lines: Vec<String> = (0..rows)
        .map(|i| {
            let text = "ü".repeat(i % 17);
            format!(
                r#"{{"user_id": {i}, "text": "{text} #{i}", "n": {}}}"#,
                i % 5
            )
        })
        .collect();
    let src = Image::parse(lines, &DECLARED);
    let output = Schema::new(vec![field("score", DataType::Int)]);
    let mut udfs = UdfRegistry::new();
    let nothing = Arc::new(|_: &Row| Ok(Vec::new()));
    udfs.register(Udf::new("nothing", output.clone(), nothing).reading(&DECLARED));
    let mut b = PlanBuilder::new();
    let scan = Operator::ScanLog {
        log: "tweets".into(),
    };
    let scan = b.add(scan, vec![]).unwrap();
    let udf = Operator::Udf {
        name: "nothing".into(),
        output,
    };
    let udf = b.add(udf, vec![scan]).unwrap();
    (b.finish(udf).unwrap(), src, udfs)
}

/// Case 3: a fused scan of a log whose `tags` field is a JSON array of
/// strings — empty now and then, non-ASCII now and then — filtered on
/// `array_contains(tags, 'pizza')`: the reader keeps the arrays as one list
/// column, the filter asks it in place and gathers half its rows.
fn list_filter(rows: usize) -> (LogicalPlan, Image) {
    let tags = [
        r#"["pizza", "café"]"#,
        "[]",
        r#"["coffee"]"#,
        r#"["東京", "x", "pizza"]"#,
    ];
    let lines = (0..rows).map(|i| format!(r#"{{"id": {i}, "tags": {}}}"#, tags[i % 4]));
    let src = Image::parse(lines.collect(), &["tags"]);
    assert!(matches!(src.columns.col(0), Column::StrList(..)));
    let mut b = PlanBuilder::new();
    let scan = Operator::ScanLog {
        log: "tweets".into(),
    };
    let scan = b.add(scan, vec![]).unwrap();
    let project = Operator::Project {
        exprs: vec![("tags".into(), Expr::col(0).get("tags"))],
    };
    let project = b.add(project, vec![scan]).unwrap();
    let pizza = Expr::Func {
        name: "array_contains".into(),
        args: vec![Expr::col(0), Expr::lit("pizza")],
    };
    let filter = b.add(Operator::Filter { predicate: pizza }, vec![project]);
    (b.finish(filter.unwrap()).unwrap(), src)
}

#[test]
fn allocations_do_not_grow_with_rows() {
    pool::set_threads(1);
    let none = UdfRegistry::new();
    let join = |rows| {
        let (plan, src) = filter_join(rows);
        assert_eq!(plan.root(), NodeId(3));
        allocations(&plan, &src, &none)
    };
    let udf = |rows| {
        let (plan, src, udfs) = fused_udf(rows);
        allocations(&plan, &src, &udfs)
    };
    let lists = |rows| {
        let (plan, src) = list_filter(rows);
        allocations(&plan, &src, &none)
    };
    let cases: [(&str, &dyn Fn(usize) -> u64); 3] = [
        ("filter → join", &join),
        ("fused UDF", &udf),
        ("list filter", &lists),
    ];
    for (what, count) in cases {
        let (small, large) = (count(2_000), count(20_000));
        assert!(
            large <= small + SLACK,
            "{what}: {small} allocations at 2 000 rows, {large} at 20 000"
        );
    }
}
