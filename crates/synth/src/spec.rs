//! Structured query specifications.
//!
//! Every synthesized query exists first as a [`QuerySpec`] — a small,
//! editable description of its shape — and only renders to SQL at the
//! last moment. The shrinker works on specs, not SQL text: dropping a
//! join also drops the predicates, group keys and projection items that
//! referenced the joined table, so every shrink candidate is a valid
//! query by construction.

use std::fmt::Write as _;

/// The shape taxonomy a synthesized query is drawn from. The first eight
/// and the last are the "organic" mix; the four before it are explicit
/// adversarial generators. Class names key the soak's per-class tallies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShapeClass {
    /// Single-table scan with stats-steered filters.
    ScanFilter,
    /// FK-walked multi-table join, plain projection.
    JoinChain,
    /// FK-walked join feeding GROUP BY + aggregates.
    JoinAgg,
    /// Single-table GROUP BY + aggregates + ORDER BY (and maybe LIMIT).
    AggSort,
    /// Window functions over a single table (NULL partition keys, ties).
    Window,
    /// UNION / UNION ALL / INTERSECT / EXCEPT over two filtered arms.
    SetOp,
    /// SELECT DISTINCT over low-NDV columns.
    DistinctTail,
    /// Computed projections, expression predicates and expression sort
    /// keys routed through the compiled expression kernels.
    ExprCompute,
    /// Predicates built from stats to select zero rows.
    EmptyResult,
    /// Join keys wrapped in `NULLIF(k, k)` — every key NULL.
    NullKeyJoin,
    /// Join on `k % m` — pathological duplicate skew on both sides.
    SkewJoin,
    /// ORDER BY + LIMIT at the 64k segment boundary (65535/65536/65537).
    LimitBoundary,
    /// An FK-correlated `[NOT] IN`, `[NOT] EXISTS` or scalar-aggregate
    /// subquery under AND, OR or CASE.
    Subquery,
}

impl ShapeClass {
    /// Every class, in a fixed reporting order.
    pub const ALL: [ShapeClass; 13] = [
        ShapeClass::ScanFilter,
        ShapeClass::JoinChain,
        ShapeClass::JoinAgg,
        ShapeClass::AggSort,
        ShapeClass::Window,
        ShapeClass::SetOp,
        ShapeClass::DistinctTail,
        ShapeClass::ExprCompute,
        ShapeClass::EmptyResult,
        ShapeClass::NullKeyJoin,
        ShapeClass::SkewJoin,
        ShapeClass::LimitBoundary,
        ShapeClass::Subquery,
    ];

    /// Stable snake_case name (JSON report key).
    pub fn as_str(self) -> &'static str {
        match self {
            ShapeClass::ScanFilter => "scan_filter",
            ShapeClass::JoinChain => "join_chain",
            ShapeClass::JoinAgg => "join_agg",
            ShapeClass::AggSort => "agg_sort",
            ShapeClass::Window => "window",
            ShapeClass::SetOp => "set_op",
            ShapeClass::DistinctTail => "distinct_tail",
            ShapeClass::ExprCompute => "expr_compute",
            ShapeClass::EmptyResult => "empty_result",
            ShapeClass::NullKeyJoin => "null_key_join",
            ShapeClass::SkewJoin => "skew_join",
            ShapeClass::LimitBoundary => "limit_boundary",
            ShapeClass::Subquery => "subquery",
        }
    }

    /// True for the explicitly adversarial generators.
    pub fn is_adversarial(self) -> bool {
        matches!(
            self,
            ShapeClass::EmptyResult
                | ShapeClass::NullKeyJoin
                | ShapeClass::SkewJoin
                | ShapeClass::LimitBoundary
        )
    }
}

/// How a join's ON clause is rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnMode {
    /// `fk = pk` — the honest FK equi-join.
    Plain,
    /// `nullif(fk, fk) = pk` — every probe key NULL; inner joins produce
    /// nothing, LEFT joins produce all-NULL right sides.
    NullKey,
    /// `fk % m = pk % m` — collapses both key domains onto `m` residues,
    /// the pathological-skew stressor for partitioned hash joins.
    SkewMod(i64),
}

/// One FK edge in the join walk. `fk_table` owns `fk_col` (the base table
/// or an earlier-joined dimension); `table` is the newly joined table
/// whose `pk_col` is referenced.
#[derive(Clone, Debug)]
pub struct JoinEdge {
    /// Table being joined in.
    pub table: String,
    /// Table already in the query that owns the FK column.
    pub fk_table: String,
    /// FK column name (on `fk_table`).
    pub fk_col: String,
    /// Referenced key column name (on `table`).
    pub pk_col: String,
    /// LEFT OUTER instead of INNER.
    pub left: bool,
    /// ON-clause rendering.
    pub on: OnMode,
}

/// A select-list / predicate / group-key fragment tagged with the table
/// it references (empty string = base table or table-independent), so the
/// shrinker can drop a join together with everything that mentioned it.
#[derive(Clone, Debug)]
pub struct Item {
    /// Owning table name, or `""` when independent of any join.
    pub table: String,
    /// The SQL fragment.
    pub text: String,
}

impl Item {
    /// An item owned by `table`.
    pub fn on(table: &str, text: impl Into<String>) -> Item {
        Item {
            table: table.to_string(),
            text: text.into(),
        }
    }

    /// A table-independent item (e.g. `count(*)`, `1 = 0`).
    pub fn free(text: impl Into<String>) -> Item {
        Item {
            table: String::new(),
            text: text.into(),
        }
    }
}

/// A full query specification. Rendering rules:
///
/// * with `group_by` non-empty the select list is `group_by ++ aggs`,
///   otherwise `projection ++ window`;
/// * `order_by` holds 1-based output ordinals (clamped to the select
///   width at render time, so shrinking the select list never produces a
///   dangling ordinal);
/// * `set_op` appends `<op> SELECT …` rendered from the second spec's
///   core (its own order/limit are ignored, as SQL requires).
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Shape class this spec was generated under (reporting key).
    pub class: ShapeClass,
    /// FROM base table.
    pub base: String,
    /// FK join edges, in join order.
    pub joins: Vec<JoinEdge>,
    /// WHERE conjuncts.
    pub predicates: Vec<Item>,
    /// Select items when not aggregating.
    pub projection: Vec<Item>,
    /// GROUP BY keys (also projected).
    pub group_by: Vec<Item>,
    /// Aggregate select items.
    pub aggs: Vec<Item>,
    /// HAVING conjunct.
    pub having: Option<String>,
    /// An extra window-function select item (only without `group_by`).
    pub window: Option<String>,
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// Trailing set operation: (`"union"` / `"union all"` / `"intersect"`
    /// / `"except"`, second arm).
    pub set_op: Option<(String, Box<QuerySpec>)>,
    /// ORDER BY output ordinals (1-based).
    pub order_by: Vec<usize>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl QuerySpec {
    /// A bare single-table spec for `base`.
    pub fn new(class: ShapeClass, base: &str) -> QuerySpec {
        QuerySpec {
            class,
            base: base.to_string(),
            joins: Vec::new(),
            predicates: Vec::new(),
            projection: Vec::new(),
            group_by: Vec::new(),
            aggs: Vec::new(),
            having: None,
            window: None,
            distinct: false,
            set_op: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The rendered select-list items, in output order.
    pub fn select_items(&self) -> Vec<&str> {
        let mut items: Vec<&str> = Vec::new();
        if self.group_by.is_empty() {
            items.extend(self.projection.iter().map(|i| i.text.as_str()));
            if let Some(w) = &self.window {
                items.push(w.as_str());
            }
        } else {
            items.extend(self.group_by.iter().map(|i| i.text.as_str()));
            items.extend(self.aggs.iter().map(|i| i.text.as_str()));
        }
        items
    }

    /// Renders the query core (select/from/where/group/having) without
    /// set operation, ORDER BY or LIMIT.
    fn write_core(&self, out: &mut String) {
        out.push_str("select ");
        if self.distinct {
            out.push_str("distinct ");
        }
        let items = self.select_items();
        debug_assert!(!items.is_empty(), "spec must project something");
        out.push_str(&items.join(", "));
        let _ = write!(out, " from {}", self.base);
        for j in &self.joins {
            let kind = if j.left { "left join" } else { "join" };
            let _ = write!(out, " {kind} {} on ", j.table);
            match j.on {
                OnMode::Plain => {
                    let _ = write!(out, "{} = {}", j.fk_col, j.pk_col);
                }
                OnMode::NullKey => {
                    let _ = write!(out, "nullif({}, {}) = {}", j.fk_col, j.fk_col, j.pk_col);
                }
                OnMode::SkewMod(m) => {
                    let _ = write!(out, "{} % {m} = {} % {m}", j.fk_col, j.pk_col);
                }
            }
        }
        if !self.predicates.is_empty() {
            out.push_str(" where ");
            let preds: Vec<&str> = self.predicates.iter().map(|p| p.text.as_str()).collect();
            out.push_str(&preds.join(" and "));
        }
        if !self.group_by.is_empty() {
            out.push_str(" group by ");
            let keys: Vec<&str> = self.group_by.iter().map(|k| k.text.as_str()).collect();
            out.push_str(&keys.join(", "));
            if let Some(h) = &self.having {
                let _ = write!(out, " having {h}");
            }
        }
    }

    /// Renders the complete SQL statement.
    pub fn sql(&self) -> String {
        let mut out = String::new();
        self.write_core(&mut out);
        if let Some((op, arm)) = &self.set_op {
            let _ = write!(out, " {op} ");
            arm.write_core(&mut out);
        }
        if !self.order_by.is_empty() {
            let width = self.select_items().len();
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|o| (*o).clamp(1, width.max(1)).to_string())
                .collect();
            out.push_str(" order by ");
            out.push_str(&keys.join(", "));
        }
        if let Some(n) = self.limit {
            let _ = write!(out, " limit {n}");
        }
        out
    }

    /// All tables referenced by the query, base first, join order after.
    pub fn tables(&self) -> Vec<&str> {
        let mut t = vec![self.base.as_str()];
        t.extend(self.joins.iter().map(|j| j.table.as_str()));
        t
    }
}

/// Renders a runtime [`tpcds_types::Value`] as a SQL literal in the
/// engine's dialect (`''`-escaped strings, `date 'Y-M-D'`).
pub fn sql_literal(v: &tpcds_types::Value) -> String {
    use tpcds_types::Value;
    match v {
        Value::Null => "null".to_string(),
        Value::Int(x) => x.to_string(),
        Value::Decimal(d) => d.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("date '{d}'"),
        Value::Bool(b) => b.to_string(),
        // Times have no literal form in the dialect; the generator never
        // builds predicates over them, but render something parseable.
        Value::Time(_) => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_join_agg_shape() {
        let mut s = QuerySpec::new(ShapeClass::JoinAgg, "store_sales");
        s.joins.push(JoinEdge {
            table: "date_dim".into(),
            fk_table: "store_sales".into(),
            fk_col: "ss_sold_date_sk".into(),
            pk_col: "d_date_sk".into(),
            left: false,
            on: OnMode::Plain,
        });
        s.predicates.push(Item::on("date_dim", "d_year = 2000"));
        s.group_by.push(Item::on("date_dim", "d_moy"));
        s.aggs.push(Item::free("count(*)"));
        s.order_by = vec![1];
        assert_eq!(
            s.sql(),
            "select d_moy, count(*) from store_sales join date_dim \
             on ss_sold_date_sk = d_date_sk where d_year = 2000 \
             group by d_moy order by 1"
        );
    }

    #[test]
    fn ordinals_clamp_to_select_width() {
        let mut s = QuerySpec::new(ShapeClass::ScanFilter, "item");
        s.projection.push(Item::free("i_item_sk"));
        s.order_by = vec![3];
        assert!(s.sql().ends_with("order by 1"));
    }

    #[test]
    fn set_op_arm_ignores_inner_order() {
        let mut left = QuerySpec::new(ShapeClass::SetOp, "item");
        left.projection.push(Item::free("i_color"));
        let mut right = left.clone();
        right.order_by = vec![1];
        right.limit = Some(5);
        left.set_op = Some(("union".into(), Box::new(right)));
        left.order_by = vec![1];
        assert_eq!(
            left.sql(),
            "select i_color from item union select i_color from item order by 1"
        );
    }

    #[test]
    fn adversarial_on_modes_render() {
        let mut s = QuerySpec::new(ShapeClass::NullKeyJoin, "store_sales");
        s.joins.push(JoinEdge {
            table: "store".into(),
            fk_table: "store_sales".into(),
            fk_col: "ss_store_sk".into(),
            pk_col: "s_store_sk".into(),
            left: true,
            on: OnMode::NullKey,
        });
        s.aggs.push(Item::free("count(*)"));
        s.group_by.push(Item::free("ss_item_sk"));
        assert!(s
            .sql()
            .contains("left join store on nullif(ss_store_sk, ss_store_sk) = s_store_sk"));
    }
}
