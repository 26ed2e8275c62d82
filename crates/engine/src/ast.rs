//! The abstract syntax tree produced by the parser.

use tpcds_types::Value;

/// A full query: optional CTEs plus a set-expression body.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH name AS (query), ...`
    pub ctes: Vec<(String, Query)>,
    /// The body (SELECT, possibly combined with set operators).
    pub body: SetExpr,
    /// `ORDER BY` applying to the whole body.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
}

/// A set expression: a SELECT or a combination of two set expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// Plain SELECT.
    Select(Box<Select>),
    /// `left op right`.
    SetOp {
        /// UNION / INTERSECT / EXCEPT.
        op: SetOpKind,
        /// Keep duplicates (`ALL`).
        all: bool,
        /// Left input.
        left: Box<SetExpr>,
        /// Right input.
        right: Box<SetExpr>,
    },
    /// Parenthesized sub-query used as a set operand.
    Query(Box<Query>),
}

/// UNION / INTERSECT / EXCEPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// Set union.
    Union,
    /// Set intersection.
    Intersect,
    /// Set difference.
    Except,
}

/// One SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection items.
    pub items: Vec<SelectItem>,
    /// FROM sources (comma-joined).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions; `rollup` marks `GROUP BY ROLLUP(...)`.
    pub group_by: Vec<Expr>,
    /// True when the GROUP BY is a ROLLUP.
    pub rollup: bool,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `qualifier.*`
    QualifiedWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A FROM-clause source.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE reference with optional alias.
    Table {
        /// Table / CTE name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// Derived table: `(query) alias`.
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Alias (required in practice).
        alias: String,
    },
    /// Explicit join.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (None only for CROSS).
        on: Option<Expr>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
    /// CROSS JOIN (no condition).
    Cross,
}

/// Sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// The key expression (may be an alias or 1-based ordinal literal).
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// Scalar expression grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified.
    Column {
        /// `table.` qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// NOT.
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// IS NOT NULL?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// NOT BETWEEN?
        negated: bool,
    },
    /// `expr [NOT] IN (list)` or `expr [NOT] IN (subquery)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// The list.
        list: Vec<Expr>,
        /// NOT IN?
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Operand.
        expr: Box<Expr>,
        /// Subquery.
        query: Box<Query>,
        /// NOT IN?
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// Subquery.
        query: Box<Query>,
        /// NOT EXISTS?
        negated: bool,
    },
    /// Scalar subquery.
    Subquery(Box<Query>),
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Operand.
        expr: Box<Expr>,
        /// Pattern (`%`/`_` wildcards).
        pattern: Box<Expr>,
        /// NOT LIKE?
        negated: bool,
    },
    /// Function call (scalar or aggregate — disambiguated by the binder).
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments (empty for `count(*)` with `star = true`).
        args: Vec<Expr>,
        /// `count(*)`.
        star: bool,
        /// `DISTINCT` inside an aggregate.
        distinct: bool,
    },
    /// Window function: `func(args) OVER (PARTITION BY ... ORDER BY ...)`.
    Window {
        /// Function name.
        name: String,
        /// Arguments (empty for `count(*)` with `star = true`).
        args: Vec<Expr>,
        /// `count(*)`.
        star: bool,
        /// `DISTINCT` inside the call.
        distinct: bool,
        /// PARTITION BY expressions.
        partition_by: Vec<Expr>,
        /// ORDER BY items.
        order_by: Vec<OrderItem>,
    },
    /// CASE expression.
    Case {
        /// `CASE operand WHEN ...` form.
        operand: Option<Box<Expr>>,
        /// (condition/value, result) branches.
        branches: Vec<(Expr, Expr)>,
        /// ELSE.
        else_branch: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)` — target type name kept textual.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Lower-cased type name, e.g. "date", "integer", "decimal".
        ty: String,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// AND
    And,
    /// OR
    Or,
    /// `||`
    Concat,
}
