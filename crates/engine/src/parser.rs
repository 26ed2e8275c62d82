//! Recursive-descent SQL parser covering the dialect the 99 TPC-DS query
//! templates use (see DESIGN.md "Engine SQL dialect").

use crate::ast::*;
use crate::error::{EngineError, Result};
use crate::lexer::{lex, Sym, Token};
use tpcds_types::{Date, Decimal, Value};

/// Parses one SQL statement into a [`Query`].
pub fn parse(sql: &str) -> Result<Query> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    p.eat_sym(Sym::Semicolon);
    if !p.at_end() {
        return Err(EngineError::parse(format!(
            "trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(q)
}

/// Maximum expression/query nesting depth. Recursive descent uses the
/// call stack; a bound turns pathological inputs into errors instead of
/// stack overflows. The TPC-DS query set nests no deeper than ~8.
const MAX_DEPTH: usize = 96;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the keyword if present; returns whether it was.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(EngineError::parse(format!(
                "expected {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(EngineError::parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(EngineError::parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // ---------- query ----------

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                self.expect_kw("as")?;
                self.expect_sym(Sym::LParen)?;
                let q = self.query()?;
                self.expect_sym(Sym::RParen)?;
                ctes.push((name, q));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let body = self.set_expr(false)?;
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Number(n)) => {
                    limit = Some(
                        n.parse::<u64>()
                            .map_err(|e| EngineError::parse(format!("bad LIMIT {n:?}: {e}")))?,
                    )
                }
                other => {
                    return Err(EngineError::parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        }
        // "fetch first N rows only" used by some TPC-DS variants.
        if self.eat_kw("fetch") {
            self.expect_kw("first")?;
            match self.next() {
                Some(Token::Number(n)) => {
                    limit =
                        Some(n.parse::<u64>().map_err(|e| {
                            EngineError::parse(format!("bad FETCH FIRST {n:?}: {e}"))
                        })?)
                }
                other => {
                    return Err(EngineError::parse(format!(
                        "expected row count, found {other:?}"
                    )))
                }
            }
            self.expect_kw("rows")?;
            self.expect_kw("only")?;
        }
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
        })
    }

    /// A left-associative chain of set operators. INTERSECT binds tighter
    /// than UNION and EXCEPT (standard SQL): the `tight` level chains
    /// INTERSECTs over operands, the outer level chains UNION / EXCEPT
    /// over those.
    fn set_expr(&mut self, tight: bool) -> Result<SetExpr> {
        let operand = |p: &mut Self| {
            if tight {
                p.set_primary()
            } else {
                p.set_expr(true)
            }
        };
        let mut left = operand(self)?;
        loop {
            let op = if tight && self.peek_kw("intersect") {
                SetOpKind::Intersect
            } else if !tight && self.peek_kw("union") {
                SetOpKind::Union
            } else if !tight && self.peek_kw("except") {
                SetOpKind::Except
            } else {
                break;
            };
            self.pos += 1;
            let all = self.eat_kw("all");
            let right = operand(self)?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn set_primary(&mut self) -> Result<SetExpr> {
        if self.eat_sym(Sym::LParen) {
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(SetExpr::Query(Box::new(q)));
        }
        Ok(SetExpr::Select(Box::new(self.select()?)))
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        let mut rollup = false;
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            if self.eat_kw("rollup") {
                rollup = true;
                self.expect_sym(Sym::LParen)?;
                loop {
                    group_by.push(self.expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
                self.expect_sym(Sym::RParen)?;
            } else {
                loop {
                    group_by.push(self.expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            rollup,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // qualifier.*
        if let (Some(Token::Ident(q)), Some(Token::Symbol(Sym::Dot))) = (self.peek(), self.peek2())
        {
            if self.tokens.get(self.pos + 2) == Some(&Token::Symbol(Sym::Star)) {
                let q = q.clone();
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            // Bare alias, unless it's a clause keyword.
            const CLAUSE_KEYWORDS: [&str; 13] = [
                "from",
                "where",
                "group",
                "having",
                "order",
                "limit",
                "union",
                "intersect",
                "except",
                "on",
                "join",
                "fetch",
                "as",
            ];
            if CLAUSE_KEYWORDS.contains(&s.as_str()) {
                None
            } else {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut t = self.table_primary()?;
        loop {
            let kind = if self.peek_kw("join") || self.peek_kw("inner") {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.peek_kw("left") {
                self.pos += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.peek_kw("cross") {
                self.pos += 1;
                self.expect_kw("join")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("on")?;
                Some(self.expr()?)
            };
            t = TableRef::Join {
                left: Box::new(t),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(t)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat_sym(Sym::LParen) {
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(q),
                alias,
            });
        }
        let mut name = self.ident()?;
        // Dotted table names (`sys.query_log`): fold the qualifier into
        // one catalog name. Column references never reach here, so a dot
        // after a table primary is unambiguous.
        while self.eat_sym(Sym::Dot) {
            name.push('.');
            name.push_str(&self.ident()?);
        }
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            const STOP: [&str; 16] = [
                "where",
                "group",
                "having",
                "order",
                "limit",
                "union",
                "intersect",
                "except",
                "on",
                "join",
                "inner",
                "left",
                "cross",
                "fetch",
                "as",
                "right",
            ];
            if STOP.contains(&s.as_str()) {
                None
            } else {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            }
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---------- expressions (precedence climbing) ----------

    /// OR level.
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(EngineError::parse(format!(
                "expression nests deeper than {MAX_DEPTH} levels"
            )));
        }
        let result = self.expr_inner();
        self.depth -= 1;
        result
    }

    fn expr_inner(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.predicate()
    }

    /// Comparison / BETWEEN / IN / LIKE / IS NULL level.
    fn predicate(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_kw("not")
            && matches!(self.peek2(), Some(Token::Ident(s)) if s == "between" || s == "in" || s == "like")
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_sym(Sym::LParen)?;
            if self.peek_kw("select") || self.peek_kw("with") {
                let q = self.query()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(EngineError::parse("dangling NOT"));
        }
        // plain comparison
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::Ne)) => Some(BinOp::Ne),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinOp::Sub,
                Some(Token::Symbol(Sym::Concat)) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinOp::Div,
                Some(Token::Symbol(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_sym(Sym::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                if n.contains('.') {
                    let d: Decimal = n
                        .parse()
                        .map_err(|e| EngineError::parse(format!("bad number {n:?}: {e}")))?;
                    Ok(Expr::Literal(Value::Decimal(d)))
                } else {
                    let v: i64 = n
                        .parse()
                        .map_err(|e| EngineError::parse(format!("bad number {n:?}: {e}")))?;
                    Ok(Expr::Literal(Value::Int(v)))
                }
            }
            Some(Token::String(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::str(s)))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                if self.peek_kw("select") || self.peek_kw("with") {
                    let q = self.query()?;
                    self.expect_sym(Sym::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(id)) => self.ident_expr(id),
            Some(Token::QuotedIdent(id)) => {
                self.pos += 1;
                Ok(Expr::Column {
                    qualifier: None,
                    name: id,
                })
            }
            other => Err(EngineError::parse(format!("unexpected token {other:?}"))),
        }
    }

    fn ident_expr(&mut self, id: String) -> Result<Expr> {
        match id.as_str() {
            "null" => {
                self.pos += 1;
                return Ok(Expr::Literal(Value::Null));
            }
            "true" => {
                self.pos += 1;
                return Ok(Expr::Literal(Value::Bool(true)));
            }
            "false" => {
                self.pos += 1;
                return Ok(Expr::Literal(Value::Bool(false)));
            }
            "date" => {
                // DATE 'YYYY-MM-DD' literal.
                if let Some(Token::String(s)) = self.peek2().cloned() {
                    self.pos += 2;
                    let d: Date = s
                        .parse()
                        .map_err(|e| EngineError::parse(format!("bad date literal: {e}")))?;
                    return Ok(Expr::Literal(Value::Date(d)));
                }
            }
            "interval" => {
                // INTERVAL 'n' DAY — evaluates to an integer day count.
                if let Some(Token::String(s)) = self.peek2().cloned() {
                    self.pos += 2;
                    self.eat_kw("day");
                    self.eat_kw("days");
                    let n: i64 = s
                        .trim()
                        .parse()
                        .map_err(|e| EngineError::parse(format!("bad interval: {e}")))?;
                    return Ok(Expr::Literal(Value::Int(n)));
                }
            }
            "case" => {
                self.pos += 1;
                return self.case_expr();
            }
            "cast" => {
                self.pos += 1;
                self.expect_sym(Sym::LParen)?;
                let e = self.expr()?;
                self.expect_kw("as")?;
                let ty = self.ident()?;
                // swallow (p, s) of decimal(p, s) and (n) of char(n)
                if self.eat_sym(Sym::LParen) {
                    while !self.eat_sym(Sym::RParen) {
                        self.pos += 1;
                    }
                }
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Cast {
                    expr: Box::new(e),
                    ty,
                });
            }
            "exists" => {
                self.pos += 1;
                self.expect_sym(Sym::LParen)?;
                let q = self.query()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: false,
                });
            }
            "not" => {
                // handled at not_expr level; `NOT EXISTS` may also reach
                // here through nested contexts.
                self.pos += 1;
                self.expect_kw("exists")?;
                self.expect_sym(Sym::LParen)?;
                let q = self.query()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: true,
                });
            }
            _ => {}
        }
        // function call?
        if self.peek2() == Some(&Token::Symbol(Sym::LParen)) {
            self.pos += 2;
            return self.function_call(id);
        }
        // qualified column?
        self.pos += 1;
        if self.eat_sym(Sym::Dot) {
            let name = self.ident()?;
            return Ok(Expr::Column {
                qualifier: Some(id),
                name,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: id,
        })
    }

    fn function_call(&mut self, name: String) -> Result<Expr> {
        let mut star = false;
        let mut distinct = false;
        let mut args = Vec::new();
        if self.eat_sym(Sym::Star) {
            star = true;
            self.expect_sym(Sym::RParen)?;
        } else if self.eat_sym(Sym::RParen) {
            // zero-arg function
        } else {
            distinct = self.eat_kw("distinct");
            loop {
                args.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
            self.expect_sym(Sym::RParen)?;
        }
        // OVER clause → window function
        if self.eat_kw("over") {
            self.expect_sym(Sym::LParen)?;
            let mut partition_by = Vec::new();
            if self.eat_kw("partition") {
                self.expect_kw("by")?;
                loop {
                    partition_by.push(self.expr()?);
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
            }
            let mut order_by = Vec::new();
            if self.eat_kw("order") {
                self.expect_kw("by")?;
                loop {
                    let expr = self.expr()?;
                    let desc = if self.eat_kw("desc") {
                        true
                    } else {
                        self.eat_kw("asc");
                        false
                    };
                    order_by.push(OrderItem { expr, desc });
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
            }
            // The executor implements the default frame only: spelled out
            // it parses, any other frame is refused by name.
            if self.peek_kw("rows") || self.peek_kw("range") {
                let mut words = Vec::new();
                while !self.eat_sym(Sym::RParen) {
                    match self.next() {
                        Some(Token::Ident(w) | Token::Number(w)) => words.push(w),
                        Some(other) => words.push(format!("{other:?}")),
                        None => return Err(EngineError::parse("unterminated OVER clause")),
                    }
                }
                let frame = words.join(" ");
                if frame != "range between unbounded preceding and current row" {
                    return Err(EngineError::parse(format!(
                        "window frame `{frame}` is not supported: only the default, \
                         `range between unbounded preceding and current row`"
                    )));
                }
            } else {
                self.expect_sym(Sym::RParen)?;
            }
            return Ok(Expr::Window {
                name,
                args,
                star,
                distinct,
                partition_by,
                order_by,
            });
        }
        Ok(Expr::Function {
            name,
            args,
            star,
            distinct,
        })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let operand = if self.peek_kw("when") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let result = self.expr()?;
            branches.push((cond, result));
        }
        let else_branch = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse(sql).unwrap().body {
            SetExpr::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = sel("select 1");
        assert_eq!(s.items.len(), 1);
        assert!(s.from.is_empty());
    }

    #[test]
    fn query52_shape_parses() {
        let q = parse(
            "SELECT dt.d_year, item.i_brand_id brand_id, item.i_brand brand,
                    SUM(ss_ext_sales_price) ext_price
             FROM date_dim dt, store_sales, item
             WHERE dt.d_date_sk = store_sales.ss_sold_date_sk
               AND store_sales.ss_item_sk = item.i_item_sk
               AND item.i_manager_id = 1
               AND dt.d_moy = 11
               AND dt.d_year = 2000
             GROUP BY dt.d_year, item.i_brand, item.i_brand_id
             ORDER BY dt.d_year, ext_price desc, brand_id
             LIMIT 100;",
        )
        .unwrap();
        assert_eq!(q.order_by.len(), 3);
        assert!(q.order_by[1].desc);
        assert_eq!(q.limit, Some(100));
        match q.body {
            SetExpr::Select(s) => {
                assert_eq!(s.from.len(), 3);
                assert_eq!(s.group_by.len(), 3);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn query20_window_function_parses() {
        let q = parse(
            "SELECT i_item_desc, i_category, i_class, i_current_price,
                    SUM(cs_ext_sales_price) AS itemrevenue,
                    SUM(cs_ext_sales_price)*100/SUM(SUM(cs_ext_sales_price)) OVER
                        (PARTITION BY i_class) AS revenueratio
             FROM catalog_sales, item, date_dim
             WHERE cs_item_sk = i_item_sk
               AND i_category in ('Sports', 'Books', 'Home')
               AND cs_sold_date_sk = d_date_sk
               AND d_date BETWEEN '1999-02-21' AND '1999-03-21'
             GROUP BY i_item_id, i_item_desc, i_category, i_class, i_current_price
             ORDER BY i_category, i_class, i_item_id, i_item_desc, revenueratio",
        )
        .unwrap();
        let s = match q.body {
            SetExpr::Select(s) => s,
            _ => panic!(),
        };
        // last select item contains a window expr
        let last = s.items.last().unwrap();
        fn has_window(e: &Expr) -> bool {
            match e {
                Expr::Window { .. } => true,
                Expr::Binary { left, right, .. } => has_window(left) || has_window(right),
                _ => false,
            }
        }
        match last {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(alias.as_deref(), Some("revenueratio"));
                assert!(has_window(expr));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn cte_and_setops() {
        let q = parse(
            "with ssales as (select ss_item_sk x from store_sales)
             select x from ssales
             union all
             select ws_item_sk from web_sales
             order by 1 limit 10",
        )
        .unwrap();
        assert_eq!(q.ctes.len(), 1);
        match q.body {
            SetExpr::SetOp {
                op: SetOpKind::Union,
                all: true,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_in_like_null() {
        let s = sel("select 1 from t where a between 1 and 10 and b in (1,2,3)
             and c like 'x%' and d is not null and e not in (4)");
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn subqueries() {
        let s = sel("select 1 from t where a in (select b from u) and c > (select max(d) from v)");
        fn count_subqueries(e: &Expr) -> usize {
            match e {
                Expr::InSubquery { .. } => 1,
                Expr::Subquery(_) => 1,
                Expr::Binary { left, right, .. } => {
                    count_subqueries(left) + count_subqueries(right)
                }
                _ => 0,
            }
        }
        assert_eq!(count_subqueries(s.where_clause.as_ref().unwrap()), 2);
    }

    #[test]
    fn case_and_cast() {
        let s = sel("select case when a = 1 then 'one' else 'other' end,
                    cast(b as decimal(15,4)), date '2000-01-01'");
        assert_eq!(s.items.len(), 3);
    }

    #[test]
    fn explicit_joins() {
        let s = sel("select * from a join b on a.x = b.x left join c on b.y = c.y cross join d");
        assert_eq!(s.from.len(), 1);
        match &s.from[0] {
            TableRef::Join {
                kind: JoinKind::Cross,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rollup_group_by() {
        let s = sel("select a, b, sum(c) from t group by rollup(a, b)");
        assert!(s.rollup);
        assert_eq!(s.group_by.len(), 2);
    }

    #[test]
    fn derived_table() {
        let s = sel("select * from (select a from t) sub where sub.a > 1");
        match &s.from[0] {
            TableRef::Subquery { alias, .. } => assert_eq!(alias, "sub"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("select 1 from t bogus extra tokens !").is_err());
    }

    #[test]
    fn count_distinct() {
        let s = sel("select count(distinct a), count(*) from t");
        match &s.items[0] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(distinct),
            other => panic!("{other:?}"),
        }
        match &s.items[1] {
            SelectItem::Expr {
                expr: Expr::Function { star, .. },
                ..
            } => assert!(star),
            other => panic!("{other:?}"),
        }
    }
}
