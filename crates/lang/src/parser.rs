//! Recursive-descent parser for the HiveQL subset.
//!
//! Precedence (low→high): `OR` < `AND` < `NOT` < comparison/`LIKE`/`IS NULL`
//! < additive < multiplicative < unary minus < primary.

use crate::ast::*;
use crate::lexer::{lex, Keyword, Token};
use miso_common::{MisoError, Result};
use miso_data::DataType;

/// How deep a query may nest. Each parenthesis, `CAST` or call argument
/// list, unary `NOT` / `-`, derived table or `APPLY`, and each operator of
/// an `AND` / `OR` / arithmetic chain or `JOIN` list is one level of the
/// tree that parsing, lowering and dropping walk recursively; past this the
/// query is a [`MisoError::Parse`] instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parses one SELECT query; trailing tokens are an error.
pub fn parse(sql: &str) -> Result<Query> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.parse_query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting open at `pos` (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    /// Opens one more level of nesting; the caller closes it by restoring
    /// `depth`.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(MisoError::Parse(format!(
                "query nests deeper than the limit of {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// Runs `f` one level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.descend()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: &str) -> MisoError {
        MisoError::Parse(format!("{msg}, found {}", self.peek()))
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if *self.peek() == Token::Keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {kw:?}")))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {t}")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(self.error("expected end of query"))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(MisoError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        self.expect_kw(Keyword::Select)?;
        let select = self.parse_select_list()?;
        self.expect_kw(Keyword::From)?;
        let from = self.parse_from()?;
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::Limit) {
            match self.bump() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(MisoError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.eat_kw(Keyword::As) {
                Some(self.expect_ident()?)
            } else if let Token::Ident(_) = self.peek() {
                // bare alias: `expr alias`
                Some(self.expect_ident()?)
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_from(&mut self) -> Result<FromClause> {
        let base = self.depth;
        let first = self.parse_table_ref()?;
        let mut joins = Vec::new();
        while self.eat_kw(Keyword::Join) {
            self.descend()?;
            let table = self.parse_table_ref()?;
            self.expect_kw(Keyword::On)?;
            let on = self.parse_expr()?;
            joins.push(JoinItem { table, on });
        }
        self.depth = base;
        Ok(FromClause { first, joins })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            let query = self.nested(Self::parse_query)?;
            self.expect(&Token::RParen)?;
            let alias = self.parse_alias(true, "derived table")?;
            Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            })
        } else if self.eat_kw(Keyword::Apply) {
            self.expect(&Token::LParen)?;
            let udf = self.expect_ident()?;
            self.expect(&Token::Comma)?;
            let input = self.nested(Self::parse_table_ref)?;
            self.expect(&Token::RParen)?;
            let alias = self.parse_alias(true, "APPLY")?;
            Ok(TableRef::Apply {
                udf,
                input: Box::new(input),
                alias,
            })
        } else {
            let name = self.expect_ident()?;
            let alias = self.parse_alias(false, "table")?;
            let alias = if alias.is_empty() {
                name.clone()
            } else {
                alias
            };
            Ok(TableRef::Base { name, alias })
        }
    }

    /// Parses an optional `AS alias` or bare-identifier alias. If `required`
    /// and missing, errors. Returns `""` when optional and absent.
    fn parse_alias(&mut self, required: bool, what: &str) -> Result<String> {
        if self.eat_kw(Keyword::As) {
            return self.expect_ident();
        }
        if let Token::Ident(_) = self.peek() {
            return self.expect_ident();
        }
        if required {
            Err(self.error(&format!("{what} requires an alias")))
        } else {
            Ok(String::new())
        }
    }

    // ---- expressions ----

    fn parse_expr(&mut self) -> Result<SqlExpr> {
        self.parse_or()
    }

    /// A left-associative chain `operand (op operand)*`, where `op_of` names
    /// the operator a token stands for; each operator is one level deeper.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<SqlExpr>,
        op_of: fn(&Token) -> Option<SqlBinOp>,
    ) -> Result<SqlExpr> {
        let base = self.depth;
        let mut left = operand(self)?;
        while let Some(op) = op_of(self.peek()) {
            self.bump();
            self.descend()?;
            let right = operand(self)?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn parse_or(&mut self) -> Result<SqlExpr> {
        self.parse_chain(Self::parse_and, |t| {
            (*t == Token::Keyword(Keyword::Or)).then_some(SqlBinOp::Or)
        })
    }

    fn parse_and(&mut self) -> Result<SqlExpr> {
        self.parse_chain(Self::parse_not, |t| {
            (*t == Token::Keyword(Keyword::And)).then_some(SqlBinOp::And)
        })
    }

    fn parse_not(&mut self) -> Result<SqlExpr> {
        if self.eat_kw(Keyword::Not) {
            Ok(SqlExpr::Not(Box::new(self.nested(Self::parse_not)?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<SqlExpr> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            Token::Eq => Some(SqlBinOp::Eq),
            Token::Ne => Some(SqlBinOp::Ne),
            Token::Lt => Some(SqlBinOp::Lt),
            Token::Le => Some(SqlBinOp::Le),
            Token::Gt => Some(SqlBinOp::Gt),
            Token::Ge => Some(SqlBinOp::Ge),
            Token::Keyword(Keyword::Like) => Some(SqlBinOp::Like),
            Token::Keyword(Keyword::Is) => None,
            _ => return Ok(left),
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        // IS [NOT] NULL
        self.expect_kw(Keyword::Is)?;
        let negated = self.eat_kw(Keyword::Not);
        self.expect_kw(Keyword::Null)?;
        Ok(SqlExpr::IsNull {
            expr: Box::new(left),
            negated,
        })
    }

    fn parse_additive(&mut self) -> Result<SqlExpr> {
        self.parse_chain(Self::parse_multiplicative, |t| match t {
            Token::Plus => Some(SqlBinOp::Add),
            Token::Minus => Some(SqlBinOp::Sub),
            _ => None,
        })
    }

    fn parse_multiplicative(&mut self) -> Result<SqlExpr> {
        self.parse_chain(Self::parse_unary, |t| match t {
            Token::Star => Some(SqlBinOp::Mul),
            Token::Slash => Some(SqlBinOp::Div),
            Token::Percent => Some(SqlBinOp::Mod),
            _ => None,
        })
    }

    fn parse_unary(&mut self) -> Result<SqlExpr> {
        if self.eat(&Token::Minus) {
            Ok(SqlExpr::Neg(Box::new(self.nested(Self::parse_unary)?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<SqlExpr> {
        match self.bump() {
            Token::Int(i) => Ok(SqlExpr::Int(i)),
            Token::Float(f) => Ok(SqlExpr::Float(f)),
            Token::Str(s) => Ok(SqlExpr::Str(s)),
            Token::Keyword(Keyword::True) => Ok(SqlExpr::Bool(true)),
            Token::Keyword(Keyword::False) => Ok(SqlExpr::Bool(false)),
            Token::Keyword(Keyword::Null) => Ok(SqlExpr::Null),
            Token::LParen => {
                let e = self.nested(Self::parse_expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(Keyword::Cast) => {
                self.expect(&Token::LParen)?;
                let e = self.nested(Self::parse_expr)?;
                self.expect_kw(Keyword::As)?;
                let ty = match self.bump() {
                    Token::Keyword(Keyword::Int) => DataType::Int,
                    Token::Keyword(Keyword::Float) => DataType::Float,
                    Token::Keyword(Keyword::String) => DataType::Str,
                    Token::Keyword(Keyword::Bool) => DataType::Bool,
                    other => {
                        return Err(MisoError::Parse(format!(
                            "expected a type name in CAST, found {other}"
                        )))
                    }
                };
                self.expect(&Token::RParen)?;
                Ok(SqlExpr::Cast {
                    expr: Box::new(e),
                    ty,
                })
            }
            Token::Ident(name) => {
                if self.eat(&Token::Dot) {
                    // qualified column: alias.field (or alias.*, unsupported)
                    let field = self.expect_ident()?;
                    Ok(SqlExpr::Column {
                        qualifier: Some(name),
                        name: field,
                    })
                } else if self.eat(&Token::LParen) {
                    self.nested(|p| p.parse_call(name.to_lowercase()))
                } else {
                    Ok(SqlExpr::Column {
                        qualifier: None,
                        name,
                    })
                }
            }
            other => Err(MisoError::Parse(format!(
                "expected an expression, found {other}"
            ))),
        }
    }

    fn parse_call(&mut self, name: String) -> Result<SqlExpr> {
        // COUNT(*), COUNT(DISTINCT x), f(a, b, ...)
        if self.eat(&Token::Star) {
            self.expect(&Token::RParen)?;
            return Ok(SqlExpr::Call {
                name,
                distinct: false,
                star: true,
                args: vec![],
            });
        }
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut args = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    self.expect(&Token::RParen)?;
                    break;
                }
            }
        }
        Ok(SqlExpr::Call {
            name,
            distinct,
            star: false,
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query() {
        let q = parse("SELECT t.city FROM twitter t").unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.from.first.alias(), "t");
        assert!(q.where_clause.is_none());
        assert!(q.group_by.is_empty());
        assert!(q.limit.is_none());
    }

    #[test]
    fn parses_full_query() {
        let q = parse(
            "SELECT t.user_id AS uid, COUNT(*) AS n \
             FROM twitter t JOIN foursquare f ON t.user_id = f.user_id \
             WHERE t.followers > 100 AND array_contains(t.hashtags, 'pizza') \
             GROUP BY t.user_id HAVING COUNT(*) > 2 \
             ORDER BY n DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.select[0].alias.as_deref(), Some("uid"));
        assert_eq!(q.from.joins.len(), 1);
        assert!(q.where_clause.is_some());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn operator_precedence() {
        let q = parse("SELECT a + b * c FROM t x WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // a + (b * c)
        match &q.select[0].expr {
            SqlExpr::Binary {
                op: SqlBinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    **right,
                    SqlExpr::Binary {
                        op: SqlBinOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        // a=1 OR (b=2 AND c=3)
        match q.where_clause.as_ref().unwrap() {
            SqlExpr::Binary {
                op: SqlBinOp::Or,
                right,
                ..
            } => {
                assert!(matches!(
                    **right,
                    SqlExpr::Binary {
                        op: SqlBinOp::And,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn derived_table_and_apply() {
        let q = parse("SELECT d.uid FROM (SELECT t.user_id AS uid FROM twitter t) d").unwrap();
        assert!(matches!(q.from.first, TableRef::Derived { .. }));
        let q2 = parse("SELECT x.s FROM APPLY(sentiment, twitter) x").unwrap();
        match &q2.from.first {
            TableRef::Apply { udf, input, alias } => {
                assert_eq!(udf, "sentiment");
                assert_eq!(alias, "x");
                assert!(matches!(**input, TableRef::Base { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_apply() {
        let q = parse("SELECT x.s FROM APPLY(outer_udf, APPLY(inner_udf, twitter) y) x").unwrap();
        match &q.from.first {
            TableRef::Apply { input, .. } => {
                assert!(matches!(**input, TableRef::Apply { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_variants() {
        let q = parse("SELECT COUNT(*), COUNT(DISTINCT t.uid), SUM(t.x) FROM t t").unwrap();
        match &q.select[0].expr {
            SqlExpr::Call { star, .. } => assert!(star),
            other => panic!("unexpected {other:?}"),
        }
        match &q.select[1].expr {
            SqlExpr::Call { distinct, args, .. } => {
                assert!(distinct);
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn is_null_and_not() {
        let q = parse("SELECT a FROM t t WHERE a IS NOT NULL AND NOT b = 1").unwrap();
        let w = q.where_clause.unwrap();
        match w {
            SqlExpr::Binary {
                op: SqlBinOp::And,
                left,
                right,
            } => {
                assert!(matches!(*left, SqlExpr::IsNull { negated: true, .. }));
                assert!(matches!(*right, SqlExpr::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cast_expression() {
        let q = parse("SELECT CAST(t.x AS INT) FROM t t").unwrap();
        assert!(matches!(
            q.select[0].expr,
            SqlExpr::Cast {
                ty: DataType::Int,
                ..
            }
        ));
    }

    #[test]
    fn rejects_trailing_tokens_and_bad_syntax() {
        assert!(parse("SELECT a FROM t t extra junk()").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a").is_err());
        assert!(
            parse("SELECT a FROM (SELECT b FROM t t)").is_err(),
            "derived needs alias"
        );
        assert!(parse("SELECT a FROM t t LIMIT x").is_err());
    }

    /// One query per form of nesting, each `n` levels deep.
    fn nested_queries(n: usize) -> Vec<(&'static str, String)> {
        vec![
            (
                "parentheses",
                format!("SELECT {}1{} FROM t t", "(".repeat(n), ")".repeat(n)),
            ),
            (
                "calls",
                format!("SELECT {}1{} FROM t t", "abs(".repeat(n), ")".repeat(n)),
            ),
            (
                "casts",
                format!(
                    "SELECT {}1{} FROM t t",
                    "CAST(".repeat(n),
                    " AS INT)".repeat(n)
                ),
            ),
            (
                "NOT",
                format!("SELECT a FROM t t WHERE {}a", "NOT ".repeat(n)),
            ),
            (
                "unary minus",
                format!("SELECT {}1 FROM t t", "- ".repeat(n)),
            ),
            (
                "derived tables",
                format!(
                    "SELECT a FROM {}t t{}",
                    "(SELECT a FROM ".repeat(n),
                    ") d".repeat(n)
                ),
            ),
            (
                "APPLY",
                format!(
                    "SELECT a FROM {}t{}",
                    "APPLY(u, ".repeat(n),
                    ") x".repeat(n)
                ),
            ),
            (
                "AND chain",
                format!("SELECT a FROM t t WHERE a{}", " AND a".repeat(n)),
            ),
            ("+ chain", format!("SELECT 1{} FROM t t", " + 1".repeat(n))),
            ("* chain", format!("SELECT 1{} FROM t t", " * 1".repeat(n))),
            (
                "JOIN list",
                format!("SELECT a FROM t t{}", " JOIN t u ON a".repeat(n)),
            ),
        ]
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        for (form, sql) in nested_queries(MAX_DEPTH) {
            assert!(parse(&sql).is_ok(), "{form}: {:?}", parse(&sql).err());
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        for n in [MAX_DEPTH + 1, 100_000] {
            for (form, sql) in nested_queries(n) {
                match parse(&sql) {
                    Err(MisoError::Parse(msg)) => {
                        assert!(msg.contains(&MAX_DEPTH.to_string()), "{form}: {msg}")
                    }
                    other => panic!("{form} at depth {n}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn like_operator() {
        let q = parse("SELECT a FROM t t WHERE t.name LIKE 'foo'").unwrap();
        assert!(matches!(
            q.where_clause.unwrap(),
            SqlExpr::Binary {
                op: SqlBinOp::Like,
                ..
            }
        ));
    }
}
