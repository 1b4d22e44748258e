//! Recursive-descent SQL parser.

use crate::error::{RelError, RelResult};
use crate::schema::DataType;
use crate::value::Value;

use super::ast::*;
use super::lexer::Token;

/// How deep a statement may nest: parenthesized and function-argument
/// expressions, `NOT`, unary signs, each operator of an `AND`/`OR`/
/// arithmetic chain, `UNION ALL` and `EXPLAIN` each count one level.
/// Parsing, binding, optimizing, the disclosure gate and evaluation all
/// recurse once per level, so past this bound the parser returns an
/// error instead of letting a hostile text overflow a 2 MiB session
/// thread's stack.
const MAX_DEPTH: usize = 64;

/// The parser over a token stream.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at `pos` (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Open one nesting level, or fail past [`MAX_DEPTH`].
    fn deeper(&mut self) -> RelResult<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `f` one nesting level down.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> RelResult<T>) -> RelResult<T> {
        self.deeper()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn err(&self, message: impl Into<String>) -> RelError {
        RelError::Parse {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> RelResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_tok(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: &Token) -> RelResult<()> {
        if self.eat_tok(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {tok:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> RelResult<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Parse a `;`-separated list of statements.
    pub fn parse_statements(&mut self) -> RelResult<Vec<Statement>> {
        let mut out = Vec::new();
        loop {
            while self.eat_tok(&Token::Semicolon) {}
            if self.peek().is_none() {
                break;
            }
            out.push(self.parse_statement()?);
        }
        Ok(out)
    }

    fn parse_statement(&mut self) -> RelResult<Statement> {
        let t = self
            .peek()
            .cloned()
            .ok_or_else(|| self.err("empty input"))?;
        if t.is_kw("CREATE") {
            self.pos += 1;
            if self.eat_kw("TABLE") {
                return self.parse_create_table();
            }
            let unique = self.eat_kw("UNIQUE");
            if self.eat_kw("INDEX") {
                return self.parse_create_index(unique);
            }
            return Err(self.err("expected TABLE or [UNIQUE] INDEX after CREATE"));
        }
        if t.is_kw("DROP") {
            self.pos += 1;
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        if t.is_kw("INSERT") {
            self.pos += 1;
            return self.parse_insert();
        }
        if t.is_kw("SELECT") {
            let q = self.parse_select()?;
            return Ok(Statement::Select(q));
        }
        if t.is_kw("UPDATE") {
            self.pos += 1;
            return self.parse_update();
        }
        if t.is_kw("EXPLAIN") {
            self.pos += 1;
            let inner = self.nested(Self::parse_statement)?;
            return Ok(Statement::Explain(Box::new(inner)));
        }
        if t.is_kw("DELETE") {
            self.pos += 1;
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete(Delete { table, filter }));
        }
        Err(self.err(format!("unexpected statement start: {t:?}")))
    }

    fn parse_data_type(&mut self) -> RelResult<DataType> {
        let name = self.ident()?;
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" | "CHAR" => {
                // Optional length: VARCHAR(255)
                if self.eat_tok(&Token::LParen) {
                    self.next(); // the length
                    self.expect_tok(&Token::RParen)?;
                }
                Ok(DataType::Text)
            }
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "DATE" => Ok(DataType::Date),
            other => Err(self.err(format!("unknown type {other}"))),
        }
    }

    fn parse_create_table(&mut self) -> RelResult<Statement> {
        let name = self.ident()?;
        self.expect_tok(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect_tok(&Token::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_tok(&Token::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Token::RParen)?;
            } else {
                let col_name = self.ident()?;
                let data_type = self.parse_data_type()?;
                let mut not_null = false;
                let mut pk = false;
                loop {
                    if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        pk = true;
                        not_null = true;
                    } else if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        not_null = true;
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name: col_name,
                    data_type,
                    not_null,
                    primary_key: pk,
                });
            }
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(&Token::RParen)?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            primary_key,
        }))
    }

    fn parse_create_index(&mut self, unique: bool) -> RelResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_tok(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(&Token::RParen)?;
        let mut btree = false;
        if self.eat_kw("USING") {
            let kind = self.ident()?;
            match kind.to_ascii_uppercase().as_str() {
                "BTREE" => btree = true,
                "HASH" => btree = false,
                other => return Err(self.err(format!("unknown index kind {other}"))),
            }
        }
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
            btree,
        }))
    }

    fn parse_insert(&mut self) -> RelResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_tok(&Token::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            rows.push(row);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn parse_update(&mut self) -> RelResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(&Token::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            filter,
        }))
    }

    /// Parse a SELECT (with optional UNION ALL chain).
    pub fn parse_select(&mut self) -> RelResult<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") {
            Some(self.parse_from()?)
        } else {
            None
        };
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.parse_usize()?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.parse_usize()?);
            }
        }
        let union = if self.eat_kw("UNION") {
            self.expect_kw("ALL")?;
            Some(Box::new(self.nested(Self::parse_select)?))
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
            offset,
            union,
        })
    }

    fn parse_usize(&mut self) -> RelResult<usize> {
        match self.next() {
            Some(Token::Int(n)) if n >= 0 => Ok(n as usize),
            other => Err(self.err(format!("expected non-negative integer, found {other:?}"))),
        }
    }

    fn parse_select_item(&mut self) -> RelResult<SelectItem> {
        if self.eat_tok(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let (Some(Token::Ident(q)), Some(Token::Dot), Some(Token::Star)) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            // bare alias: `SELECT x y` is not supported (ambiguous with our
            // keyword handling); require AS.
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from(&mut self) -> RelResult<FromClause> {
        let base = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            let left_outer = if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                true
            } else if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                false
            } else if self.eat_kw("JOIN") {
                false
            } else {
                break;
            };
            let table = self.parse_table_ref()?;
            self.expect_kw("ON")?;
            let on = self.parse_expr()?;
            joins.push(Join {
                table,
                left_outer,
                on,
            });
        }
        Ok(FromClause { base, joins })
    }

    fn parse_table_ref(&mut self) -> RelResult<TableRef> {
        let table = self.ident()?;
        // optional alias: `t AS a` or `t a` (bare alias allowed when the
        // next token is an identifier that is not a clause keyword).
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            const CLAUSE_KWS: &[&str] = &[
                "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "LEFT", "INNER", "ON",
                "UNION", "SET",
            ];
            if CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                None
            } else {
                let a = s.clone();
                self.pos += 1;
                Some(a)
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // OR < AND < NOT < comparison/LIKE/IN/BETWEEN/IS < add < mul < unary
    // ------------------------------------------------------------------

    /// Parse an expression.
    pub fn parse_expr(&mut self) -> RelResult<SqlExpr> {
        self.nested(Self::parse_or)
    }

    // Each operator of a left-associative chain nests the chain so far
    // one level deeper, so the chain loops below open a level per
    // operator and close them all when the chain ends.

    fn parse_or(&mut self) -> RelResult<SqlExpr> {
        let depth = self.depth;
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            self.deeper()?;
            let right = self.parse_and()?;
            left = SqlExpr::Binary {
                op: SqlBinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_and(&mut self) -> RelResult<SqlExpr> {
        let depth = self.depth;
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            self.deeper()?;
            let right = self.parse_not()?;
            left = SqlExpr::Binary {
                op: SqlBinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_not(&mut self) -> RelResult<SqlExpr> {
        if self.eat_kw("NOT") {
            Ok(SqlExpr::Not(Box::new(self.nested(Self::parse_not)?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> RelResult<SqlExpr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] LIKE / IN / BETWEEN
        let negated = if self.peek().is_some_and(|t| t.is_kw("NOT")) {
            let saved = self.pos;
            self.pos += 1;
            if self
                .peek()
                .is_some_and(|t| t.is_kw("LIKE") || t.is_kw("IN") || t.is_kw("BETWEEN"))
            {
                true
            } else {
                self.pos = saved;
                false
            }
        } else {
            false
        };

        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(SqlExpr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_tok(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            return Ok(SqlExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(SqlExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected LIKE, IN, or BETWEEN after NOT"));
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(SqlBinOp::Eq),
            Some(Token::NotEq) => Some(SqlBinOp::NotEq),
            Some(Token::Lt) => Some(SqlBinOp::Lt),
            Some(Token::LtEq) => Some(SqlBinOp::LtEq),
            Some(Token::Gt) => Some(SqlBinOp::Gt),
            Some(Token::GtEq) => Some(SqlBinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> RelResult<SqlExpr> {
        let depth = self.depth;
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => SqlBinOp::Add,
                Some(Token::Minus) => SqlBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let right = self.parse_multiplicative()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> RelResult<SqlExpr> {
        let depth = self.depth;
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => SqlBinOp::Mul,
                Some(Token::Slash) => SqlBinOp::Div,
                Some(Token::Percent) => SqlBinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let right = self.parse_unary()?;
            left = SqlExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_unary(&mut self) -> RelResult<SqlExpr> {
        if self.eat_tok(&Token::Minus) {
            return Ok(SqlExpr::Neg(Box::new(self.nested(Self::parse_unary)?)));
        }
        if self.eat_tok(&Token::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> RelResult<SqlExpr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(SqlExpr::Literal(Value::Int(n))),
            Some(Token::Float(f)) => Ok(SqlExpr::Literal(Value::float(f))),
            Some(Token::Str(s)) => Ok(SqlExpr::Literal(Value::Text(s))),
            Some(Token::LParen) => {
                let e = self.parse_expr()?;
                self.expect_tok(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(SqlExpr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(SqlExpr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(SqlExpr::Literal(Value::Bool(false)));
                }
                // function call?
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let distinct_probe = self.eat_kw("DISTINCT");
                    if self.eat_tok(&Token::Star) {
                        self.expect_tok(&Token::RParen)?;
                        return Ok(SqlExpr::Func {
                            name,
                            args: vec![],
                            distinct: distinct_probe,
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_tok(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_tok(&Token::RParen)?;
                    return Ok(SqlExpr::Func {
                        name,
                        args,
                        distinct: distinct_probe,
                        star: false,
                    });
                }
                // qualified column?
                if self.eat_tok(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(SqlExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(SqlExpr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn parse_one(sql: &str) -> Statement {
        let mut p = Parser::new(lex(sql).unwrap());
        let stmts = p.parse_statements().unwrap();
        assert_eq!(stmts.len(), 1);
        stmts.into_iter().next().unwrap()
    }

    #[test]
    fn parse_create_table_with_constraints() {
        let s =
            parse_one("CREATE TABLE courses (id INT PRIMARY KEY, title TEXT NOT NULL, units INT)");
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.name, "courses");
                assert_eq!(ct.columns.len(), 3);
                assert!(ct.columns[0].primary_key);
                assert!(ct.columns[1].not_null);
                assert!(!ct.columns[2].not_null);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_composite_pk() {
        let s = parse_one("CREATE TABLE r (a INT, b INT, c TEXT, PRIMARY KEY (a, b))");
        match s {
            Statement::CreateTable(ct) => assert_eq!(ct.primary_key, vec!["a", "b"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let s = parse_one("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
        match s {
            Statement::Insert(i) => {
                assert_eq!(i.columns, vec!["a", "b"]);
                assert_eq!(i.rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_select_full_clause_set() {
        let s = parse_one(
            "SELECT dep, COUNT(*) AS n FROM courses c \
             LEFT JOIN comments ON c.id = comments.course_id \
             WHERE units >= 3 GROUP BY dep HAVING COUNT(*) > 1 \
             ORDER BY n DESC, dep LIMIT 10 OFFSET 5",
        );
        match s {
            Statement::Select(q) => {
                assert_eq!(q.items.len(), 2);
                let from = q.from.unwrap();
                assert_eq!(from.base.alias.as_deref(), Some("c"));
                assert_eq!(from.joins.len(), 1);
                assert!(from.joins[0].left_outer);
                assert!(q.filter.is_some());
                assert_eq!(q.group_by.len(), 1);
                assert!(q.having.is_some());
                assert_eq!(q.order_by.len(), 2);
                assert!(q.order_by[0].desc);
                assert_eq!(q.limit, Some(10));
                assert_eq!(q.offset, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_union_all_chain() {
        let s = parse_one("SELECT a FROM t UNION ALL SELECT b FROM u UNION ALL SELECT c FROM v");
        match s {
            Statement::Select(q) => {
                let u1 = q.union.unwrap();
                let u2 = u1.union.as_ref().unwrap();
                assert!(u2.union.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_expression_precedence() {
        let s = parse_one("SELECT 1 + 2 * 3 AS x");
        match s {
            Statement::Select(q) => match &q.items[0] {
                SelectItem::Expr { expr, alias } => {
                    assert_eq!(alias.as_deref(), Some("x"));
                    // Must parse as 1 + (2*3)
                    match expr {
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
                        other => panic!("{other:?}"),
                    }
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_not_like_in_between() {
        let s = parse_one(
            "SELECT * FROM t WHERE a NOT LIKE '%x%' AND b NOT IN (1,2) AND c NOT BETWEEN 1 AND 5 AND d IS NOT NULL",
        );
        match s {
            Statement::Select(q) => {
                let f = q.filter.unwrap();
                let text = format!("{f:?}");
                assert!(text.contains("negated: true"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_update_and_delete() {
        let s = parse_one("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3");
        match s {
            Statement::Update(u) => {
                assert_eq!(u.assignments.len(), 2);
                assert!(u.filter.is_some());
            }
            other => panic!("{other:?}"),
        }
        let s = parse_one("DELETE FROM t WHERE id = 3");
        assert!(matches!(s, Statement::Delete(_)));
    }

    #[test]
    fn parse_create_index_variants() {
        let s = parse_one("CREATE UNIQUE INDEX ix ON t (a, b) USING BTREE");
        match s {
            Statement::CreateIndex(ci) => {
                assert!(ci.unique);
                assert!(ci.btree);
                assert_eq!(ci.columns, vec!["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_count_distinct() {
        let s = parse_one("SELECT COUNT(DISTINCT dep) FROM t");
        match s {
            Statement::Select(q) => match &q.items[0] {
                SelectItem::Expr { expr, .. } => match expr {
                    SqlExpr::Func { distinct, star, .. } => {
                        assert!(*distinct);
                        assert!(!*star);
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_qualified_wildcard() {
        let s = parse_one("SELECT c.*, d.x FROM c JOIN d ON c.i = d.i");
        match s {
            Statement::Select(q) => {
                assert!(matches!(&q.items[0], SelectItem::QualifiedWildcard(a) if a == "c"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_on_garbage() {
        let mut p = Parser::new(lex("FLY ME TO THE MOON").unwrap());
        assert!(p.parse_statements().is_err());
    }

    #[test]
    fn multiple_statements_split_on_semicolon() {
        let mut p = Parser::new(lex("SELECT 1; SELECT 2;").unwrap());
        let stmts = p.parse_statements().unwrap();
        assert_eq!(stmts.len(), 2);
    }

    /// Every way a statement nests, `n` levels deep, over `Courses`.
    const FORMS: [&str; 12] = [
        "parens",
        "functions",
        "in",
        "not",
        "minus",
        "plus",
        "and",
        "or",
        "sum",
        "product",
        "union",
        "explain",
    ];

    fn nested_form(form: &str, n: usize) -> String {
        let r = |s: &str| s.repeat(n);
        let select = "SELECT CourseID FROM Courses";
        match form {
            "parens" => format!("SELECT {}CourseID{} FROM Courses", r("("), r(")")),
            "functions" => format!("SELECT {}CourseID{} FROM Courses", r("ABS("), r(")")),
            "in" => format!("{select} WHERE {}TRUE{}", r("TRUE IN ("), r(")")),
            "not" => format!("{select} WHERE {}CourseID = 1", r("NOT ")),
            "minus" => format!("SELECT {}CourseID FROM Courses", r("- ")),
            "plus" => format!("SELECT {}CourseID FROM Courses", r("+ ")),
            "and" => format!("{select} WHERE CourseID = 1{}", r(" AND CourseID = 1")),
            "or" => format!("{select} WHERE CourseID = 1{}", r(" OR CourseID = 1")),
            "sum" => format!("SELECT CourseID{} FROM Courses", r(" + 1")),
            "product" => format!("SELECT CourseID{} FROM Courses", r(" * 1")),
            "union" => format!("{select}{}", r(&format!(" UNION ALL {select}"))),
            "explain" => format!("{}{select}", r("EXPLAIN ")),
            _ => unreachable!("unknown form {form}"),
        }
    }

    fn parse(text: &str) -> RelResult<Vec<Statement>> {
        Parser::new(lex(text)?).parse_statements()
    }

    #[test]
    fn sql_depth_bound_rejects_deep_nesting_of_every_form() {
        for form in FORMS {
            for n in [MAX_DEPTH, 20_000] {
                let err = parse(&nested_form(form, n)).unwrap_err();
                assert!(
                    err.to_string().contains("nested deeper"),
                    "{form} {n}: {err}"
                );
            }
            // One level less is exactly at the bound: the statement's
            // own expression takes the last level.
            parse(&nested_form(form, MAX_DEPTH - 1)).unwrap();
        }
    }

    /// A statement nested exactly to the bound parses, binds, passes the
    /// disclosure gate and runs on a thread with a session's 2 MiB
    /// stack, in whichever profile the test is built.
    #[test]
    fn sql_depth_bound_query_at_the_bound_runs_on_a_session_stack() {
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let db = crate::Database::new();
                db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY)")
                    .unwrap();
                db.execute_sql("INSERT INTO Courses VALUES (1)").unwrap();
                let catalog = db.catalog();
                let student = crate::Principal::parse("student:2").unwrap();
                for form in FORMS {
                    let text = nested_form(form, MAX_DEPTH - 1);
                    if form != "explain" {
                        crate::sql::plan_query(&text, &catalog).unwrap();
                        let report =
                            crate::plan::flow::check_disclosure_sql(&text, &catalog, &student)
                                .unwrap();
                        assert!(!report.has_errors(), "{form}");
                    }
                    db.execute_sql(&text).unwrap();
                }
            })
            .unwrap();
        run.join().unwrap();
    }
}
