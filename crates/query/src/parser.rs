//! Recursive-descent parser for the SQL++ subset.

use std::sync::Arc;

use idea_adm::Value;

use crate::ast::*;
use crate::error::QueryError;
use crate::lexer::{lex, Token};
use crate::Result;

/// Clause keywords that terminate implicit aliases and expressions.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "having", "order", "limit", "let", "by", "value", "as",
    "distinct", "asc", "desc", "and", "or", "not", "in", "exists", "case", "when", "then", "else",
    "end", "to", "apply", "with", "on", "into", "primary", "key", "type",
];

/// Deepest nesting of expressions, subqueries and option blocks the
/// parser accepts. Recursive descent spends stack per level, and the
/// server parses on 512 KB connection threads: past this depth a
/// statement is a syntax error, never a stack overflow.
///
/// Operator and suffix chains (`1 + 1 + … + 1`, `a.b.c`, `a[0][1]`)
/// count too, one level per link: they parse in a loop, but build an
/// equally deep left-leaning tree that evaluation and drop walk
/// recursively. So no expression tree the parser returns is deeper than
/// this.
pub const MAX_NESTING: usize = 48;

/// Binary operator precedence levels, loosest first.
const OR: u8 = 0;
const AND: u8 = 1;
const CMP: u8 = 2;
const ADD: u8 = 3;
const MUL: u8 = 4;

/// A binary operator as parsed; `IN` and `NOT IN` build their own nodes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Bin(BinOp),
    In,
    NotIn,
}

fn is_reserved(s: &str) -> bool {
    RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r))
}

/// Parses a sequence of `;`-separated statements.
pub fn parse_statements(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semi) {}
        if p.peek() == &Token::Eof {
            break;
        }
        out.push(p.parse_statement()?);
    }
    Ok(out)
}

/// Parses a single statement (trailing `;` allowed).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut stmts = parse_statements(input)?;
    match stmts.len() {
        1 => Ok(stmts.pop().unwrap()),
        n => Err(QueryError::Syntax(format!("expected one statement, found {n}"))),
    }
}

/// Parses a standalone expression (used for tests and UDF bodies given
/// as text).
pub fn parse_expression(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a standalone query (a select block, with optional leading
/// LETs).
pub fn parse_query(input: &str) -> Result<Arc<SelectBlock>> {
    let mut p = Parser::new(input)?;
    let b = p.parse_select_block()?;
    while p.eat(&Token::Semi) {}
    p.expect_eof()?;
    Ok(Arc::new(b))
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING`]); every recursive
    /// rule calls [`Parser::enter`] and decrements it on return.
    depth: usize,
    /// Deepest level the operand being parsed reaches: its recursion
    /// depth plus the chain links stacked on it (see [`Parser::link`]).
    /// [`Parser::parse_binary`] measures each operand from its own
    /// `depth`, so sibling operands do not add up.
    peak: usize,
}

fn too_deep() -> QueryError {
    QueryError::Syntax(format!("nesting deeper than {MAX_NESTING} levels"))
}

impl Parser {
    fn new(input: &str) -> Result<Self> {
        Ok(Parser { toks: lex(input)?, pos: 0, depth: 0, peak: 0 })
    }

    fn enter(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(too_deep());
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        Ok(())
    }

    /// Counts one chain link: an operator or suffix node stacked on top
    /// of everything the current operand has parsed so far.
    fn link(&mut self) -> Result<()> {
        if self.peak >= MAX_NESTING {
            return Err(too_deep());
        }
        self.peak += 1;
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Token {
        self.toks.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
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
            Err(QueryError::Syntax(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(QueryError::Syntax(format!("expected '{kw}', found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(QueryError::Syntax(format!("trailing tokens: {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(QueryError::Syntax(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_string(&mut self) -> Result<String> {
        match self.bump() {
            Token::Str(s) => Ok(s),
            other => Err(QueryError::Syntax(format!("expected string, found {other:?}"))),
        }
    }

    // ---- statements ------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.peek().is_kw("create") {
            return self.parse_create();
        }
        if self.peek().is_kw("insert") || self.peek().is_kw("upsert") {
            let upsert = self.bump().is_kw("upsert");
            self.expect_kw("into")?;
            let dataset = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let source = self.parse_query_or_expr()?;
            self.expect(&Token::RParen)?;
            return Ok(if upsert {
                Statement::Upsert { dataset, source }
            } else {
                Statement::Insert { dataset, source }
            });
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let dataset = self.expect_ident()?;
            let alias = self.parse_alias()?.unwrap_or_else(|| dataset.clone());
            let where_clause = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
            return Ok(Statement::Delete { dataset, alias, where_clause });
        }
        if self.eat_kw("drop") {
            if self.eat_kw("dataset") {
                return Ok(Statement::DropDataset { name: self.expect_ident()? });
            }
            if self.eat_kw("index") {
                let dataset = self.expect_ident()?;
                self.expect(&Token::Dot)?;
                let name = self.expect_ident()?;
                return Ok(Statement::DropIndex { dataset, name });
            }
            return Err(QueryError::Syntax(format!("unexpected DROP target: {:?}", self.peek())));
        }
        if self.eat_kw("connect") {
            self.expect_kw("feed")?;
            let feed = self.expect_ident()?;
            self.expect_kw("to")?;
            self.expect_kw("dataset")?;
            let dataset = self.expect_ident()?;
            let function = if self.eat_kw("apply") {
                self.expect_kw("function")?;
                Some(self.expect_ident()?)
            } else {
                None
            };
            return Ok(Statement::ConnectFeed { feed, dataset, function });
        }
        if self.eat_kw("start") {
            self.expect_kw("feed")?;
            return Ok(Statement::StartFeed { name: self.expect_ident()? });
        }
        if self.eat_kw("stop") {
            self.expect_kw("feed")?;
            return Ok(Statement::StopFeed { name: self.expect_ident()? });
        }
        if self.peek().is_kw("select") || self.peek().is_kw("let") {
            return Ok(Statement::Query(self.parse_query_or_expr()?));
        }
        Err(QueryError::Syntax(format!("unexpected statement start: {:?}", self.peek())))
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("type") {
            let name = self.expect_ident()?;
            self.expect_kw("as")?;
            let _ = self.eat_kw("open"); // OPEN is the only supported mode
            self.expect(&Token::LBrace)?;
            let fields = self.parse_list(&Token::RBrace, |p| {
                let field = p.expect_ident()?;
                p.expect(&Token::Colon)?;
                Ok((field, p.expect_ident()?))
            })?;
            return Ok(Statement::CreateType { name, fields });
        }
        if self.eat_kw("dataset") {
            let name = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let type_name = self.expect_ident()?;
            self.expect(&Token::RParen)?;
            self.expect_kw("primary")?;
            self.expect_kw("key")?;
            let primary_key = self.expect_ident()?;
            // AsterixDB-style storage options: WITH { "merge-policy":
            // "prefix", ... } configures the dataset's LSM tree.
            let options =
                if self.eat_kw("with") { self.parse_options_block()? } else { Vec::new() };
            return Ok(Statement::CreateDataset { name, type_name, primary_key, options });
        }
        if self.eat_kw("index") {
            let name = self.expect_ident()?;
            self.expect_kw("on")?;
            let dataset = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let field = self.expect_ident()?;
            self.expect(&Token::RParen)?;
            let kind = if self.eat_kw("type") {
                let k = self.expect_ident()?;
                match k.to_ascii_lowercase().as_str() {
                    "btree" => IndexKindAst::BTree,
                    "rtree" => IndexKindAst::RTree,
                    other => {
                        return Err(QueryError::Syntax(format!("unknown index type '{other}'")))
                    }
                }
            } else {
                IndexKindAst::BTree
            };
            return Ok(Statement::CreateIndex { name, dataset, field, kind });
        }
        if self.eat_kw("function") {
            let name = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let params = self.parse_list(&Token::RParen, Self::expect_ident)?;
            self.expect(&Token::LBrace)?;
            let body = self.parse_query_or_expr()?;
            self.expect(&Token::RBrace)?;
            return Ok(Statement::CreateFunction { name, params, body });
        }
        if self.eat_kw("feed") {
            let name = self.expect_ident()?;
            self.expect_kw("with")?;
            let options = self.parse_options_block()?;
            return Ok(Statement::CreateFeed { name, options });
        }
        Err(QueryError::Syntax(format!("unexpected CREATE target: {:?}", self.peek())))
    }

    /// `{ "key": <value>, ... }` — the option block shared by
    /// `CREATE FEED ... WITH` and `CREATE DATASET ... WITH`.
    ///
    /// Values may be strings, numbers, booleans, or nested `{...}`
    /// blocks; nested blocks are flattened to dotted keys
    /// (`"source": {"type": "logfile"}` → `source.type = logfile`) so a
    /// feed declared with the structured pipeline-spec layout and one
    /// declared with flat legacy keys arrive at the engine identically.
    fn parse_options_block(&mut self) -> Result<Vec<(String, String)>> {
        let mut options = Vec::new();
        self.parse_options_into("", &mut options)?;
        Ok(options)
    }

    fn parse_options_into(
        &mut self,
        prefix: &str,
        options: &mut Vec<(String, String)>,
    ) -> Result<()> {
        self.expect(&Token::LBrace)?;
        self.parse_list(&Token::RBrace, |p| {
            let k = p.expect_string()?;
            let key = if prefix.is_empty() { k } else { format!("{prefix}.{k}") };
            p.expect(&Token::Colon)?;
            if matches!(p.peek(), Token::LBrace) {
                p.enter()?;
                p.parse_options_into(&key, options)?;
                p.depth -= 1;
                return Ok(());
            }
            let v = match p.bump() {
                Token::Str(s) => s,
                Token::Int(i) => i.to_string(),
                Token::Double(d) => d.to_string(),
                Token::Ident(s) if s.eq_ignore_ascii_case("true") => "true".to_owned(),
                Token::Ident(s) if s.eq_ignore_ascii_case("false") => "false".to_owned(),
                other => {
                    return Err(QueryError::Syntax(format!(
                        "expected option value for {key:?}, found {other:?}"
                    )))
                }
            };
            options.push((key, v));
            Ok(())
        })?;
        Ok(())
    }

    /// A select block (possibly LET-first, as the paper writes UDF
    /// bodies) or a plain expression.
    fn parse_query_or_expr(&mut self) -> Result<Expr> {
        if self.peek().is_kw("select") || self.peek().is_kw("let") {
            self.enter()?;
            let block = self.parse_select_block();
            self.depth -= 1;
            Ok(Expr::Subquery(Arc::new(block?)))
        } else {
            self.parse_expr()
        }
    }

    // ---- select blocks ----------------------------------------------

    fn parse_select_block(&mut self) -> Result<SelectBlock> {
        let mut block = SelectBlock::empty();
        // Leading LETs (paper style: `LET x = ... SELECT ...`) bind
        // before FROM.
        while self.eat_kw("let") {
            block.pre_lets.extend(self.parse_comma_sep(Self::parse_let)?);
        }
        self.expect_kw("select")?;
        block.distinct = self.eat_kw("distinct");
        block.select = if self.eat_kw("value") {
            SelectClause::Value(Box::new(self.parse_expr()?))
        } else {
            SelectClause::Items(self.parse_comma_sep(Self::parse_select_item)?)
        };
        if self.eat_kw("from") {
            block.from = self.parse_comma_sep(Self::parse_from_item)?;
        }
        // Trailing LETs (standard SQL++ position).
        while self.eat_kw("let") {
            block.lets.extend(self.parse_comma_sep(Self::parse_let)?);
        }
        if self.eat_kw("where") {
            block.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            block.group_by = self.parse_comma_sep(|p| {
                let e = p.parse_expr()?;
                Ok((e, if p.eat_kw("as") { Some(p.expect_ident()?) } else { None }))
            })?;
        }
        if self.eat_kw("having") {
            block.having = Some(self.parse_expr()?);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            block.order_by = self.parse_comma_sep(|p| {
                let e = p.parse_expr()?;
                let asc = !p.eat_kw("desc");
                if asc {
                    p.eat_kw("asc");
                }
                Ok((e, asc))
            })?;
        }
        if self.eat_kw("limit") {
            block.limit = Some(self.parse_expr()?);
        }
        Ok(block)
    }

    /// `item (, item)*`.
    fn parse_comma_sep<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat(&Token::Comma) {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// One `name = expr` binding of a LET clause.
    fn parse_let(&mut self) -> Result<(String, Expr)> {
        let name = self.expect_ident()?;
        self.expect(&Token::Eq)?;
        Ok((name, self.parse_expr()?))
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        // `alias.*`
        if let (Token::Ident(name), Token::Dot) = (self.peek(), self.peek2()) {
            if self.toks.get(self.pos + 2) == Some(&Token::Star) {
                let name = name.clone();
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::Star(name));
            }
        }
        let e = self.parse_expr()?;
        Ok(SelectItem::Expr(e, self.parse_alias()?))
    }

    /// `[AS] name`; a bare name must not be a reserved word.
    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.expect_ident()?));
        }
        Ok(match self.peek() {
            Token::Ident(s) if !is_reserved(s) => Some(self.expect_ident()?),
            _ => None,
        })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let (source, default_alias) = if self.eat(&Token::LParen) {
            let e = self.parse_query_or_expr()?;
            self.expect(&Token::RParen)?;
            (FromSource::Expr(e), None)
        } else {
            let name = self.expect_ident()?;
            (FromSource::Name(name.clone()), Some(name))
        };
        let hint = match self.peek() {
            Token::Hint(h) => {
                let h = h.clone();
                self.bump();
                Some(h)
            }
            _ => None,
        };
        let alias = match (self.parse_alias()?, default_alias) {
            (Some(alias), _) | (None, Some(alias)) => alias,
            (None, None) => {
                return Err(QueryError::Syntax("FROM subquery requires an alias".into()))
            }
        };
        Ok(FromItem { source, alias, hint })
    }

    // ---- expressions --------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.enter()?;
        let e = self.parse_binary(OR);
        self.depth -= 1;
        e
    }

    /// The binary operator at the cursor with its precedence level, or
    /// `None`. `NOT IN` is two tokens.
    fn peek_binop(&self) -> Option<(Op, u8)> {
        let t = self.peek();
        Some(match t {
            _ if t.is_kw("or") => (Op::Bin(BinOp::Or), OR),
            _ if t.is_kw("and") => (Op::Bin(BinOp::And), AND),
            _ if t.is_kw("in") => (Op::In, CMP),
            _ if t.is_kw("not") && self.peek2().is_kw("in") => (Op::NotIn, CMP),
            Token::Eq => (Op::Bin(BinOp::Eq), CMP),
            Token::Neq => (Op::Bin(BinOp::Neq), CMP),
            Token::Lt => (Op::Bin(BinOp::Lt), CMP),
            Token::Le => (Op::Bin(BinOp::Le), CMP),
            Token::Gt => (Op::Bin(BinOp::Gt), CMP),
            Token::Ge => (Op::Bin(BinOp::Ge), CMP),
            Token::Plus => (Op::Bin(BinOp::Add), ADD),
            Token::Minus => (Op::Bin(BinOp::Sub), ADD),
            Token::Star => (Op::Bin(BinOp::Mul), MUL),
            Token::Slash => (Op::Bin(BinOp::Div), MUL),
            Token::Percent => (Op::Bin(BinOp::Mod), MUL),
            _ => return None,
        })
    }

    /// Precedence climbing over operators binding at least as tight as
    /// `min`. `OR`, `AND` and arithmetic associate left; a comparison,
    /// and a `NOT` prefix (which binds looser than comparisons), can only
    /// be followed by `AND`/`OR`.
    fn parse_binary(&mut self, min: u8) -> Result<Expr> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let (mut lhs, mut max) = if min <= CMP && self.eat_kw("not") {
            self.enter()?;
            let e = self.parse_binary(CMP);
            self.depth -= 1;
            (Expr::Not(Box::new(e?)), AND)
        } else {
            (self.parse_unary()?, MUL)
        };
        while let Some((op, level)) = self.peek_binop() {
            if level < min || level > max {
                break;
            }
            self.bump();
            if op == Op::NotIn {
                self.bump();
            }
            let rhs = Box::new(self.parse_binary(level + 1)?);
            self.link()?;
            let lhs_box = Box::new(lhs);
            lhs = match op {
                Op::In => Expr::In(lhs_box, rhs),
                Op::NotIn => Expr::Not(Box::new(Expr::In(lhs_box, rhs))),
                Op::Bin(op) => Expr::Binary(op, lhs_box, rhs),
            };
            if level == CMP {
                max = AND;
            }
        }
        self.peak = self.peak.max(outer);
        Ok(lhs)
    }

    /// `-x`, or a primary with its `.field` / `[index]` suffixes.
    /// Parenthesized expressions and subqueries, the common nesting
    /// path, stay in this small frame; every other primary is parsed
    /// out of line, so deep nesting spends little stack per level.
    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            self.enter()?;
            let e = self.parse_unary();
            self.depth -= 1;
            return Ok(Expr::Neg(Box::new(e?)));
        }
        let e = if self.eat(&Token::LParen) {
            let e = self.parse_query_or_expr()?;
            self.expect(&Token::RParen)?;
            e
        } else {
            self.parse_atom()?
        };
        self.parse_suffixes(e)
    }

    fn parse_suffixes(&mut self, mut e: Expr) -> Result<Expr> {
        loop {
            if self.eat(&Token::Dot) {
                let field = self.expect_ident()?;
                self.link()?;
                e = Expr::Field(Box::new(e), field);
            } else if self.eat(&Token::LBracket) {
                let idx = self.parse_expr()?;
                self.expect(&Token::RBracket)?;
                self.link()?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Expr> {
        let lit = match self.bump() {
            Token::Int(i) => Value::Int(i),
            Token::Double(d) => Value::Double(d),
            Token::Str(s) => Value::Str(s),
            Token::Param(p) => return Ok(Expr::Param(p)),
            Token::LBracket => {
                return Ok(Expr::Array(self.parse_list(&Token::RBracket, Self::parse_expr)?))
            }
            Token::LBrace => {
                return Ok(Expr::Object(self.parse_list(&Token::RBrace, Self::parse_field)?))
            }
            Token::Ident(name) => return self.parse_ident(name),
            other => return Err(QueryError::Syntax(format!("unexpected token {other:?}"))),
        };
        Ok(Expr::Literal(lit))
    }

    /// `item (, item)* close`, or just `close`; the opener is consumed.
    fn parse_list<T>(
        &mut self,
        close: &Token,
        item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        if self.eat(close) {
            return Ok(Vec::new());
        }
        let out = self.parse_comma_sep(item)?;
        self.expect(close)?;
        Ok(out)
    }

    /// One `key: value` field of an object constructor.
    fn parse_field(&mut self) -> Result<(String, Expr)> {
        let key = match self.bump() {
            Token::Str(s) | Token::Ident(s) => s,
            other => {
                return Err(QueryError::Syntax(format!("expected object key, found {other:?}")))
            }
        };
        self.expect(&Token::Colon)?;
        Ok((key, self.parse_expr()?))
    }

    /// An identifier-led primary (the identifier is consumed): CASE,
    /// EXISTS, a keyword literal, a function call or a variable.
    fn parse_ident(&mut self, name: String) -> Result<Expr> {
        let is = |kw: &str| name.eq_ignore_ascii_case(kw);
        if is("case") {
            return self.parse_case();
        }
        if is("exists") {
            self.expect(&Token::LParen)?;
            let inner = self.parse_query_or_expr()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Exists(Box::new(inner)));
        }
        let lit = if is("true") {
            Value::Bool(true)
        } else if is("false") {
            Value::Bool(false)
        } else if is("null") {
            Value::Null
        } else if is("missing") {
            Value::Missing
        } else if self.eat(&Token::LParen) {
            let args = self.parse_list(&Token::RParen, |p| {
                if p.eat(&Token::Star) {
                    Ok(Expr::Wildcard)
                } else {
                    p.parse_query_or_expr()
                }
            })?;
            return Ok(Expr::Call { name, args });
        } else {
            return Ok(Expr::Ident(name));
        };
        Ok(Expr::Literal(lit))
    }

    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`, after `CASE`.
    fn parse_case(&mut self) -> Result<Expr> {
        let operand =
            if self.peek().is_kw("when") { None } else { Some(Box::new(self.parse_expr()?)) };
        let mut whens = Vec::new();
        while self.eat_kw("when") {
            let c = self.parse_expr()?;
            self.expect_kw("then")?;
            let v = self.parse_expr()?;
            whens.push((c, v));
        }
        if whens.is_empty() {
            return Err(QueryError::Syntax("CASE requires at least one WHEN".into()));
        }
        let otherwise = if self.eat_kw("else") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::Case { operand, whens, otherwise })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_figure_1_ddl() {
        let stmts = parse_statements(
            "CREATE TYPE TweetType AS OPEN { id: int64, text: string };
             CREATE DATASET Tweets(TweetType) PRIMARY KEY id;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(matches!(&stmts[0], Statement::CreateType { name, fields }
            if name == "TweetType" && fields.len() == 2));
        assert!(matches!(&stmts[1], Statement::CreateDataset { primary_key, options, .. }
            if primary_key == "id" && options.is_empty()));
    }

    #[test]
    fn parse_dataset_with_storage_options() {
        let stmt = parse_statement(
            r#"CREATE DATASET Tweets(TweetType) PRIMARY KEY id
               WITH { "merge-policy": "tiered", "memtable-budget-bytes": "65536" };"#,
        )
        .unwrap();
        let Statement::CreateDataset { name, options, .. } = stmt else {
            panic!("expected CreateDataset")
        };
        assert_eq!(name, "Tweets");
        assert_eq!(
            options,
            vec![
                ("merge-policy".to_string(), "tiered".to_string()),
                ("memtable-budget-bytes".to_string(), "65536".to_string()),
            ]
        );
    }

    #[test]
    fn parse_paper_figure_6_udf() {
        let stmt = parse_statement(
            r#"CREATE FUNCTION USTweetSafetyCheck(tweet) {
                 LET safety_check_flag =
                   CASE tweet.country = "US" AND contains(tweet.text, "bomb")
                   WHEN true THEN "Red" ELSE "Green"
                   END
                 SELECT tweet.*, safety_check_flag
               };"#,
        )
        .unwrap();
        let Statement::CreateFunction { name, params, body } = stmt else {
            panic!("expected CreateFunction")
        };
        assert_eq!(name, "USTweetSafetyCheck");
        assert_eq!(params, vec!["tweet"]);
        let Expr::Subquery(block) = body else { panic!("body should be a block") };
        assert_eq!(block.pre_lets.len(), 1);
        assert!(block.from.is_empty());
        let SelectClause::Items(items) = &block.select else { panic!() };
        assert!(matches!(&items[0], SelectItem::Star(a) if a == "tweet"));
    }

    #[test]
    fn parse_paper_figure_8_exists_subquery() {
        let stmt = parse_statement(
            r#"CREATE FUNCTION tweetSafetyCheck(tweet) {
                 LET safety_check_flag = CASE
                   EXISTS(SELECT s FROM SensitiveWords s
                          WHERE tweet.country = s.country AND
                                contains(tweet.text, s.word))
                   WHEN true THEN "Red" ELSE "Green"
                 END
                 SELECT tweet.*, safety_check_flag
               };"#,
        )
        .unwrap();
        assert!(matches!(stmt, Statement::CreateFunction { .. }));
    }

    #[test]
    fn parse_paper_figure_9_analytical_query() {
        let stmt = parse_statement(
            r#"SELECT tweet.country Country, count(tweet) Num
               FROM Tweets tweet
               LET enrichedTweet = tweetSafetyCheck(tweet)[0]
               WHERE enrichedTweet.safety_check_flag = "Red"
               GROUP BY tweet.country;"#,
        )
        .unwrap();
        let Statement::Query(Expr::Subquery(b)) = stmt else { panic!() };
        assert_eq!(b.group_by.len(), 1);
        assert_eq!(b.lets.len(), 1);
        let SelectClause::Items(items) = &b.select else { panic!() };
        assert!(matches!(&items[1], SelectItem::Expr(Expr::Call { name, .. }, Some(a))
            if name == "count" && a == "Num"));
    }

    #[test]
    fn parse_paper_figure_11_not_in() {
        let stmt = parse_statement(
            r#"INSERT INTO EnrichedTweets(
                 SELECT VALUE tweetSafetyCheck(tweet)
                 FROM Tweets tweet WHERE tweet.id NOT IN
                   (SELECT VALUE enrichedTweet.id
                    FROM EnrichedTweets enrichedTweet)
               );"#,
        )
        .unwrap();
        assert!(matches!(stmt, Statement::Insert { .. }));
    }

    #[test]
    fn parse_paper_figure_18_nested_groupby() {
        let stmt = parse_statement(
            r#"CREATE FUNCTION highRiskTweetCheck(t) {
                 LET high_risk_flag = CASE
                   t.country IN (SELECT VALUE s.country
                                 FROM SensitiveWords s
                                 GROUP BY s.country
                                 ORDER BY count(s)
                                 LIMIT 10)
                   WHEN true THEN "Red" ELSE "Green"
                 END
                 SELECT t.*, high_risk_flag
               };"#,
        )
        .unwrap();
        assert!(matches!(stmt, Statement::CreateFunction { .. }));
    }

    #[test]
    fn parse_feed_ddl() {
        let stmts = parse_statements(
            r#"CREATE FEED TweetFeed WITH {
                 "type-name": "TweetType",
                 "adapter-name": "socket_adapter",
                 "format": "JSON",
                 "sockets": "127.0.0.1:10001",
                 "address-type": "IP"
               };
               CONNECT FEED TweetFeed TO DATASET Tweets APPLY FUNCTION USTweetSafetyCheck;
               START FEED TweetFeed;
               STOP FEED TweetFeed;"#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 4);
        assert!(matches!(&stmts[0], Statement::CreateFeed { options, .. } if options.len() == 5));
        assert!(matches!(&stmts[1], Statement::ConnectFeed { function: Some(f), .. }
            if f == "USTweetSafetyCheck"));
    }

    #[test]
    fn parse_feed_ddl_with_nested_options_and_scalars() {
        let stmt = parse_statement(
            r#"CREATE FEED LogFeed WITH {
                 "source": { "type": "logfile", "path": "/data/log", "partitions": 4 },
                 "target": { "dataset": "Events", "batch-size": 64, "predeploy": true },
                 "policies": { "checkpoint-interval": 8 },
                 "description": "nested blocks flatten to dotted keys"
               }"#,
        )
        .unwrap();
        let Statement::CreateFeed { name, options } = stmt else {
            panic!("expected CREATE FEED");
        };
        assert_eq!(name, "LogFeed");
        let get = |k: &str| options.iter().find(|(key, _)| key == k).map(|(_, v)| v.as_str());
        assert_eq!(get("source.type"), Some("logfile"));
        assert_eq!(get("source.path"), Some("/data/log"));
        assert_eq!(get("source.partitions"), Some("4"));
        assert_eq!(get("target.dataset"), Some("Events"));
        assert_eq!(get("target.batch-size"), Some("64"));
        assert_eq!(get("target.predeploy"), Some("true"));
        assert_eq!(get("policies.checkpoint-interval"), Some("8"));
        assert_eq!(get("description"), Some("nested blocks flatten to dotted keys"));
    }

    #[test]
    fn parse_hint_on_from() {
        let q = parse_query(
            "SELECT VALUE m.monument_id FROM monumentList /*+ noindex */ m WHERE m.x = 1",
        )
        .unwrap();
        assert_eq!(q.from[0].hint.as_deref(), Some("noindex"));
        assert_eq!(q.from[0].alias, "m");
    }

    #[test]
    fn parse_spatial_udf_figure_37() {
        let stmt = parse_statement(
            r#"CREATE FUNCTION enrichTweetQ4(t) {
                 LET nearby_monuments =
                   (SELECT VALUE m.monument_id
                    FROM monumentList m
                    WHERE spatial_intersect(
                      m.monument_location,
                      create_circle(
                        create_point(t.latitude, t.longitude),
                        1.5)))
                 SELECT t.*, nearby_monuments
               };"#,
        )
        .unwrap();
        assert!(matches!(stmt, Statement::CreateFunction { .. }));
    }

    #[test]
    fn parse_multi_dataset_from() {
        let q = parse_query(
            "SELECT f.facility_type, count(*) AS Cnt
             FROM Facilities f, DistrictAreas d2
             WHERE spatial_intersect(f.facility_location, d2.district_area)
             GROUP BY f.facility_type",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
    }

    #[test]
    fn parse_arithmetic_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        let Expr::Binary(BinOp::Add, _, rhs) = e else { panic!() };
        assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parse_datetime_arith_with_duration() {
        let e = parse_expression(r#"t.created_at < a.attack_datetime + duration("P2M")"#).unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Lt, _, _)));
    }

    #[test]
    fn reject_garbage() {
        assert!(parse_statement("CREATE NONSENSE x").is_err());
        assert!(parse_expression("1 +").is_err());
        assert!(parse_statement("SELECT").is_err());
    }

    #[test]
    fn param_expression() {
        let e = parse_expression("t.id = $x").unwrap();
        let Expr::Binary(BinOp::Eq, _, rhs) = e else { panic!() };
        assert!(matches!(*rhs, Expr::Param(p) if p == "x"));
    }
}
