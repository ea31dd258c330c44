"""Recursive-descent parser for the minidb SQL subset.

Parameters (``?``) are numbered left to right in source order; the executor
binds them positionally, matching the DB-API ``qmark`` style that the
sqlite3 backend also uses, so one SQL text runs on both backends.
Anything outside the subset (:mod:`repro.minidb.sql_ast`) is a
:class:`SqlSyntaxError`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.errors import SqlSyntaxError
from repro.minidb.sql_ast import (
    Binary,
    ColumnDef,
    ColumnRef,
    CountStar,
    CreateIndex,
    CreateTable,
    Delete,
    Exists,
    Expr,
    FromItem,
    FunctionExpr,
    InList,
    Insert,
    IsNull,
    Literal,
    Not,
    Param,
    ScalarSubquery,
    Select,
    SelectItem,
    SelectLike,
    Star,
    Statement,
    SubquerySource,
    TableSource,
    Union_,
    Update,
    With,
)
from repro.minidb.sql_lexer import SqlToken, tokenize_sql

_COMPARISONS = ("=", "<>", "!=", "<=", ">=", "<", ">")
_TYPE_KEYWORDS = ("INTEGER", "REAL", "TEXT", "BLOB")


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement (an optional trailing ``;`` is allowed)."""
    parser = _Parser(tokenize_sql(sql), sql)
    statement = parser.parse_statement()
    parser.accept(";")
    parser.expect_end()
    return statement


class _Parser:
    def __init__(self, tokens: list[SqlToken], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._pos = 0
        self._param_count = 0
        #: name -> FROM references seen, for each common table
        #: expression whose definition is being parsed.
        self._defining: dict[str, int] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Optional[SqlToken]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def at(self, *kinds: str) -> bool:
        token = self.peek()
        return token is not None and token.kind in kinds

    def accept(self, *kinds: str) -> Optional[SqlToken]:
        token = self.peek()
        if token is not None and token.kind in kinds:
            self._pos += 1
            return token
        return None

    def expect(self, *kinds: str) -> SqlToken:
        token = self.peek()
        if token is None or token.kind not in kinds:
            at = token.position if token else len(self._source)
            found = token.kind if token else "end of statement"
            want = " or ".join(kinds)
            raise SqlSyntaxError(f"expected {want}, found {found}", at)
        self._pos += 1
        return token

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise SqlSyntaxError(
                f"unexpected trailing token {token.value!r}", token.position
            )

    def _error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        at = token.position if token else len(self._source)
        return SqlSyntaxError(message, at)

    def _names(self) -> tuple[str, ...]:
        """``( name, ... )``."""
        self.expect("(")
        names = [self.expect("ident").value]
        while self.accept(","):
            names.append(self.expect("ident").value)
        self.expect(")")
        return tuple(names)

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.at("SELECT", "WITH"):
            return self.parse_select()
        if self.at("CREATE"):
            return self._parse_create()
        if self.at("INSERT"):
            return self._parse_insert()
        if self.at("UPDATE"):
            return self._parse_update()
        if self.at("DELETE"):
            return self._parse_delete()
        raise self._error("expected a statement")

    def _parse_if_not_exists(self) -> bool:
        if self.accept("IF"):
            self.expect("NOT")
            self.expect("EXISTS")
            return True
        return False

    def _parse_create(self) -> Statement:
        self.expect("CREATE")
        if self.accept("UNIQUE"):
            self.expect("INDEX")
            return self._parse_create_index(unique=True)
        if self.accept("INDEX"):
            return self._parse_create_index(unique=False)
        self.expect("TABLE")
        if_not_exists = self._parse_if_not_exists()
        name = self.expect("ident").value
        self.expect("(")
        columns: list[ColumnDef] = []
        while True:
            col = self.expect("ident").value
            type_token = self.expect(*_TYPE_KEYWORDS)
            columns.append(ColumnDef(col, type_token.kind))
            if not self.accept(","):
                break
        self.expect(")")
        return CreateTable(name, tuple(columns), if_not_exists)

    def _parse_create_index(self, unique: bool) -> CreateIndex:
        if_not_exists = self._parse_if_not_exists()
        name = self.expect("ident").value
        self.expect("ON")
        table = self.expect("ident").value
        return CreateIndex(name, table, self._names(), unique, if_not_exists)

    def _parse_insert(self) -> Insert:
        self.expect("INSERT")
        self.expect("INTO")
        table = self.expect("ident").value
        self.expect("VALUES")
        self.expect("(")
        values = [self.parse_expr()]
        while self.accept(","):
            values.append(self.parse_expr())
        self.expect(")")
        return Insert(table, tuple(values))

    def _parse_update(self) -> Update:
        self.expect("UPDATE")
        table = self.expect("ident").value
        self.expect("SET")
        assignments = [self._parse_assignment()]
        while self.accept(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept("WHERE") else None
        return Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, Expr]:
        column = self.expect("ident").value
        self.expect("=")
        return column, self.parse_expr()

    def _parse_delete(self) -> Delete:
        self.expect("DELETE")
        self.expect("FROM")
        table = self.expect("ident").value
        where = self.parse_expr() if self.accept("WHERE") else None
        return Delete(table, where)

    # -- SELECT ------------------------------------------------------------------

    def parse_select(self) -> SelectLike:
        if self.at("WITH"):
            return self._parse_with()
        arms = [self._parse_select_core()]
        while self.accept("UNION"):
            arms.append(self._parse_select_core())
        order_by = self._parse_order_by()
        if len(arms) == 1:
            limit = offset = None
            if self.accept("LIMIT"):
                limit = self._parse_row_count()
                if self.accept("OFFSET"):
                    offset = self._parse_row_count()
            return replace(
                arms[0], order_by=order_by, limit=limit, offset=offset
            )
        return Union_(tuple(arms), order_by)

    def _parse_row_count(self) -> Expr:
        """A ``LIMIT`` or ``OFFSET`` value: ``?`` or an integer."""
        value = self._parse_primary()
        if isinstance(value, Param) or (
            isinstance(value, Literal) and type(value.value) is int
        ):
            return value
        raise self._error("LIMIT and OFFSET take '?' or an integer")

    def _parse_with(self) -> With:
        """One recursive common table expression and the select that
        reads it."""
        self.expect("WITH")
        self.expect("RECURSIVE")
        name = self.expect("ident").value
        columns = self._names()
        self.expect("AS")
        self.expect("(")
        if name in self._defining:
            raise self._error(f"{name!r} is defined inside itself")
        self._defining[name] = 0
        query = self.parse_select()
        references = self._defining.pop(name)
        self.expect(")")
        if not isinstance(query, Union_) or len(query.arms) != 2 \
                or query.order_by:
            raise self._error(
                f"recursive {name!r} must be one anchor select, UNION, "
                "one recursive select"
            )
        anchor, step = query.arms
        in_step_from = sum(
            isinstance(item.source, TableSource)
            and item.source.name == name
            for item in step.from_items
        )
        if references != 1 or in_step_from != 1:
            raise self._error(
                f"recursive {name!r} must be referenced exactly once, "
                "in the FROM clause of its recursive select"
            )
        return With(name, columns, anchor, step, self.parse_select())

    def _parse_select_core(self) -> Select:
        self.expect("SELECT")
        distinct = bool(self.accept("DISTINCT"))
        items = [self._parse_select_item()]
        while self.accept(","):
            items.append(self._parse_select_item())
        from_items: list[FromItem] = []
        if self.accept("FROM"):
            from_items.append(self._parse_from_item())
            while self.accept(","):
                from_items.append(self._parse_from_item())
        where = self.parse_expr() if self.accept("WHERE") else None
        return Select(
            tuple(items), tuple(from_items), where, distinct=distinct
        )

    def _parse_select_item(self) -> Union[SelectItem, Star]:
        if self.accept("*"):
            return Star()
        expr = self.parse_expr()
        alias = None
        if self.accept("AS"):
            alias = self.expect("ident").value
        elif self.at("ident"):
            alias = self.expect("ident").value
        return SelectItem(expr, alias)

    def _parse_from_item(self) -> FromItem:
        if self.accept("("):
            select = self.parse_select()
            self.expect(")")
            self.accept("AS")
            alias = self.expect("ident").value
            return FromItem(SubquerySource(select), alias)
        name = self.expect("ident").value
        if name in self._defining:
            self._defining[name] += 1
        alias = name
        if self.accept("AS"):
            alias = self.expect("ident").value
        elif self.at("ident"):
            alias = self.expect("ident").value
        return FromItem(TableSource(name), alias)

    def _parse_order_by(self) -> tuple[ColumnRef, ...]:
        """``ORDER BY`` column references, each ascending."""
        if not self.accept("ORDER"):
            return ()
        self.expect("BY")
        columns = [self._parse_column_ref()]
        while self.accept(","):
            columns.append(self._parse_column_ref())
        return tuple(columns)

    def _parse_column_ref(self) -> ColumnRef:
        name = self.expect("ident").value
        if self.accept("."):
            return ColumnRef(name, self.expect("ident").value)
        return ColumnRef(None, name)

    # -- expressions ----------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept("OR"):
            left = Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept("AND"):
            left = Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept("NOT"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        while True:
            token = self.peek()
            if token is None:
                return left
            if token.kind in _COMPARISONS:
                self._pos += 1
                op = "!=" if token.kind == "<>" else token.kind
                left = Binary(op, left, self._parse_additive())
            elif self.accept("IS"):
                self.expect("NULL")
                left = IsNull(left)
            elif self.accept("IN"):
                self.expect("(")
                items = [self.parse_expr()]
                while self.accept(","):
                    items.append(self.parse_expr())
                self.expect(")")
                left = InList(left, tuple(items))
            else:
                return left

    def _parse_additive(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self.accept("+", "||")
            if token is None:
                return left
            left = Binary(token.kind, left, self._parse_unary())

    def _parse_unary(self) -> Expr:
        """A primary, or a negative number literal (folded: relalg
        writes -∞ as ``-1e999``)."""
        if not self.accept("-"):
            return self._parse_primary()
        operand = self._parse_primary()
        if not isinstance(operand, Literal) or isinstance(
            operand.value, str
        ):
            raise self._error("'-' applies to a number literal only")
        return Literal(-operand.value)

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token is None:
            raise self._error("expected an expression")
        if token.kind == "number":
            self._pos += 1
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.kind == "string":
            self._pos += 1
            return Literal(token.value)
        if token.kind == "param":
            self._pos += 1
            param = Param(self._param_count)
            self._param_count += 1
            return param
        if token.kind == "EXISTS":
            self._pos += 1
            self.expect("(")
            select = self.parse_select()
            self.expect(")")
            return Exists(select)
        if token.kind == "(":
            self._pos += 1
            if self.at("SELECT", "WITH"):
                select = self.parse_select()
                self.expect(")")
                return ScalarSubquery(select)
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if token.kind == "ident":
            return self._parse_identifier_expr()
        raise self._error(f"unexpected token {token.value!r}")

    def _parse_identifier_expr(self) -> Expr:
        name = self.expect("ident").value
        if not self.accept("("):
            if self.accept("."):
                return ColumnRef(name, self.expect("ident").value)
            return ColumnRef(None, name)
        if name.lower() == "count":
            self.expect("*")
            self.expect(")")
            return CountStar()
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect(")")
        return FunctionExpr(name.lower(), tuple(args))
