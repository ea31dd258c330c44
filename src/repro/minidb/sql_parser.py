"""Recursive-descent parser for the minidb SQL subset.

Parameters (``?``) are numbered left to right in source order; the executor
binds them positionally, matching the DB-API ``qmark`` style that the
sqlite3 backend also uses, so one SQL text runs on both backends.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import SqlSyntaxError
from repro.minidb.sql_ast import (
    Binary,
    Cast,
    ColumnDef,
    ColumnRef,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Exists,
    Expr,
    FromItem,
    FunctionExpr,
    InList,
    InSelect,
    Insert,
    IsNull,
    Literal,
    OrderItem,
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
    Unary,
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

    def peek(self, offset: int = 0) -> Optional[SqlToken]:
        index = self._pos + offset
        return self._tokens[index] if index < len(self._tokens) else None

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

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.at("SELECT", "WITH"):
            return self.parse_select()
        if self.at("CREATE"):
            return self._parse_create()
        if self.at("DROP"):
            return self._parse_drop()
        if self.at("INSERT"):
            return self._parse_insert()
        if self.at("UPDATE"):
            return self._parse_update()
        if self.at("DELETE"):
            return self._parse_delete()
        raise self._error("expected a statement")

    def _parse_if_clause(self, *words: str) -> bool:
        if self.at("IF"):
            self.expect("IF")
            for word in words:
                self.expect(word)
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
        if_not_exists = self._parse_if_clause("NOT", "EXISTS")
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
        if_not_exists = self._parse_if_clause("NOT", "EXISTS")
        name = self.expect("ident").value
        self.expect("ON")
        table = self.expect("ident").value
        self.expect("(")
        columns = [self.expect("ident").value]
        while self.accept(","):
            columns.append(self.expect("ident").value)
        self.expect(")")
        return CreateIndex(name, table, tuple(columns), unique, if_not_exists)

    def _parse_drop(self) -> DropTable:
        self.expect("DROP")
        self.expect("TABLE")
        if_exists = self._parse_if_clause("EXISTS")
        name = self.expect("ident").value
        return DropTable(name, if_exists)

    def _parse_insert(self) -> Insert:
        self.expect("INSERT")
        self.expect("INTO")
        table = self.expect("ident").value
        columns: tuple[str, ...] = ()
        if self.accept("("):
            names = [self.expect("ident").value]
            while self.accept(","):
                names.append(self.expect("ident").value)
            self.expect(")")
            columns = tuple(names)
        self.expect("VALUES")
        rows = [self._parse_value_row()]
        while self.accept(","):
            rows.append(self._parse_value_row())
        return Insert(table, columns, tuple(rows))

    def _parse_value_row(self) -> tuple[Expr, ...]:
        self.expect("(")
        values = [self.parse_expr()]
        while self.accept(","):
            values.append(self.parse_expr())
        self.expect(")")
        return tuple(values)

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
        union_all: Optional[bool] = None
        while self.accept("UNION"):
            this_all = bool(self.accept("ALL"))
            if union_all is None:
                union_all = this_all
            elif union_all != this_all:
                raise self._error("mixed UNION and UNION ALL not supported")
            arms.append(self._parse_select_core())
        order_by = self._parse_order_by()
        limit = self.parse_expr() if self.accept("LIMIT") else None
        if len(arms) == 1:
            core = arms[0]
            if order_by or limit is not None:
                core = Select(
                    core.items,
                    core.from_items,
                    core.where,
                    core.group_by,
                    core.having,
                    tuple(order_by),
                    limit,
                    core.distinct,
                )
            return core
        return Union_(tuple(arms), bool(union_all), tuple(order_by), limit)

    def _parse_with(self) -> With:
        """One common table expression and the select that reads it."""
        self.expect("WITH")
        recursive = bool(self.accept("RECURSIVE"))
        name = self.expect("ident").value
        if not self.at("("):
            raise self._error(
                f"common table expression {name!r} needs a column list"
            )
        self.expect("(")
        columns = [self.expect("ident").value]
        while self.accept(","):
            columns.append(self.expect("ident").value)
        self.expect(")")
        self.expect("AS")
        self.expect("(")
        if name in self._defining:
            raise self._error(f"{name!r} is defined inside itself")
        self._defining[name] = 0
        query = self.parse_select()
        references = self._defining.pop(name)
        step: Optional[Select] = None
        union_all = False
        if references:
            query, step, union_all = self._split_recursion(
                name, recursive, query, references
            )
        self.expect(")")
        return With(
            name, tuple(columns), query, step, union_all,
            self.parse_select(),
        )

    def _split_recursion(
        self, name: str, recursive: bool, query: SelectLike,
        references: int,
    ) -> tuple[Select, Select, bool]:
        """(anchor, step, UNION ALL?) of a definition that selects from
        the table it defines; the one form accepted is ``anchor UNION
        [ALL] step`` with the only reference in the step's own FROM."""
        if not recursive:
            raise self._error(
                f"{name!r} selects from itself: write WITH RECURSIVE"
            )
        if (
            not isinstance(query, Union_)
            or len(query.arms) != 2
            or query.order_by
            or query.limit is not None
        ):
            raise self._error(
                f"recursive {name!r} must be one anchor select, UNION "
                "[ALL], one recursive select"
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
        return anchor, step, query.all

    def _parse_select_core(self) -> Select:
        self.expect("SELECT")
        distinct = bool(self.accept("DISTINCT"))
        self.accept("ALL")
        items = [self._parse_select_item()]
        while self.accept(","):
            items.append(self._parse_select_item())
        from_items: tuple[FromItem, ...] = ()
        if self.accept("FROM"):
            from_items = tuple(self._parse_from_clause())
        where = self.parse_expr() if self.accept("WHERE") else None
        group_by: tuple[Expr, ...] = ()
        if self.accept("GROUP"):
            self.expect("BY")
            exprs = [self.parse_expr()]
            while self.accept(","):
                exprs.append(self.parse_expr())
            group_by = tuple(exprs)
        having = self.parse_expr() if self.accept("HAVING") else None
        return Select(
            tuple(items), from_items, where, group_by, having,
            distinct=distinct,
        )

    def _parse_select_item(self) -> Union[SelectItem, Star]:
        if self.accept("*"):
            return Star()
        token = self.peek()
        nxt = self.peek(1)
        nxt2 = self.peek(2)
        if (
            token is not None
            and token.kind == "ident"
            and nxt is not None
            and nxt.kind == "."
            and nxt2 is not None
            and nxt2.kind == "*"
        ):
            self._pos += 3
            return Star(token.value)
        expr = self.parse_expr()
        alias = None
        if self.accept("AS"):
            alias = self.expect("ident").value
        elif self.at("ident"):
            alias = self.expect("ident").value
        return SelectItem(expr, alias)

    def _parse_from_clause(self) -> list[FromItem]:
        items = [self._parse_from_item("inner", None)]
        while True:
            if self.accept(","):
                items.append(self._parse_from_item("inner", None))
                continue
            join_type = None
            if self.accept("INNER"):
                self.expect("JOIN")
                join_type = "inner"
            elif self.accept("LEFT"):
                self.accept("OUTER")
                self.expect("JOIN")
                join_type = "left"
            elif self.accept("CROSS"):
                self.expect("JOIN")
                join_type = "inner"
            elif self.accept("JOIN"):
                join_type = "inner"
            if join_type is None:
                return items
            item = self._parse_from_item(join_type, None)
            on = self.parse_expr() if self.accept("ON") else None
            items.append(
                FromItem(item.source, item.alias, join_type, on)
            )

    def _parse_from_item(
        self, join_type: str, on: Optional[Expr]
    ) -> FromItem:
        if self.accept("("):
            select = self.parse_select()
            self.expect(")")
            self.accept("AS")
            alias = self.expect("ident").value
            return FromItem(SubquerySource(select), alias, join_type, on)
        name = self.expect("ident").value
        if name in self._defining:
            self._defining[name] += 1
        alias = name
        if self.accept("AS"):
            alias = self.expect("ident").value
        elif self.at("ident"):
            alias = self.expect("ident").value
        return FromItem(TableSource(name), alias, join_type, on)

    def _parse_order_by(self) -> list[OrderItem]:
        if not self.accept("ORDER"):
            return []
        self.expect("BY")
        items = [self._parse_order_item()]
        while self.accept(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept("DESC"):
            descending = True
        else:
            self.accept("ASC")
        return OrderItem(expr, descending)

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
            return Unary("NOT", self._parse_not())
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
                continue
            if token.kind == "IS":
                self._pos += 1
                negated = bool(self.accept("NOT"))
                self.expect("NULL")
                left = IsNull(left, negated)
                continue
            if token.kind == "NOT":
                nxt = self.peek(1)
                if nxt is not None and nxt.kind in ("IN", "LIKE", "BETWEEN"):
                    self._pos += 1
                    left = self._parse_in_like_between(left, negated=True)
                    continue
                return left
            if token.kind in ("IN", "LIKE", "BETWEEN"):
                left = self._parse_in_like_between(left, negated=False)
                continue
            return left

    def _parse_in_like_between(self, left: Expr, negated: bool) -> Expr:
        if self.accept("LIKE"):
            pattern = self._parse_additive()
            expr: Expr = Binary("LIKE", left, pattern)
            return Unary("NOT", expr) if negated else expr
        if self.accept("BETWEEN"):
            low = self._parse_additive()
            self.expect("AND")
            high = self._parse_additive()
            expr = Binary(
                "AND", Binary(">=", left, low), Binary("<=", left, high)
            )
            return Unary("NOT", expr) if negated else expr
        self.expect("IN")
        self.expect("(")
        if self.at("SELECT", "WITH"):
            select = self.parse_select()
            self.expect(")")
            return InSelect(left, select, negated)
        items = [self.parse_expr()]
        while self.accept(","):
            items.append(self.parse_expr())
        self.expect(")")
        return InList(left, tuple(items), negated)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token is not None and token.kind in ("+", "-", "||"):
                self._pos += 1
                left = Binary(
                    token.kind, left, self._parse_multiplicative()
                )
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token is not None and token.kind in ("*", "/"):
                self._pos += 1
                left = Binary(token.kind, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self.accept("-"):
            operand = self._parse_unary()
            if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ):
                return Literal(-operand.value)
            return Unary("-", operand)
        self.accept("+")
        return self._parse_primary()

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
        if token.kind == "NULL":
            self._pos += 1
            return Literal(None)
        if token.kind == "CAST":
            self._pos += 1
            self.expect("(")
            expr = self.parse_expr()
            self.expect("AS")
            target = self.expect(*_TYPE_KEYWORDS).kind
            self.expect(")")
            return Cast(expr, target)
        if token.kind == "EXISTS":
            self._pos += 1
            self.expect("(")
            select = self.parse_select()
            self.expect(")")
            return Exists(select)
        if token.kind == "NOT":
            self._pos += 1
            return Unary("NOT", self._parse_primary())
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
        if self.accept("("):
            if self.accept("*"):
                self.expect(")")
                return FunctionExpr(name.lower(), star=True)
            args: list[Expr] = []
            if not self.accept(")"):
                distinct = bool(self.accept("DISTINCT"))
                args.append(self.parse_expr())
                while self.accept(","):
                    args.append(self.parse_expr())
                self.expect(")")
                if distinct:
                    return FunctionExpr(
                        f"{name.lower()} distinct", tuple(args)
                    )
            return FunctionExpr(name.lower(), tuple(args))
        if self.accept("."):
            column = self.expect("ident").value
            return ColumnRef(name, column)
        return ColumnRef(None, name)

