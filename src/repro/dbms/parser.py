"""Recursive-descent parser for the mini-DBMS SQL dialect.

Grammar (informal)::

    statement   := create_table | drop | insert | select | update
                 | delete | show | describe | create_iq_index | improve
                 | explain_improve
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | comparison
    comparison  := additive (CMP additive)?
    additive    := term (('+'|'-') term)*
    term        := factor (('*'|'/') factor)*
    factor      := '-' factor | NUMBER | STRING | NULL | IDENT | '(' expr ')'

Statements end at ';' or EOF; ``parse_script`` handles multi-statement
input.

Expressions are parsed by operator precedence with explicit stacks, not
by recursion, and nest at most :data:`MAX_DEPTH` levels: each operator
and each pair of parentheses is one level.  The executor compiles an
expression into one closure per node and recurses once per level, so
the bound keeps it well inside Python's recursion limit (1000 frames by
default); deeper input is a :class:`SQLSyntaxError`.
"""

from __future__ import annotations

from repro.dbms import ast_nodes as ast
from repro.dbms.lexer import Token, tokenize
from repro.errors import SQLSyntaxError

__all__ = ["MAX_DEPTH", "parse", "parse_script"]

#: Deepest expression accepted, in levels (operators and parentheses).
#: A TARGET WHERE list of 200 OR-ed equalities is 200 levels deep.
MAX_DEPTH = 256

#: Binary operators by binding strength, loosest first; every OP token
#: (``=``, ``<>``, ``<=``, ...) is a comparison.  Prefix NOT binds
#: between AND and the comparisons, prefix minus tightest of all.
_OR, _AND, _NOT, _COMPARE, _ADD, _MULTIPLY, _NEGATE = range(1, 8)
_BINARY = {"OR": _OR, "AND": _AND, "+": _ADD, "-": _ADD, "*": _MULTIPLY, "/": _MULTIPLY}
_OPEN = (0, "(")  #: an open parenthesis on the operator stack


def parse(sql: str):
    """Parse a single statement (a trailing ';' is allowed)."""
    statements = parse_script(sql)
    if len(statements) != 1:
        raise SQLSyntaxError(f"expected exactly one statement, got {len(statements)}")
    return statements[0]


def parse_script(sql: str) -> list:
    """Parse a ';'-separated script into a list of statements."""
    parser = _Parser(tokenize(sql))
    statements = []
    while not parser.at("EOF"):
        statements.append(parser.statement())
        while parser.accept_punct(";"):
            pass
    return statements


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def at_keyword(self, *words: str) -> bool:
        return self.peek().kind == "KEYWORD" and self.peek().value in words

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise SQLSyntaxError(f"expected {word}, got {self.peek().value!r}")
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        if not self.at("PUNCT", value):
            raise SQLSyntaxError(f"expected {value!r}, got {self.peek().value!r}")
        return self.advance()

    def accept_punct(self, value: str) -> bool:
        if self.at("PUNCT", value):
            self.advance()
            return True
        return False

    def accept_keyword(self, *words: str) -> Token | None:
        if self.at_keyword(*words):
            return self.advance()
        return None

    def identifier(self) -> str:
        token = self.peek()
        if token.kind == "IDENT":
            return self.advance().value
        # Allow non-reserved-ish keywords as identifiers where harmless.
        raise SQLSyntaxError(f"expected identifier, got {token.value!r}")

    def number(self) -> float:
        token = self.peek()
        sign = 1.0
        if self.at("PUNCT", "-"):
            self.advance()
            sign = -1.0
            token = self.peek()
        if token.kind != "NUMBER":
            raise SQLSyntaxError(f"expected number, got {token.value!r}")
        return sign * float(self.advance().value)

    # -- statements -------------------------------------------------------
    def statement(self):
        if self.at_keyword("CREATE"):
            return self.create()
        if self.at_keyword("DROP"):
            return self.drop()
        if self.at_keyword("INSERT"):
            return self.insert()
        if self.at_keyword("SELECT"):
            return self.select()
        if self.at_keyword("UPDATE"):
            return self.update()
        if self.at_keyword("DELETE"):
            return self.delete()
        if self.at_keyword("SHOW"):
            self.advance()
            self.expect_keyword("TABLES")
            return ast.ShowTables()
        if self.at_keyword("DESCRIBE"):
            self.advance()
            return ast.Describe(self.identifier())
        if self.at_keyword("IMPROVE"):
            return self.improve()
        if self.at_keyword("EXPLAIN"):
            self.advance()
            analyze = False
            if self.at_keyword("ANALYZE"):
                self.advance()
                analyze = True
            if not self.at_keyword("IMPROVE"):
                raise SQLSyntaxError("EXPLAIN supports only IMPROVE statements")
            statement = self.improve()
            if statement.apply:
                raise SQLSyntaxError("EXPLAIN IMPROVE cannot take APPLY")
            return ast.ExplainImprove(statement=statement, analyze=analyze)
        raise SQLSyntaxError(f"unexpected token {self.peek().value!r}")

    def create(self):
        self.expect_keyword("CREATE")
        if self.at_keyword("TABLE"):
            self.advance()
            name = self.identifier()
            self.expect_punct("(")
            columns = []
            while True:
                col = self.identifier()
                type_token = self.accept_keyword("INT", "INTEGER", "FLOAT", "REAL", "TEXT")
                if type_token is None:
                    raise SQLSyntaxError(f"expected column type, got {self.peek().value!r}")
                columns.append((col, type_token.value))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            return ast.CreateTable(name=name, columns=columns)
        if self.at_keyword("IMPROVEMENT"):
            return self.create_improvement_index()
        raise SQLSyntaxError("CREATE must be followed by TABLE or IMPROVEMENT INDEX")

    def drop(self):
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        return ast.DropTable(self.identifier())

    def insert(self):
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.identifier()
        self.expect_keyword("VALUES")
        rows = []
        while True:
            self.expect_punct("(")
            values = [self.expression()]
            while self.accept_punct(","):
                values.append(self.expression())
            self.expect_punct(")")
            rows.append(values)
            if not self.accept_punct(","):
                break
        return ast.Insert(table=table, rows=rows)

    def select(self):
        self.expect_keyword("SELECT")
        if self.accept_punct("*"):
            columns = None
        else:
            columns = [self.identifier()]
            while self.accept_punct(","):
                columns.append(self.identifier())
        self.expect_keyword("FROM")
        table = self.identifier()
        where = self.optional_where()
        order_by = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            column = self.identifier()
            ascending = True
            if self.accept_keyword("DESC"):
                ascending = False
            else:
                self.accept_keyword("ASC")
            order_by = (column, ascending)
        limit = None
        if self.accept_keyword("LIMIT"):
            value = self.number()
            if value < 0 or not value.is_integer():
                raise SQLSyntaxError(f"LIMIT needs a whole number of rows, got {value}")
            limit = int(value)
        return ast.Select(table=table, columns=columns, where=where, order_by=order_by, limit=limit)

    def update(self):
        self.expect_keyword("UPDATE")
        table = self.identifier()
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.identifier()
            if not (self.at("OP", "=")):
                raise SQLSyntaxError(f"expected '=', got {self.peek().value!r}")
            self.advance()
            assignments.append((column, self.expression()))
            if not self.accept_punct(","):
                break
        return ast.Update(table=table, assignments=assignments, where=self.optional_where())

    def delete(self):
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.identifier()
        return ast.Delete(table=table, where=self.optional_where())

    def optional_where(self):
        if self.accept_keyword("WHERE"):
            return self.expression()
        return None

    # -- improvement extension ---------------------------------------------
    def create_improvement_index(self):
        self.expect_keyword("IMPROVEMENT")
        self.expect_keyword("INDEX")
        name = self.identifier()
        self.expect_keyword("ON")
        object_table = self.identifier()
        attribute_columns = self.column_list()
        self.expect_keyword("USING")
        self.expect_keyword("QUERIES")
        query_table = self.identifier()
        query_columns = self.column_list()
        if len(query_columns) != len(attribute_columns) + 1:
            raise SQLSyntaxError(
                "the query column list must supply one weight per attribute plus the k column"
            )
        sense = "min"
        if self.accept_keyword("SENSE"):
            token = self.accept_keyword("MIN", "MAX")
            if token is None:
                raise SQLSyntaxError("SENSE must be MIN or MAX")
            sense = token.value.lower()
        return ast.CreateImprovementIndex(
            name=name,
            object_table=object_table,
            attribute_columns=attribute_columns,
            query_table=query_table,
            weight_columns=query_columns[:-1],
            k_column=query_columns[-1],
            sense=sense,
        )

    def column_list(self) -> list[str]:
        self.expect_punct("(")
        columns = [self.identifier()]
        while self.accept_punct(","):
            columns.append(self.identifier())
        self.expect_punct(")")
        return columns

    def improve(self):
        self.expect_keyword("IMPROVE")
        table = self.identifier()
        self.expect_keyword("TARGET")
        self.expect_keyword("WHERE")
        where = self.expression()
        self.expect_keyword("USING")
        index = self.identifier()
        reach = None
        budget = None
        cost = "L2"
        adjust = []
        method = "efficient"
        apply = False
        while True:
            if self.accept_keyword("REACH"):
                value = self.number()
                if not value.is_integer():
                    raise SQLSyntaxError(f"REACH needs a whole number of hits, got {value}")
                reach = int(value)
            elif self.accept_keyword("BUDGET"):
                budget = self.number()
            elif self.accept_keyword("COST"):
                cost = self.identifier().upper()
            elif self.accept_keyword("METHOD"):
                method = self.identifier().lower()
            elif self.accept_keyword("APPLY"):
                apply = True
            elif self.accept_keyword("ADJUST"):
                adjust.extend(self.adjust_items())
            else:
                break
        if (reach is None) == (budget is None):
            raise SQLSyntaxError("IMPROVE needs exactly one of REACH <n> or BUDGET <x>")
        return ast.Improve(
            table=table,
            where=where,
            index=index,
            reach=reach,
            budget=budget,
            cost=cost,
            adjust=adjust,
            method=method,
            apply=apply,
        )

    def adjust_items(self) -> list[ast.AdjustClause]:
        items = []
        while True:
            column = self.identifier()
            if self.accept_keyword("FROZEN"):
                items.append(ast.AdjustClause(column=column, frozen=True))
            elif self.accept_keyword("BETWEEN"):
                lower = self.number()
                self.expect_keyword("AND")
                upper = self.number()
                items.append(ast.AdjustClause(column=column, lower=lower, upper=upper))
            else:
                raise SQLSyntaxError("ADJUST item must be '<col> FROZEN' or '<col> BETWEEN a AND b'")
            if not self.accept_punct(","):
                break
        return items

    # -- expressions --------------------------------------------------------
    def expression(self):
        """Parse one expression (the grammar above) without recursion.

        ``operands`` holds ``(node, depth)`` pairs and ``pending`` the
        ``(strength, operator)`` pairs not yet applied, with :data:`_OPEN`
        for each open parenthesis.  A prefix NOT is taken only where
        ``not_expr`` may start: at the start of the expression or of a
        parenthesis, or after AND, OR or NOT.
        """
        operands: list = []
        pending: list = []
        open_parens = 0
        while True:
            if self.accept_punct("("):
                pending.append(_OPEN)
                open_parens += 1
                continue
            if self.accept_punct("-"):
                pending.append((_NEGATE, "-"))
                continue
            if self.at_keyword("NOT") and (not pending or pending[-1][0] <= _NOT):
                pending.append((_NOT, self.advance().value))
                continue
            operands.append((self.value(), 0))
            while open_parens and self.accept_punct(")"):
                self._reduce(operands, pending, _OR)
                pending.pop()
                open_parens -= 1
                node, depth = operands.pop()
                operands.append((node, _checked_depth(depth + 1)))
            strength = self._binary_strength()
            if strength == _COMPARE:
                self._reduce(operands, pending, _COMPARE + 1)
                if pending and pending[-1][0] == _COMPARE:
                    strength = None  # comparisons do not chain
            elif strength is not None:
                self._reduce(operands, pending, strength)
            if strength is None:
                if open_parens:
                    raise SQLSyntaxError(f"expected ')', got {self.peek().value!r}")
                self._reduce(operands, pending, _OR)
                return operands[0][0]
            pending.append((strength, self.advance().value))

    def _binary_strength(self) -> int | None:
        """How tightly the next token binds as a binary operator (None: it is not one)."""
        token = self.peek()
        if token.kind == "OP":
            return _COMPARE
        if token.kind in ("KEYWORD", "PUNCT"):
            return _BINARY.get(token.value)
        return None

    @staticmethod
    def _reduce(operands: list, pending: list, floor: int) -> None:
        """Apply pending operators, innermost first, while they bind at least ``floor``."""
        while pending and pending[-1][0] >= floor:
            strength, op = pending.pop()
            node, depth = operands.pop()
            if strength in (_NOT, _NEGATE):
                node = ast.Unary(op, node)
            else:
                left, left_depth = operands.pop()
                node = ast.Binary(op, left, node)
                depth = max(depth, left_depth)
            operands.append((node, _checked_depth(depth + 1)))

    def value(self):
        """A literal or a column reference."""
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            value = float(token.value)
            if value.is_integer() and "." not in token.value and "e" not in token.value.lower():
                return ast.Literal(int(value))
            return ast.Literal(value)
        if token.kind == "STRING":
            self.advance()
            return ast.Literal(token.value)
        if token.kind == "KEYWORD" and token.value == "NULL":
            self.advance()
            return ast.Literal(None)
        if token.kind == "IDENT":
            self.advance()
            return ast.ColumnRef(token.value)
        raise SQLSyntaxError(f"unexpected token {token.value!r} in expression")


def _checked_depth(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise SQLSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels")
    return depth
