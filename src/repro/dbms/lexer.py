"""SQL tokenizer for the mini DBMS.

The paper implements its techniques "as an analytic tool integrated
with the DBMS" where users select targets via SQL.  This package is
that integration: a small but real in-memory SQL engine (DDL/DML/query)
extended with improvement-query statements.  The lexer produces a flat
token stream; keywords are case-insensitive, identifiers keep their
case, strings are single-quoted with ``''`` escaping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SQLSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = {
    # standard SQL subset
    "CREATE", "TABLE", "INSERT", "INTO", "VALUES", "SELECT", "FROM",
    "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "UPDATE", "SET",
    "DELETE", "AND", "OR", "NOT", "NULL", "SHOW", "TABLES", "DESCRIBE",
    "DROP", "AS",
    # types
    "INT", "INTEGER", "FLOAT", "REAL", "TEXT",
    # improvement-query extension
    "IMPROVEMENT", "INDEX", "ON", "USING", "QUERIES", "SENSE", "MIN",
    "MAX", "IMPROVE", "TARGET", "REACH", "BUDGET", "COST", "ADJUST",
    "BETWEEN", "FROZEN", "APPLY", "METHOD", "EXPLAIN", "ANALYZE",
}

_PUNCT = {"(", ")", ",", "*", "+", "-", "/", ";", "."}
_COMPARISONS = {"=", "<", ">", "<=", ">=", "<>", "!="}


@dataclass(frozen=True)
class Token:
    kind: str  #: KEYWORD | IDENT | NUMBER | STRING | OP | PUNCT | EOF
    value: str
    position: int  #: character offset, for error messages

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):  # line comment
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            i, token = _read_string(sql, i)
            tokens.append(token)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            i, token = _read_number(sql, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            i, token = _read_word(sql, i)
            tokens.append(token)
            continue
        two = sql[i : i + 2]
        if two in _COMPARISONS:
            tokens.append(Token("OP", two, i))
            i += 2
            continue
        if ch in _COMPARISONS:
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("EOF", "", n))
    return tokens


def _read_string(sql: str, start: int) -> tuple[int, Token]:
    i = start + 1
    out = []
    while i < len(sql):
        ch = sql[i]
        if ch == "'":
            if sql[i : i + 2] == "''":  # escaped quote
                out.append("'")
                i += 2
                continue
            return i + 1, Token("STRING", "".join(out), start)
        out.append(ch)
        i += 1
    raise SQLSyntaxError(f"unterminated string starting at position {start}")


def _read_number(sql: str, start: int) -> tuple[int, Token]:
    i = start
    seen_dot = False
    seen_exp = False
    while i < len(sql):
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < len(sql) and sql[i] in "+-":
                i += 1
        else:
            break
    text = sql[start:i]
    try:
        float(text)
    except ValueError:
        raise SQLSyntaxError(f"bad number {text!r} at position {start}")
    return i, Token("NUMBER", text, start)


def _read_word(sql: str, start: int) -> tuple[int, Token]:
    i = start
    while i < len(sql) and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    word = sql[start:i]
    if word.upper() in KEYWORDS:
        return i, Token("KEYWORD", word.upper(), start)
    return i, Token("IDENT", word, start)
