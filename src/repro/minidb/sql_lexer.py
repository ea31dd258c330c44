"""Lexer for the minidb SQL subset."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import SqlSyntaxError

#: Keywords recognised by the parser (upper-cased kinds).
KEYWORDS = frozenset(
    """
    SELECT DISTINCT FROM WHERE ORDER BY LIMIT OFFSET UNION AS WITH RECURSIVE
    AND OR NOT IN EXISTS IS NULL
    CREATE TABLE INDEX UNIQUE ON IF INSERT INTO VALUES UPDATE SET DELETE
    INTEGER REAL TEXT BLOB
    """.split()
)

_PUNCTUATION = ("<>", "!=", "<=", ">=", "||", "(", ")", ",", ".", "*",
                "=", "<", ">", "+", "-", "?", ";")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | set("0123456789")


@dataclass(frozen=True)
class SqlToken:
    """``kind`` is a keyword, punctuation text, or one of
    ``ident``/``number``/``string``/``param``."""

    kind: str
    value: str
    position: int


def tokenize_sql(sql: str) -> list[SqlToken]:
    """Tokenize *sql*; raises :class:`SqlSyntaxError` on bad characters."""
    tokens: list[SqlToken] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            j = i + 1
            parts: list[str] = []
            while True:
                end = sql.find("'", j)
                if end == -1:
                    raise SqlSyntaxError("unterminated string literal", i)
                if sql.startswith("''", end):
                    parts.append(sql[j:end] + "'")
                    j = end + 2
                    continue
                parts.append(sql[j:end])
                break
            tokens.append(SqlToken("string", "".join(parts), i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and sql[j] in "eE":
                k = j + 1
                if k < n and sql[k] in "+-":
                    k += 1
                while k < n and sql[k].isdigit():
                    k += 1
                j = k
            tokens.append(SqlToken("number", sql[i:j], i))
            i = j
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and sql[j] in _IDENT_CHARS:
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(SqlToken(upper, word, i))
            else:
                # Interned: the executor keys its row environments on
                # aliases, and equal names from different places in the
                # text then hit those dicts by identity.
                tokens.append(SqlToken("ident", sys.intern(word), i))
            i = j
            continue
        if ch == '"':
            end = sql.find('"', i + 1)
            if end == -1:
                raise SqlSyntaxError("unterminated quoted identifier", i)
            tokens.append(SqlToken("ident", sql[i + 1 : end], i))
            i = end + 1
            continue
        for punct in _PUNCTUATION:
            if sql.startswith(punct, i):
                kind = "param" if punct == "?" else punct
                tokens.append(SqlToken(kind, punct, i))
                i += len(punct)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    return tokens
