"""minidb: a from-scratch in-memory relational engine.

Implements exactly the SQL the store and the paper's XPath-to-SQL
translations send (:mod:`repro.minidb.sql_ast`): DDL, single-row INSERT,
UPDATE/DELETE, and SELECT over comma joins, derived tables, correlated
EXISTS and scalar subqueries, COUNT(*) / MIN / MAX / GROUP_CONCAT,
DISTINCT, UNION and ascending ORDER BY, with ``WITH RECURSIVE`` in
front of any of them (semi-naive fixpoint) — executed over heap tables
with B+-tree indexes and a planner that picks index equality/range
access paths.
"""

from repro.minidb.engine import MiniDb
from repro.minidb.executor import Result, Stats
from repro.minidb.sql_parser import parse_sql

__all__ = ["MiniDb", "Result", "Stats", "parse_sql"]
