"""minidb: a from-scratch in-memory relational engine.

Implements the SQL subset the paper's XPath-to-SQL translations generate:
DDL, INSERT/UPDATE/DELETE, and SELECT with joins (inner/left), derived
tables, correlated subqueries (EXISTS / IN / scalar), aggregates with
GROUP BY/HAVING, DISTINCT, UNION [ALL], ORDER BY and LIMIT, and ``WITH
[RECURSIVE]`` in front of any of those SELECTs (semi-naive fixpoint) —
executed over heap tables with B+-tree indexes and a planner that picks
index equality/range access paths.
"""

from repro.minidb.engine import MiniDb
from repro.minidb.executor import Result, Stats
from repro.minidb.sql_parser import parse_sql

__all__ = ["MiniDb", "Result", "Stats", "parse_sql"]
