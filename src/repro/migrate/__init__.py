"""Encoding migration (``repro migrate``).

* :func:`~repro.migrate.engine.migrate_document` — re-encode one stored
  document between order encodings in a single transaction; a crash at
  any statement boundary recovers to exactly the pre- or post-migration
  encoding.
* :class:`~repro.migrate.advisor.MigrationAdvisor` — recommends a
  migration when the observed workload crosses the paper's E7
  query/update crossover.
"""

from repro.errors import MigrationError
from repro.migrate.advisor import MigrationAdvisor, Recommendation
from repro.migrate.engine import MigrationReport, migrate_document

__all__ = [
    "MigrationAdvisor",
    "MigrationError",
    "MigrationReport",
    "Recommendation",
    "migrate_document",
]
