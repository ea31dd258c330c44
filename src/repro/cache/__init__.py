"""Per-store caching: plan / catalog / result / keys LRUs,
epoch-invalidated.

See :mod:`repro.cache.lru` for the invalidation protocol and DESIGN.md
("Caching") for the key scheme and its semantics across threads.
"""

from repro.cache.lru import StoreCache

__all__ = ["StoreCache"]
