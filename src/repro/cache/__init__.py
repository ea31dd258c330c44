"""Per-store caching: plan / catalog / result LRUs, epoch-invalidated.

See :mod:`repro.cache.lru` for the invalidation protocol and DESIGN.md
("Caching") for the key scheme and pool semantics.
"""

from repro.cache.lru import StoreCache

__all__ = ["StoreCache"]
