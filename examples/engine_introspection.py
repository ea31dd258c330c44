"""Looking inside the from-scratch engine: plans and counters.

The minidb backend exposes what a commercial RDBMS hides: the access
plan each translated query gets and the exact number of rows it
touches.  This example shreds a catalogue into minidb, explains a few
translations and compares logical I/O across encodings.

Run:  python examples/engine_introspection.py
"""

from repro import XmlStore
from repro.backends import MiniDbBackend
from repro.workload import catalog_corpus


def main() -> None:
    document = catalog_corpus(products=40)

    print("== the plans behind three translations (dewey) ==")
    backend = MiniDbBackend()
    store = XmlStore(backend=backend, encoding="dewey")
    doc = store.load(document)
    for xpath in (
        "/catalog/product[5]/name",
        "//product[price < 50]/name",
        "//review[@rating >= 4]/comment",
    ):
        translated = store.translate(xpath, doc)
        print(f"\n{xpath}")
        for line in backend.db.explain(translated.sql):
            print("   ", line)

    print("\n== logical I/O per encoding (rows touched) ==")
    probe = "/catalog/product[10]/following-sibling::product[1]/name"
    for encoding in ("global", "local", "dewey"):
        eng_backend = MiniDbBackend()
        eng_store = XmlStore(backend=eng_backend, encoding=encoding)
        eng_doc = eng_store.load(document)
        eng_backend.db.reset_stats()
        eng_store.query(probe, eng_doc)
        stats = eng_backend.db.stats
        print(f"  {encoding:8} rows_read={stats.rows_read:6} "
              f"index_scans={stats.index_scans:4} "
              f"full_scans={stats.full_scans}")


if __name__ == "__main__":
    main()
