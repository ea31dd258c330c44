"""Document-centric scenario: an ordered journal archive.

Section and paragraph order carry meaning in document-centric XML — the
paper's motivating case.  This example loads the article corpus under all
three encodings, runs the ordered query suite on each, shows the SQL each
encoding generates for a document-order query, and prints a small timing
comparison (Local pays a recursive walk per candidate on the
``following``/``preceding`` axes).

Run:  python examples/ordered_bibliography.py
"""

import time

from repro import XmlStore
from repro.workload import ORDERED_QUERIES, article_corpus


def main() -> None:
    document = article_corpus(articles=15)
    stores = {}
    for encoding in ("global", "local", "dewey"):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document, name="journal")
        stores[encoding] = (store, doc)

    print("== ordered query suite: milliseconds per encoding ==")
    header = f"{'query':6} {'feature':28}" + "".join(
        f"{name:>10}" for name in stores
    )
    print(header)
    for query in ORDERED_QUERIES:
        cells = []
        for store, doc in stores.values():
            started = time.perf_counter()
            result = store.query(query.xpath, doc)
            elapsed = (time.perf_counter() - started) * 1000
            cells.append(f"{elapsed:9.2f}")
        print(f"{query.id:6} {query.feature:28}" + " ".join(cells)
              + f"   ({len(result)} rows)")

    print("\n== how each encoding translates a document-order query ==")
    xpath = "/journal/article[3]/following::author"
    for encoding, (store, doc) in stores.items():
        translated = store.translate(xpath, doc)
        ops = translated.stats.total_relational_operations()
        print(f"\n[{encoding}] {ops} relational ops"
              f"{' + client-side ordering' if translated.needs_client_order else ''}:")
        sql = translated.sql
        print(" ", sql if len(sql) < 400 else sql[:400] + " ...")

    print("\n== navigating an article in order ==")
    store, doc = stores["dewey"]
    first_titles = store.query_values(
        "/journal/article[1]/section/title/text()", doc
    )
    print("  article 1 section titles, in order:", first_titles)
    second_para = store.query_values(
        "/journal/article[1]/section[1]/para[2]/text()", doc
    )
    print("  article 1, section 1, paragraph 2:", second_para)


if __name__ == "__main__":
    main()
