"""One labeler, two event sources: the text path and the DOM path agree.

``XmlStore.load(text)`` labels parse events directly;
``load(dom)`` / ``shred(dom)`` label a walk over a tree.  These tests
hold the two to each other record for record, hold malformed input to
one typed error whichever way it arrives, run the byte-mutation fuzz of
the XML reader on fixed seeds, and guard the two costs the rewrite
removed with call counts instead of a stopwatch.
"""

import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.check import xmlfuzz
from repro.core import dewey
from repro.core.encodings import get_encoding
from repro.core.reconstruct import row_events as real_row_events
from repro.core.shredder import shred, shred_text
from repro.errors import XmlSyntaxError
from repro.store import XmlStore
from repro.workload.docgen import article_corpus, random_document
from repro.xmldom import parse, serialize
from repro.xmldom.tokenizer import Tokenizer

from tests.conftest import ALL_ENCODINGS

_TAG = re.compile(r"(<[^>]+>)")


def decorated(document, rng: random.Random) -> str:
    """*document* serialized, then strewn with what a serializer never
    writes: comments, PIs, CDATA sections (in place of, next to and
    between text) and whitespace-only text."""
    pieces = [p for p in _TAG.split(serialize(document)) if p]
    out = [rng.choice(("", "<!--prolog-->", "<?first pi?>\n", "  \n"))]
    last = len(pieces) - 1
    for index, piece in enumerate(pieces):
        if not piece.startswith("<") and rng.random() < 0.4:
            cut = rng.randrange(len(piece) + 1)
            piece = f"{piece[:cut]}<![CDATA[{piece[cut:]}]]>"
        out.append(piece)
        if index == last:
            break
        roll = rng.random()
        if roll < 0.15:
            out.append(f"<!--c{index}-->")
        elif roll < 0.25:
            out.append(f"<?p{index} d?>")
        elif roll < 0.40:
            out.append(rng.choice((" ", "\n  ", "\t")))
        elif roll < 0.50:
            out.append(rng.choice(("<![CDATA[]]>", "<![CDATA[ ]]>",
                                   "<![CDATA[<x>&]]>")))
    out.append(rng.choice(("", "<!--epilog-->", "\n<?last?>", "\n")))
    return "".join(out)


class TestTextPathEqualsDomPath:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), strip=st.booleans())
    def test_records_agree_on_decorated_documents(self, seed, strip):
        text = decorated(random_document(seed), random.Random(seed))
        assert shred_text(text, strip) == shred(parse(text, strip))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), strip=st.booleans())
    def test_stored_rows_agree(self, seed, strip):
        text = decorated(random_document(seed), random.Random(seed))
        encoding = ALL_ENCODINGS[seed % len(ALL_ENCODINGS)]
        store = XmlStore(encoding=encoding, gap=1 + seed % 3)
        from_text = store.load(text, strip_whitespace=strip)
        from_dom = store.load(parse(text, strip_whitespace=strip))
        rows = {
            doc: [
                tuple(bytes(v) if isinstance(v, memoryview) else v
                      for v in row[1:])
                for row in store.backend.execute(
                    f"SELECT * FROM {store.node_table} WHERE doc = ? "
                    "ORDER BY id", (doc,)
                ).rows
            ]
            for doc in (from_text, from_dom)
        }
        assert rows[from_text] == rows[from_dom]
        assert serialize(store.reconstruct(from_text)) == serialize(
            parse(text, strip_whitespace=strip)
        )

    def test_bulk_rows_equal_per_node_rows(self):
        # The O(1)-per-node key builder against the whole-path codec.
        shredded = shred(random_document(11, max_depth=7, max_children=5))
        assert shredded.node_count() > 50
        for name in ALL_ENCODINGS:
            encoding = get_encoding(name)
            for gap in (1, 8, 200):
                assert list(
                    encoding.node_rows(3, shredded.nodes, gap)
                ) == [
                    encoding.node_row(3, node, gap)
                    for node in shredded.nodes
                ]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), strip=st.booleans())
    # A mutant that stays well-formed with an element's attributes out
    # of name order: the tables carry no attribute position.
    @example(seed=184, strip=False)
    def test_malformed_input_raises_the_same_error_either_way(
        self, seed, strip
    ):
        rng = random.Random(seed)
        text = decorated(random_document(seed), rng).encode("utf-8")
        damaged = xmlfuzz.mutate(rng, text, text).decode(
            "utf-8", errors="replace"
        )
        store = XmlStore()
        try:
            expected = parse(damaged, strip_whitespace=strip)
        except XmlSyntaxError as exc:
            with pytest.raises(XmlSyntaxError) as caught:
                store.load(damaged, strip_whitespace=strip)
            assert (str(caught.value), caught.value.line,
                    caught.value.column) == (str(exc), exc.line, exc.column)
            assert store.documents() == []
        else:
            doc = store.load(damaged, strip_whitespace=strip)
            # Attribute order is not part of the model (XPath leaves it
            # implementation-defined; rows come back name-sorted), so
            # compare trees, whose attributes are a mapping, not text.
            assert store.reconstruct(doc).structurally_equal(expected)


class TestByteMutationFuzz:
    """ROADMAP "Bounded everything" (d), for the XML reader."""

    def test_every_mutant_is_rejected_typed_or_read_the_same_both_ways(
        self
    ):
        report = xmlfuzz.run_xml_fuzz(base_seed=1, mutants=300)
        assert report.ok(), "\n".join(report.failures)
        # The fuzz reaches both outcomes, and the deep document; every
        # mutant the readers accept also went through a store.
        assert 30 < report.accepted < 270
        assert report.stored == report.accepted

    def test_corpus_is_well_formed_and_deeper_than_the_recursion_limit(
        self
    ):
        documents = xmlfuzz.corpus()
        for data in documents:
            assert xmlfuzz.check_reader(data.decode("utf-8")) == (None, True)
        deep = shred_text(documents[-1].decode("utf-8"))
        assert max(n.depth for n in deep.nodes) > sys.getrecursionlimit()

    def test_an_untyped_exception_is_a_failure(self, monkeypatch):
        def broken(text, strip_whitespace=False):
            raise IndexError("string index out of range")

        monkeypatch.setattr(xmlfuzz, "shred_text", broken)
        report = xmlfuzz.run_xml_fuzz(base_seed=5, mutants=3)
        assert len(report.failures) == 3
        assert "IndexError" in report.failures[0]
        assert "reproduce: repro.check.xmlfuzz --base-seed 5" in (
            report.failures[0]
        )

    def test_disagreeing_paths_are_a_failure(self, monkeypatch):
        monkeypatch.setattr(
            xmlfuzz, "shred_text",
            lambda text, strip=False: shred(parse("<other/>")),
        )
        problem, _ = xmlfuzz.check_reader("<a>text</a>")
        assert "disagree" in problem

    def test_storage_leg_reaches_every_encoding_backend_and_policy(
        self, monkeypatch
    ):
        opened = set()
        real_load = XmlStore.load

        def load(store, text, strip_whitespace=False):
            opened.add((store.encoding.name, store.backend.name,
                        strip_whitespace))
            return real_load(store, text, strip_whitespace=strip_whitespace)

        monkeypatch.setattr(XmlStore, "load", load)
        text = xmlfuzz.corpus()[2].decode("utf-8")
        for seed in range(32):
            assert xmlfuzz.check_storage(text, seed) is None
        assert len(opened) == len(ALL_ENCODINGS) * 2 * 2

    def test_a_store_that_reads_back_other_events_is_a_failure(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            xmlfuzz, "row_events",
            lambda rows, attributes: list(real_row_events(rows, {})),
        )
        assert xmlfuzz.check_storage("<a>text</a>", 0) is None
        assert "read back other events" in xmlfuzz.check_storage(
            "<a k='v'>text</a>", 0
        )
        report = xmlfuzz.run_xml_fuzz(base_seed=1, mutants=40)
        assert 0 < len(report.failures) <= report.stored

    def test_command_line_reports_and_sets_exit_status(self, capsys):
        assert xmlfuzz.main(["--base-seed", "9", "--mutants", "5"]) == 0
        out = capsys.readouterr().out
        assert "xmlfuzz: 5 mutant(s)" in out and "stored=" in out


def python_calls(function) -> int:
    """How many Python-level function calls (generator resumptions
    included) *function* makes; C calls are not counted.  The count
    repeats exactly from run to run."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


class TestCallCountGuards:
    """Deterministic stand-ins for timing assertions."""

    def test_tokenizer_makes_a_few_calls_per_token_not_per_character(self):
        text = serialize(article_corpus(articles=10))
        tokens = sum(1 for _ in Tokenizer(text).tokens())
        assert tokens > 500
        calls = python_calls(
            lambda: sum(1 for _ in Tokenizer(text).tokens())
        )
        # The per-character reader this replaced made 42 per token
        # (2.6 per input character).
        assert calls / tokens <= 8, calls / tokens

    def test_text_load_never_builds_a_tree(self, monkeypatch):
        from repro.xmldom import dom

        def no_tree(self, *args, **kwargs):
            raise AssertionError("load(text) built a DOM node")

        store = XmlStore()
        text = serialize(article_corpus(articles=2))
        monkeypatch.setattr(dom.Node, "__init__", no_tree)
        doc = store.load(text)
        monkeypatch.undo()
        assert serialize(store.reconstruct(doc)) == text

    @pytest.mark.parametrize("name", ("dewey", "ordpath"))
    def test_prefix_keys_cost_one_component_per_node(
        self, name, monkeypatch
    ):
        encoding = get_encoding(name)
        encoded = []
        real = encoding.component_bytes

        def counting(component):
            encoded.append(component)
            return real(component)

        monkeypatch.setattr(
            type(encoding), "component_bytes", staticmethod(counting)
        )
        depth = 400
        chain = shred_text("<a>" * depth + "</a>" * depth).nodes
        rows = list(encoding.node_rows(1, chain, 1))
        # One component per node at most (none when a sibling index
        # repeats) — not one per node per level, which is 80 200 here.
        assert len(encoded) <= depth
        monkeypatch.undo()
        assert rows == [encoding.node_row(1, node, 1) for node in chain]
        assert dewey.decode_components(
            get_encoding("dewey").node_row(1, chain[-1], 1)[-1]
        ) == (1,) * depth
