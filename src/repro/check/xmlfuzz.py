"""Byte-mutation fuzz of the XML reader: typed error or correct answer.

Corpus documents are damaged at the byte level (flip, delete, duplicate,
splice — biased toward markup characters) and handed to both ways of
reading XML text: :func:`repro.xmldom.parse` followed by the DOM shred,
and the tree-free :func:`repro.core.shredder.shred_text`.  A mutant both
accept is then loaded into an in-memory store and read back
(:func:`repro.core.reconstruct.row_events`).  The only acceptable
outcomes are the same :class:`~repro.errors.XmlSyntaxError` (message,
line and column) from both readers, or two record-for-record equal
:class:`~repro.core.shredder.ShreddedDocument` *and* the text's own
parse events out of the store; any other exception — ``IndexError``,
``re.error``, ``RecursionError`` — is a failure.

Mutant *k* of a run is a function of ``base_seed + k`` alone, so a
failure replays with ``--base-seed <its seed> --mutants 1``::

    python -m repro.check.xmlfuzz --base-seed 7 --mutants 2000
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.encodings import ENCODINGS
from repro.core.reconstruct import (
    ordered_rows, row_events, stored_attributes,
)
from repro.core.shredder import shred, shred_text
from repro.errors import XmlSyntaxError
from repro.store import XmlStore
from repro.workload.docgen import article_corpus, catalog_corpus
from repro.xmldom import parse, serialize
from repro.xmldom.parser import events

#: Just past the interpreter's default recursion limit.
_DEEP = 1100

_HANDWRITTEN = (
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
    "<!DOCTYPE lib [\n  <!ELEMENT lib ANY>\n  <!ENTITY e \"]>\">\n"
    "  <!-- > ] -->\n]>\n"
    "<!--prolog--><lib:données xmlns:lib=\"urn:x\" clé='v&amp;w'>\n"
    "  <p>mixed <b>bold</b> tail &lt;&#65;&#x42;&gt; "
    "<![CDATA[ <raw> & ]] ]]>more</p>\n"
    "  <?pi some data?><empty/><e a=\"1\" b='2'\n   c = \"3\" />\n"
    "  <中文 属性=\"值\">文本</中文><!-- c - c -->\n"
    "</lib:données>\n<?epilog?>\n"
)


def corpus() -> tuple[bytes, ...]:
    """The documents mutants are made from, as UTF-8; the last one is
    the deep one."""
    texts = (
        serialize(article_corpus(articles=2, seed=3)),
        serialize(catalog_corpus(products=4, seed=4), pretty=True),
        _HANDWRITTEN,
        "<a>" * (_DEEP - 1) + "<a/>" + "</a>" * (_DEEP - 1),
    )
    return tuple(text.encode("utf-8") for text in texts)


_MARKUP = frozenset(b"<>&\"'=/!?[]-;# \n")


def mutate(rng: random.Random, data: bytes, donor: bytes) -> bytes:
    """*data* with one to three byte-level edits."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        if not out:
            break
        at = rng.randrange(len(out))
        if rng.random() < 0.6:
            # Walk to the next markup character: damage there reaches
            # the scanner's branches, damage in text mostly does not.
            while at < len(out) - 1 and out[at] not in _MARKUP:
                at += 1
        edit = rng.choice(("flip", "delete", "duplicate", "splice"))
        span = rng.randint(1, 8)
        if edit == "flip":
            out[at] ^= 1 << rng.randrange(8)
        elif edit == "delete":
            del out[at:at + span]
        elif edit == "duplicate":
            out[at:at] = out[at:at + span]
        else:
            start = rng.randrange(len(donor))
            out[at:at] = donor[start:start + span]
    return bytes(out)


def _outcome(call, text: str, strip: bool):
    """What reading *text* came to: ("ok", records), ("rejected",
    message, line, column) or ("untyped", description)."""
    try:
        return ("ok", call(text, strip))
    except XmlSyntaxError as exc:
        return ("rejected", str(exc), exc.line, exc.column)
    except Exception as exc:  # noqa: BLE001 - the defect being hunted
        return ("untyped", f"{type(exc).__name__}: {exc}")


def check_reader(text: str) -> tuple[Optional[str], bool]:
    """Read *text* both ways under both whitespace policies.

    Returns what went wrong (``None`` when the readers agree and raise
    nothing untyped) and whether *text* is well-formed.
    """
    for strip in (False, True):
        tree = _outcome(lambda t, s: shred(parse(t, s)), text, strip)
        events = _outcome(shred_text, text, strip)
        for path, outcome in (("parse+shred", tree), ("shred_text", events)):
            if outcome[0] == "untyped":
                return (
                    f"{path} (strip_whitespace={strip}) raised {outcome[1]}",
                    False,
                )
        if tree != events:
            return (
                f"the two paths disagree (strip_whitespace={strip}): "
                f"parse+shred -> {_brief(tree)}, shred_text -> "
                f"{_brief(events)}",
                False,
            )
    return None, events[0] == "ok"


def check_storage(text: str, seed: int) -> Optional[str]:
    """Load well-formed *text* and read it back as events; returns what
    went wrong.  *seed* picks the encoding (all four in turn), the
    backend (minidb one time in four) and the whitespace policy."""
    encoding = sorted(ENCODINGS)[seed % 4]
    backend = "sqlite" if seed // 4 % 4 else "minidb"
    strip = bool(seed // 16 % 2)
    where = f"{encoding}/{backend} (strip_whitespace={strip})"
    store = XmlStore(backend=backend, encoding=encoding)
    try:
        doc = store.load(text, strip_whitespace=strip)
        stored = list(row_events(
            ordered_rows(store, doc), stored_attributes(store, doc)
        ))
    except Exception as exc:  # noqa: BLE001 - the defect being hunted
        return f"storing under {where} raised {type(exc).__name__}: {exc}"
    finally:
        store.close()
    if stored != list(events(text, strip)):
        return f"{where} read back other events than the text parses to"
    return None


def _brief(outcome: tuple) -> str:
    if outcome[0] == "ok":
        return f"{outcome[1].node_count()} node(s)"
    return repr(outcome[1:])


@dataclass
class XmlFuzzReport:
    mutants: int = 0
    accepted: int = 0
    stored: int = 0
    failures: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok() else f"{len(self.failures)} FAILURE(S)"
        return (
            f"xmlfuzz: {self.mutants} mutant(s), {self.accepted} still "
            f"well-formed, {self.mutants - self.accepted} rejected, "
            f"stored={self.stored}: {status}"
        )


def run_xml_fuzz(base_seed: int, mutants: int) -> XmlFuzzReport:
    documents = corpus()
    report = XmlFuzzReport()
    for seed in range(base_seed, base_seed + mutants):
        rng = random.Random(seed)
        # Path keys make a deep document cost O(depth^2) to label, so
        # it gets one mutant in twenty.
        source = (
            documents[-1] if rng.random() < 0.05
            else rng.choice(documents[:-1])
        )
        data = mutate(rng, source, rng.choice(documents))
        text = data.decode("utf-8", errors="replace")
        problem, well_formed = check_reader(text)
        report.mutants += 1
        report.accepted += well_formed
        if well_formed and problem is None:
            problem = check_storage(text, seed)
            report.stored += 1
        if problem is not None:
            report.failures.append(
                f"xml reader failure on mutant {seed}: {problem}\n"
                f"  reproduce: repro.check.xmlfuzz --base-seed {seed} "
                f"--mutants 1"
            )
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.xmlfuzz",
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--mutants", type=int, default=500)
    args = parser.parse_args(argv)
    report = run_xml_fuzz(args.base_seed, args.mutants)
    for failure in report.failures:
        print(failure)
        print()
    print(report.summary())
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
