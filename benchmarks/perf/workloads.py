"""The six workloads: set-up, timed rounds, verification and probes.

Every workload is a closed loop: the next operation is issued when the
previous one returns.  A workload runs R rounds; inside a round it runs
one pass per encoding over the same schedule slice, so the passes are
interleaved in time and a drift of the machine hits all three alike.
Every layer is measured from outside, by timing calls into its public
functions and reading the public counters.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import resource
import shutil
import threading
from collections import Counter
from dataclasses import dataclass, replace
from statistics import median
from time import perf_counter
from typing import Optional

from repro import XmlStore, parse, parse_xpath, serialize
from repro.backends import make_backend
from repro.check.invariants import audit_document
from repro.core.reconstruct import reconstruct_document_with_ids
from repro.core.shredder import direct_text_value, shred
from repro.errors import ReproError
from repro.obs import METRICS
from repro.serve import ServeConfig, ServeDaemon, ShardClient, TcpClient
from repro.serve.protocol import HEADER, decode_payload, encode_frame
from repro.serve.worker import ShardWorker
from repro.workload import sized_article_corpus
from repro.xpath import Evaluator

import schedule as sched
from hostspeed import HostSpeed
from schedule import ENCODINGS, MIX_R, MIX_R_PRIME, MIX_W, Op
from spans import SpanRecorder

#: Kernel runs at each boundary between two of ingest's long operations.
CALIBRATIONS = 3

#: Scratch directory, relative to the checkout root the runner chdirs
#: into (relative so unix-socket paths stay under the 108-byte limit).
WORK = os.path.join("benchmarks", "perf", ".bench_work")


@dataclass(frozen=True)
class Config:
    """Sizes of one workload (``quick()`` shrinks them for the self-test)."""

    rounds: int
    ops: int  # per pass and round (serve_wire: per client thread)
    docs: int
    articles: int
    nodes: int = 0  # ingest: target size of each document
    warmup: int = 300
    sample: int = 200  # verified queries per pass
    probe: int = 300  # scheduled ops replayed layer by layer
    hot_keys: int = 0  # size of the Zipf hot set reads draw from; 0: uniform
    backend: str = "sqlite"
    mix: Optional[dict] = None
    write_share: float = 0.0
    indexed: bool = False

    def quick(self) -> "Config":
        return replace(
            self, rounds=2, ops=max(60, self.ops // 15),
            docs=min(self.docs, 4),
            articles=min(self.articles, 12), nodes=min(self.nodes, 700),
            warmup=20, sample=24, probe=100,
            hot_keys=min(self.hot_keys, 40),
        )


CONFIGS = {
    # 32 documents, not the issue's 24: with 24 the result cache still
    # answered 0.27-0.28 of the reads (T2, T3 and T11 have four literals
    # each), above the <= 0.25 the workload rests on; 32 gives 0.20.
    "ordered_read": Config(rounds=4, ops=1500, docs=32, articles=10,
                           mix=MIX_R),
    "minidb_read": Config(rounds=4, ops=1000, docs=32, articles=10,
                          backend="minidb", mix=MIX_R_PRIME),
    "hot_mixed": Config(rounds=4, ops=3000, docs=16, articles=10,
                        mix=MIX_R_PRIME, write_share=0.05, indexed=True,
                        hot_keys=200),
    # A = 20, not the issue's 40: the 1050 writes of a round add 2.3k
    # nodes whatever the document started at, so halving it to 0.9k
    # nodes takes a quarter off the round and the fourth round fits.
    "update_heavy": Config(rounds=4, ops=1500, docs=1, articles=20,
                           mix=MIX_R_PRIME, write_share=0.70),
    # Four ops per pass and round: a load and a rebuild per document.
    "ingest": Config(rounds=4, ops=4, docs=2, articles=0, nodes=16000),
    "serve_wire": Config(rounds=6, ops=600, docs=16, articles=10,
                         mix=MIX_R_PRIME, write_share=0.10, hot_keys=200),
}


class PassSample:
    """What one pass of one round measured."""

    def __init__(self) -> None:
        #: Raw latencies in seconds.
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.details: list[str] = []  # write class, parallel to writes
        self.failed = 0
        #: Host-speed factor of the pass: the runner divides the pass's
        #: statistics by it when it summarises the run.
        self.host = 1.0
        # Traced rounds only: program counters split by op class, and
        # the store cache's own statistics.
        self.counters = {"read": Counter(), "write": Counter()}
        self.cache: dict = {}


class Round:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.passes: dict[str, PassSample] = {}
        #: serve_wire only: wall time of the round across both clients.
        self.wall: Optional[float] = None

    def completed(self) -> int:
        return sum(len(p.reads) + len(p.writes) for p in self.passes.values())

    def failed(self) -> int:
        return sum(p.failed for p in self.passes.values())

    def ops_s(self, raw: bool = False) -> float:
        """Completed ops / the time they took (at reference speed
        unless *raw*)."""
        busy = sum(
            (self.wall if self.wall is not None
             else sum(p.reads) + sum(p.writes)) / (1.0 if raw else p.host)
            for p in self.passes.values()
        )
        return self.completed() / busy


def counters_now() -> Counter:
    return Counter(METRICS.snapshot()["counters"])


def cache_delta(before: dict, after: dict) -> dict:
    return {
        layer: {
            key: after["layers"][layer][key] - before["layers"][layer][key]
            for key in ("hits", "misses", "evictions", "invalidations")
        }
        for layer in after["layers"]
    }


def ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


class Workload:
    """Shared bookkeeping of the three kinds of workload."""

    #: Whether the runner switches the program's counters on for traced
    #: rounds only (the serve daemon keeps them on for its whole life;
    #: there a traced round adds only the benchmark's own spans).
    toggles_counters = True
    #: Whether times are divided by the host-speed factor (hostspeed.py).
    calibrated = True

    def __init__(self, name: str, seed: int, config: Config) -> None:
        self.name = name
        self.seed = seed
        self.config = config
        self.recorder = SpanRecorder()
        self.speed = HostSpeed(self.calibrated)
        #: Verification mismatches; any entry makes the run exit 1.
        self.problems: list[str] = []
        #: First few operation failures, for the report.
        self.failures: list[str] = []
        self.schedule_hash = ""
        self.setup_layers: dict = {}
        self.stores: dict[str, XmlStore] = {}

    def problem(self, where: str, what: str) -> None:
        self.problems.append(
            f"seed {self.seed} workload {self.name} {where}: {what}"
        )

    def failure(self, where: str, exc: BaseException) -> None:
        if len(self.failures) < 5:
            self.failures.append(f"{where}: {type(exc).__name__}: {exc}")

    def slots(self, trace: bool) -> int:
        """Round slices to schedule: a traced run pairs each untraced
        round with a traced one, at about the untraced run's cost."""
        rounds = self.config.rounds
        return 2 * max(1, rounds // 2) if trace else rounds

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The phases a subclass provides: setup(slots), teardown(),
    # run_round(slot, traced), verify(rounds_run), layers(rounds).


# -- embedded workloads -------------------------------------------------------


class Embedded(Workload):
    """ordered_read, minidb_read, hot_mixed, update_heavy."""

    def setup(self, slots: int) -> None:
        cfg = self.config
        rng = random.Random(self.seed)
        per_round_copy = cfg.docs == 1
        if per_round_copy:
            # update_heavy: a pristine copy of the one document per
            # round (plus one for the warm-up), all loaded in set-up.
            base = sched.corpus(self.seed, 1, cfg.articles)[0]
            documents = [base] * (slots + 1)
        else:
            documents = sched.corpus(self.seed, cfg.docs, cfg.articles)
        doc_ids = list(range(1, len(documents) + 1))
        self.models = {
            doc: sched.DocModel(dom) for doc, dom in zip(doc_ids, documents)
        }
        hot = (
            sched.HotSet(rng, cfg.hot_keys, doc_ids, cfg.articles)
            if cfg.hot_keys else None
        )
        pairs = [doc_ids[i:i + 2] for i in range(0, len(doc_ids), 2)]

        def build_slice(slot: int, count: int) -> list[Op]:
            writes = round(count * cfg.write_share)
            if per_round_copy:
                targets = [doc_ids[slot]]
                read_docs = targets
            else:
                # hot_mixed: writes aim at a fresh pair each round.
                targets = pairs[slot % len(pairs)]
                read_docs = doc_ids
            if hot is not None:
                reads = hot.reads(rng, count - writes)
            else:
                reads = sched.uniform_reads(
                    rng, count - writes, cfg.mix, read_docs, cfg.articles
                )
            if not writes:
                return reads
            stream = sched.WriteStream(self.models)
            classes = iter(sched.exact_mix(rng, writes, MIX_W))
            return [
                op if op is not None
                else stream.next(rng, next(classes), targets)
                for op in sched.interleave(rng, reads, writes)
            ]

        # Slice 0 is the warm-up; slices 1.. are the rounds.  A
        # --seconds budget may leave late slices unrun, so the node
        # counts the schedule implies are kept per slice.
        self.slices = []
        self.expected_nodes: list[dict[int, int]] = []
        for slot in range(slots + 1):
            self.slices.append(
                build_slice(slot, cfg.ops if slot else cfg.warmup)
            )
            self.expected_nodes.append(
                {doc: model.nodes for doc, model in self.models.items()}
            )
        self.schedule_hash = sched.schedule_hash(self.slices)

        index_ms: list[float] = []
        began = self.speed.sample()
        for enc in ENCODINGS:
            store = XmlStore(backend=cfg.backend, encoding=enc)
            self.stores[enc] = store
            for doc, dom in zip(doc_ids, documents):
                self.speed.sample()
                loaded = store.load(dom)
                if loaded != doc:
                    raise RuntimeError(f"expected doc {doc}, got {loaded}")
                if cfg.indexed:
                    start = perf_counter()
                    store.indexes.create(doc)
                    index_ms.append((perf_counter() - start) * 1000.0)
        if index_ms:
            self.setup_layers["index.create_ms"] = median(
                index_ms
            ) / self.speed.factor(began, self.speed.sample())
        for enc in ENCODINGS:
            self._run_pass(enc, self.slices[0], False, "warmup")

    def teardown(self) -> None:
        for store in self.stores.values():
            store.close()
        self.stores = {}

    def run_round(self, slot: int, traced: bool) -> Round:
        result = Round(traced)
        ops = self.slices[slot + 1]
        for enc in ENCODINGS:
            result.passes[enc] = self._run_pass(
                enc, ops, traced, f"r{slot}"
            )
        return result

    def _run_pass(
        self, enc: str, ops: list[Op], traced: bool, tag: str
    ) -> PassSample:
        store = self.stores[enc]
        sample = PassSample()
        reads, writes, details = sample.reads, sample.writes, sample.details
        speed = self.speed
        began = speed.sample()
        query = store.query
        insert, delete = store.updates.insert, store.updates.delete
        add_span = self.recorder.add
        if traced:
            cache_before = store.cache.stats()
            mark = counters_now()
            previous = "read"
        for i, op in enumerate(ops):
            kind = op.kind
            if traced:
                # Counters are split by op class by snapshotting only
                # where the class changes, between timed calls.
                cls = "read" if kind == "read" else "write"
                if cls != previous:
                    now = counters_now()
                    sample.counters[previous].update(now - mark)
                    mark, previous = now, cls
            start = perf_counter()
            if start >= speed.due:
                start = speed.sample()
            try:
                if kind == "read":
                    query(op.xpath, op.doc)
                elif kind == "insert":
                    report = insert(op.doc, op.parent, op.index, op.fragment)
                else:
                    report = delete(op.doc, op.node)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                sample.failed += 1
                self.failure(f"{tag} {enc} op {i} {op.canonical()}", exc)
                continue
            end = perf_counter()
            if kind == "read":
                reads.append(end - start)
            else:
                writes.append(end - start)
                details.append(op.detail)
                changed = (
                    report.inserted if kind == "insert" else report.deleted
                )
                if changed != op.nodes or (
                    kind == "insert" and report.new_root_id != op.node
                ):
                    self.problem(
                        f"pass {enc} {tag} op {i}",
                        f"{kind} touched {changed} nodes (root "
                        f"{report.new_root_id}), schedule says {op.nodes} "
                        f"(root {op.node})",
                    )
            if traced:
                add_span(f"op.{kind}", start, end, None, f"{tag}:{enc}:{i}")
        sample.host = speed.factor(began, speed.sample())
        if traced:
            sample.counters[previous].update(counters_now() - mark)
            sample.cache = cache_delta(cache_before, store.cache.stats())
        return sample

    # -- verification -----------------------------------------------------

    def verify(self, ran: int) -> None:
        rng = random.Random(self.seed + 1)
        scheduled = [
            op for ops in self.slices[1:ran + 1] for op in ops
            if op.kind == "read"
        ]
        sampled = rng.sample(
            scheduled, min(self.config.sample, len(scheduled))
        )
        answers: dict[str, list] = {}
        for enc, store in self.stores.items():
            for doc, nodes in self.expected_nodes[ran].items():
                for violation in audit_document(store, doc):
                    self.problem(f"pass {enc} doc {doc}", str(violation))
                stored = store.node_count(doc)
                if stored != nodes:
                    self.problem(
                        f"pass {enc} doc {doc}",
                        f"{stored} nodes stored, base + inserted - deleted "
                        f"is {nodes}",
                    )
            oracles: dict[int, tuple] = {}
            got_all = []
            for op in sampled:
                if op.doc not in oracles:
                    tree, ids = reconstruct_document_with_ids(store, op.doc)
                    oracles[op.doc] = (Evaluator(tree), ids)
                evaluator, ids = oracles[op.doc]
                want = [ids[id(n)] for n in evaluator.evaluate(op.xpath)]
                got = [i.node_id for i in store.query(op.xpath, op.doc)]
                if got != want:
                    self.problem(
                        f"pass {enc} op {op.canonical()}",
                        f"store returned {got}, oracle {want}",
                    )
                got_all.append(got)
            answers[enc] = got_all
        for enc in ENCODINGS[1:]:
            for op, first, other in zip(
                sampled, answers[ENCODINGS[0]], answers[enc]
            ):
                if first != other:
                    self.problem(
                        f"pass {enc} op {op.canonical()}",
                        f"disagrees with {ENCODINGS[0]}: {other} vs {first}",
                    )

    # -- per-layer metrics ------------------------------------------------

    def layers(self, rounds: list[Round]) -> dict:
        traced = [r for r in rounds if r.traced]
        out = {}
        for enc in ENCODINGS:
            samples = [r.passes[enc] for r in traced]
            values = counter_layers(samples)
            values.update(self._probe(enc))
            values.update(self.setup_layers)
            out[enc] = values
        return out

    def _probe(self, enc: str) -> dict:
        """Replay the first scheduled reads one layer call at a time.

        Writes are not replayed (their arguments were consumed by the
        rounds); ``core.updates.write_ms`` is the timed write itself.
        The replay goes through two more facades over the same backend:
        one with fresh caches, plans warmed and results empty, so a
        key's first occurrence is a result miss and a repeat is a hit
        whatever the rounds left behind; and one with caching off,
        which compiles every time (the cold-translate twin).
        """
        backend = self.stores[enc].backend
        store = XmlStore(backend=backend, encoding=enc, cache=True)
        cold = XmlStore(backend=backend, encoding=enc, cache=False)
        rec = self.recorder
        reads = [
            op for op in self.slices[1][: self.config.probe]
            if op.kind == "read"
        ]
        for op in reads:
            store.translate(op.xpath, op.doc)
        speed = self.speed
        began = speed.sample()
        parse_us, warm_us, execute_us, self_us, hit_us = [], [], [], [], []
        below = whole = 0.0
        for i, op in enumerate(reads):
            tag = f"probe:{enc}:{i}"
            if perf_counter() >= speed.due:
                speed.sample()
            root = rec.add("probe.op", perf_counter(), 0.0, None, tag)
            hits = store.cache.stats()["layers"]["result"]["hits"]
            t0 = perf_counter()
            store.query(op.xpath, op.doc)
            t1 = perf_counter()
            hit = store.cache.stats()["layers"]["result"]["hits"] > hits
            t2 = perf_counter()
            parse_xpath(op.xpath)
            t3 = perf_counter()
            translated = store.translate(op.xpath, op.doc)
            t4 = perf_counter()
            store.backend.execute_plan(
                translated.sql, translated.params,
                statement=translated.statement,
            )
            t5 = perf_counter()
            rec.add("store.query", t0, t1, root, tag)
            rec.add("xpath.parse_xpath", t2, t3, root, tag)
            rec.add("core.translate", t3, t4, root, tag)
            rec.add("backends.execute_plan", t4, t5, root, tag)
            rec.close(root, t5)
            parse_us.append((t3 - t2) * 1e6)
            warm_us.append((t4 - t3) * 1e6)
            execute_us.append((t5 - t4) * 1e6)
            if hit:
                hit_us.append((t1 - t0) * 1e6)
            else:
                # What the facade adds to the two layers it calls
                # (materialise, client order, cache bookkeeping) can be
                # had from outside only as this difference.
                self_us.append(((t1 - t0) - (t5 - t3)) * 1e6)
                below += t5 - t3
                whole += t1 - t0

        cold_us = []
        before = counters_now()
        for i, op in enumerate(reads):
            if perf_counter() >= speed.due:
                speed.sample()
            t0 = perf_counter()
            cold.translate(op.xpath, op.doc)
            t1 = perf_counter()
            rec.add("core.translate_cold", t0, t1, None, f"probe:{enc}:{i}")
            cold_us.append((t1 - t0) * 1e6)
        compiled = counters_now() - before
        # Like the end-to-end times, the layer times read at reference
        # speed (the spans in the span file stay raw timestamps).
        host = speed.factor(began, speed.sample())
        values = {
            "xpath.parse_us": median(parse_us) / host,
            "core.translate_warm_us": median(warm_us) / host,
            "core.translate_cold_us": median(cold_us) / host,
            "backends.execute_us": median(execute_us) / host,
            "core.translate.joins_per_query": ratio(
                compiled["translate.joins"], compiled["translate.queries"]
            ),
            # Of the whole store.query calls that missed the result
            # cache, the share the two layers below it took when timed
            # on their own; the rest is store.query_self_us.
            "trace.coverage": ratio(below, whole),
            "store.query_self_us": median(self_us) / host,
        }
        if hit_us:
            values["store.query_hit_us"] = median(hit_us) / host
        return values


def counter_layers(samples: list[PassSample]) -> dict:
    """Layer metrics that are ratios of counter deltas over one pass's
    traced rounds (``None`` where the denominator is 0: absent)."""
    read_c, write_c = Counter(), Counter()
    cache: dict = {}
    reads = writes = 0
    write_ms: dict[str, list[float]] = {}
    for sample in samples:
        read_c.update(sample.counters["read"])
        write_c.update(sample.counters["write"])
        reads += len(sample.reads)
        writes += len(sample.writes)
        for layer, delta in sample.cache.items():
            mine = cache.setdefault(layer, Counter())
            mine.update(delta)
        for seconds, cls in zip(sample.writes, sample.details):
            write_ms.setdefault(cls, []).append(
                seconds * 1000.0 / sample.host
            )
    access = {
        name: count for name, count in read_c.items()
        if name.startswith("translate.access.")
    }
    values = {
        "core.translate.compiles_per_read":
            ratio(read_c["translate.compile"], reads),
        "backends.statements_per_read":
            ratio(read_c["backend.statements"], reads),
        "backends.rows_read_per_result":
            ratio(read_c["backend.rows_read"], read_c["query.rows"]),
        "minidb.selects_per_read": ratio(read_c["minidb.selects"], reads)
            if read_c["minidb.selects"] else None,
        "minidb.rows_returned_per_select":
            ratio(read_c["minidb.rows_returned"], read_c["minidb.selects"]),
        "store.client_order_share":
            ratio(read_c["query.client_order_sorts"],
                  read_c["query.executed"]),
        "index.access_share": ratio(
            sum(access.values()) - access.get("translate.access.scan", 0),
            sum(access.values()),
        ),
        "cache.invalidated_per_write": ratio(
            sum(c["invalidations"] for c in cache.values()), writes
        ),
        "index.maintained_per_write":
            ratio(write_c["index.maintained"], writes),
        "core.updates.relabeled_per_write":
            ratio(write_c["updates.relabeled"], writes),
        "core.updates.rows_touched_per_write":
            ratio(write_c["updates.rows_touched"], writes),
        "backends.statements_per_write":
            ratio(write_c["backend.statements"], writes),
        "backends.rows_written_per_write":
            ratio(write_c["backend.rows_written"], writes),
    }
    for layer, counts in cache.items():
        values[f"cache.{layer}.hit_rate"] = ratio(
            counts["hits"], counts["hits"] + counts["misses"]
        )
    if "result" in cache:
        values["cache.result.evictions"] = cache["result"]["evictions"]
    if writes:
        values["index.fallback_rebuilds"] = write_c["index.fallback_rebuild"]
        values["core.updates.renumber_ops"] = write_c["updates.renumber_ops"]
        values["core.updates.write_ms"] = median(
            ms for group in write_ms.values() for ms in group
        )
        for cls, group in write_ms.items():
            values[f"core.updates.write_ms.{cls}"] = median(group)
    return {k: v for k, v in values.items() if v is not None}


# -- ingest -------------------------------------------------------------------


class Ingest(Workload):
    """Bulk load and byte-equal reconstruct; nothing else runs."""

    def setup(self, slots: int) -> None:
        cfg = self.config
        documents = [
            sized_article_corpus(cfg.nodes, seed=self.seed * 100 + i)
            for i in range(cfg.docs)
        ]
        self.texts = [serialize(dom) for dom in documents]
        self.node_counts = [shred(dom).node_count() for dom in documents]
        self.schedule_hash = hashlib.sha256(
            "\n".join(self.texts).encode("utf-8")
        ).hexdigest()
        self.stores = {enc: XmlStore(encoding=enc) for enc in ENCODINGS}
        for enc in ENCODINGS:
            self._run_pass(enc, self.texts[:1], False, "warmup")

    def teardown(self) -> None:
        for store in self.stores.values():
            store.close()
        self.stores = {}

    def run_round(self, slot: int, traced: bool) -> Round:
        result = Round(traced)
        for enc in ENCODINGS:
            result.passes[enc] = self._run_pass(
                enc, self.texts, traced, f"r{slot}"
            )
        return result

    def _calibrate(self) -> float:
        """The operations here take 0.03-0.4 s, so the in-loop spacing
        never comes due: calibrate a few times at every boundary
        between two of them instead.  Returns the time it ended."""
        for _ in range(CALIBRATIONS):
            end = self.speed.sample()
        return end

    def _run_pass(self, enc, texts, traced: bool, tag: str) -> PassSample:
        store = self.stores[enc]
        sample = PassSample()
        began = self._calibrate()
        for i, text in enumerate(texts):
            where = f"{tag} {enc} document {i}"
            t0 = perf_counter()
            try:
                doc = store.load(text)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                sample.failed += 2  # the reconstruct cannot run either
                self.failure(f"{where} load", exc)
                continue
            t1 = perf_counter()
            sample.writes.append(t1 - t0)
            sample.details.append("load")
            t2 = self._calibrate()
            try:
                rebuilt = serialize(store.reconstruct(doc))
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                sample.failed += 1
                self.failure(f"{where} reconstruct", exc)
            else:
                t3 = perf_counter()
                sample.reads.append(t3 - t2)
                if rebuilt != text:
                    self.problem(
                        f"pass {enc} {tag} document {i}",
                        "reconstructed text differs from the input",
                    )
                if traced:
                    self.recorder.add("op.load", t0, t1, None, where)
                    self.recorder.add("op.reconstruct", t2, t3, None, where)
            self._calibrate()
            store.delete_document(doc)
            # A DOM is cyclic (parent links): with the collector off for
            # the round, each document's trees would pile up and
            # peak_rss_mb would count six of them, not one.
            rebuilt = None
            gc.collect()
            self._calibrate()
        sample.host = self.speed.factor(began, perf_counter())
        return sample

    def verify(self, ran: int) -> None:
        for enc, store in self.stores.items():
            doc = store.load(self.texts[0])
            for violation in audit_document(store, doc):
                self.problem(f"pass {enc} doc {doc}", str(violation))
            if store.node_count(doc) != self.node_counts[0]:
                self.problem(
                    f"pass {enc} doc {doc}",
                    f"{store.node_count(doc)} nodes stored, the document "
                    f"has {self.node_counts[0]}",
                )
            store.delete_document(doc)

    def layers(self, rounds: list[Round]) -> dict:
        return {enc: self._probe(enc) for enc in ENCODINGS}

    def _probe(self, enc: str) -> dict:
        store = self.stores[enc]
        rec = self.recorder
        ms: dict[str, list[float]] = {}

        def timed(name: str, root: int, tag: str, call):
            start = self._calibrate()
            result = call()
            end = perf_counter()
            rec.add(name, start, end, root, tag)
            ms.setdefault(name, []).append((end - start) * 1000.0)
            return result

        began = perf_counter()
        for i, text in enumerate(self.texts):
            tag = f"probe:{enc}:{i}"
            root = rec.add("probe.op", perf_counter(), 0.0, None, tag)
            dom = timed("xmldom.parse", root, tag, lambda: parse(text))
            timed("core.shred", root, tag, lambda: shred(dom))
            doc = timed("store.load", root, tag, lambda: store.load(dom))
            rebuilt = timed(
                "core.reconstruct", root, tag, lambda: store.reconstruct(doc)
            )
            timed("xmldom.serialize", root, tag, lambda: serialize(rebuilt))
            timed("store.delete_document", root, tag,
                  lambda: store.delete_document(doc))
            rec.close(root, perf_counter())
            # The whole calls these layers make up, in the same state.
            doc = timed("store.load(text)", None, tag,
                        lambda: store.load(text))
            timed("serialize(reconstruct)", None, tag,
                  lambda: serialize(store.reconstruct(doc)))
            store.delete_document(doc)
            dom = rebuilt = None
            gc.collect()

        path = os.path.join(WORK, f"ingest-{os.getpid()}-{enc}.db")
        filed = XmlStore(backend=make_backend("sqlite", path), encoding=enc)
        try:
            filed.load(self.texts[0])
        finally:
            filed.close()
        stored_bytes = os.path.getsize(path)
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        host = self.speed.factor(began, self._calibrate())
        layers = ("xmldom.parse", "store.load", "core.reconstruct",
                  "xmldom.serialize")
        return {
            "xmldom.parse_ms": median(ms["xmldom.parse"]) / host,
            "xmldom.serialize_ms": median(ms["xmldom.serialize"]) / host,
            "core.shred_ms": median(ms["core.shred"]) / host,
            "store.bulk_insert_self_ms": (
                median(ms["store.load"]) - median(ms["core.shred"])
            ) / host,
            "core.reconstruct_ms": median(ms["core.reconstruct"]) / host,
            "store.delete_document_ms":
                median(ms["store.delete_document"]) / host,
            "backends.bytes_per_xml_byte":
                stored_bytes / len(self.texts[0].encode("utf-8")),
            "trace.coverage": ratio(
                sum(sum(ms[name]) for name in layers),
                sum(ms["store.load(text)"])
                + sum(ms["serialize(reconstruct)"]),
            ),
        }


# -- serve_wire ---------------------------------------------------------------


class ServeWire(Workload):
    """Two closed-loop clients against one 2-shard cluster over TCP."""

    toggles_counters = False
    calibrated = False  # latency here is wake-ups across five processes
    SHARDS = 2
    CLIENTS = 2  # nproc is 2: never more threads or connections
    SHARE = {"hot": 87, "scatter": 3, "write": 10}

    def __init__(self, name: str, seed: int, config: Config) -> None:
        super().__init__(name, seed, config)
        self.daemon: Optional[ServeDaemon] = None
        self.twin: Optional[XmlStore] = None
        self.clients: list[TcpClient] = []

    def setup(self, slots: int) -> None:
        cfg = self.config
        rng = random.Random(self.seed)
        documents = sched.corpus(self.seed, cfg.docs, cfg.articles)
        self.directory = os.path.join(WORK, f"sw{os.getpid()}")
        shutil.rmtree(self.directory, ignore_errors=True)
        self.daemon = ServeDaemon(ServeConfig(
            directory=self.directory, shards=self.SHARDS, encoding="dewey",
        ))
        port = self.daemon.start_in_background()
        self.clients = [
            TcpClient("127.0.0.1", port, pool_size=1)
            for _ in range(self.CLIENTS)
        ]
        self.doc_ids = [
            self.clients[0].load(serialize(dom)) for dom in documents
        ]
        self.models = {
            doc: sched.DocModel(dom)
            for doc, dom in zip(self.doc_ids, documents)
        }
        # An embedded twin of the shard stores, for the probe's
        # in-process ShardWorker and store.query layers.
        self.twin = XmlStore(encoding="dewey")
        self.twin_ids = {
            doc: self.twin.load(dom)
            for doc, dom in zip(self.doc_ids, documents)
        }

        hot = sched.HotSet(rng, cfg.hot_keys, self.doc_ids, cfg.articles)
        # Each client writes only to its own documents, so the order
        # in which the two clients' writes land cannot change any
        # write's arguments.
        own = [self.doc_ids[c::self.CLIENTS] for c in range(self.CLIENTS)]

        def build_slice(client: int, slot: int, count: int) -> list[Op]:
            shares = sched.apportion(count, self.SHARE)
            reads = hot.reads(rng, shares["hot"]) + [
                Op("scatter", None,
                   xpath=sched.instantiate(rng, t, cfg.articles), detail=t)
                for t in sched.exact_mix(rng, shares["scatter"], cfg.mix)
            ]
            stream = sched.WriteStream(self.models)
            classes = iter(sched.exact_mix(rng, shares["write"], MIX_W))
            targets = [own[client][slot % len(own[client])]]
            return [
                op if op is not None
                else stream.next(rng, next(classes), targets)
                for op in sched.interleave(rng, reads, shares["write"])
            ]

        # slices[client][0] is the warm-up, [1..] the rounds;
        # expected_nodes[slot] the node counts once that slot has run.
        self.slices = [[] for _ in range(self.CLIENTS)]
        self.expected_nodes = [{} for _ in range(slots + 1)]
        for c in range(self.CLIENTS):
            for slot in range(slots + 1):
                self.slices[c].append(
                    build_slice(c, slot, cfg.ops if slot else cfg.warmup)
                )
                self.expected_nodes[slot].update(
                    {doc: self.models[doc].nodes for doc in own[c]}
                )
        self.schedule_hash = sched.schedule_hash(
            [ops for client in self.slices for ops in client]
        )
        self.shard_stats: list[tuple[dict, dict, float]] = []
        self.scatter_ms: list[float] = []
        self._run_round(0, False)

    def teardown(self) -> None:
        if self.daemon is None:
            return
        for client in self.clients:
            client.close()
        if self.twin is not None:
            self.twin.close()
        self.daemon.stop()
        self.daemon = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        # The shard workers are this process's children, reaped when
        # the daemon stopped: RUSAGE_CHILDREN holds the largest one.
        shard = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return super().peak_rss_mb() + shard / 1024.0

    def run_round(self, slot: int, traced: bool) -> Round:
        before = self.clients[0].stats() if traced else None
        result = self._run_round(slot + 1, traced)
        if traced:
            self.shard_stats.append(
                (before, self.clients[0].stats(), result.wall)
            )
        return result

    def _run_round(self, index: int, traced: bool) -> Round:
        barrier = threading.Barrier(self.CLIENTS)
        samples = [PassSample() for _ in range(self.CLIENTS)]
        windows: list[tuple[float, float]] = [(0.0, 0.0)] * self.CLIENTS
        crashed: list[BaseException] = []

        def client_thread(c: int) -> None:
            try:
                client_loop(c)
            except BaseException as exc:  # re-raised by the main thread
                crashed.append(exc)
                barrier.abort()

        def client_loop(c: int) -> None:
            client, sample = self.clients[c], samples[c]
            ops = self.slices[c][index]
            requests = [wire_request(op) for op in ops]
            barrier.wait()
            begun = perf_counter()
            for i, (op, request) in enumerate(zip(ops, requests)):
                start = perf_counter()
                try:
                    response = client.request(request)
                except ReproError as exc:
                    sample.failed += 1
                    self.failure(f"r{index} client {c} op {i}", exc)
                    continue
                end = perf_counter()
                if not response.get("ok") or response.get("errors"):
                    sample.failed += 1
                    self.failure(
                        f"r{index} client {c} op {i}",
                        ReproError(str(response)[:200]),
                    )
                    continue
                if op.kind in ("read", "scatter"):
                    sample.reads.append(end - start)
                    if traced and op.kind == "scatter":
                        self.scatter_ms.append((end - start) * 1000.0)
                else:
                    sample.writes.append(end - start)
                    sample.details.append(op.detail)
                if traced:
                    self.recorder.add(
                        f"op.{op.kind}", start, end, None,
                        f"r{index}:c{c}:{i}",
                    )
            windows[c] = (begun, perf_counter())

        threads = [
            threading.Thread(target=client_thread, args=(c,))
            for c in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashed:
            raise crashed[0]
        merged = PassSample()
        for sample in samples:
            merged.reads += sample.reads
            merged.writes += sample.writes
            merged.details += sample.details
            merged.failed += sample.failed
        result = Round(traced)
        result.passes["dewey"] = merged
        result.wall = max(w[1] for w in windows) - min(w[0] for w in windows)
        return result

    def _shards(self) -> list[ShardClient]:
        return [
            ShardClient(spec.socket_path)
            for spec in self.daemon.supervisor.specs
        ]

    def verify(self, ran: int) -> None:
        rng = random.Random(self.seed + 1)
        client = self.clients[0]
        shards = self._shards()
        try:
            catalogue = {
                d["doc"]: d for d in client.request({"op": "docs"})["docs"]
            }
            trees = {}
            for doc, nodes in self.expected_nodes[ran].items():
                local, shard = divmod(doc, self.SHARDS)
                check = shards[shard].request({"op": "check", "doc": local})
                for violation in check.get("violations", ["check failed"]):
                    self.problem(f"pass dewey doc {doc}", violation)
                if catalogue[doc]["node_count"] != nodes:
                    self.problem(
                        f"pass dewey doc {doc}",
                        f"{catalogue[doc]['node_count']} nodes stored, base "
                        f"+ inserted - deleted is {nodes}",
                    )
                state = shards[shard].request({"op": "state", "doc": local})
                trees[doc] = Evaluator(parse(state["xml"]))
        finally:
            for shard_client in shards:
                shard_client.close()
        scheduled = [
            op for per_client in self.slices
            for ops in per_client[1:ran + 1]
            for op in ops if op.kind == "read"
        ]
        for op in rng.sample(
            scheduled, min(self.config.sample, len(scheduled))
        ):
            # Node ids do not survive the state op's XML, so answers
            # are compared as (kind, label, value) sequences.
            want = [
                ["elem", node.tag, direct_text_value(node)]
                for node in trees[op.doc].evaluate(op.xpath)
            ]
            got = [
                [kind, label, value] for kind, _id, label, value
                in client.query(op.xpath, doc=op.doc)["items"]
            ]
            if got != want:
                self.problem(
                    f"pass dewey op {op.canonical()}",
                    f"cluster returned {got}, oracle {want}",
                )

    def layers(self, rounds: list[Round]) -> dict:
        values = self._probe()
        values.update(self._counter_layers())
        if self.scatter_ms:
            values["serve.scatter_ms"] = median(self.scatter_ms)
        return {"dewey": values}

    def _counter_layers(self) -> dict:
        router, shard = Counter(), Counter()
        pool_wait = wall = 0.0
        for before, after, round_wall in self.shard_stats:
            router.update(Counter(after["router"]["counters"]))
            router.subtract(Counter(before["router"]["counters"]))
            wall += round_wall
            for old, new in zip(before["shards"], after["shards"]):
                shard.update(Counter(new["counters"]["counters"]))
                shard.subtract(Counter(old["counters"]["counters"]))
                pool_wait += (
                    new["counters"]["histograms"]
                    .get("pool.wait_seconds", {}).get("total", 0.0)
                    - old["counters"]["histograms"]
                    .get("pool.wait_seconds", {}).get("total", 0.0)
                )
        values = {
            f"serve.{name}": router[f"serve.{name}"]
            for name in ("requests", "retries", "timeouts", "shard_errors",
                         "respawns")
        }
        values.update({
            "concurrent.writequeue.ops_per_batch": ratio(
                shard["writequeue.operations"], shard["writequeue.batches"]
            ),
            "concurrent.pool.wait_share": ratio(pool_wait, wall),
            "core.translate.compiles_per_read":
                ratio(shard["translate.compile"], router["serve.queries"]),
        })
        for layer in ("result", "plan", "catalog"):
            hits = shard[f"cache.{layer}.hit"]
            values[f"cache.{layer}.hit_rate"] = ratio(
                hits, hits + shard[f"cache.{layer}.miss"]
            )
        return {k: v for k, v in values.items() if v is not None}

    def _probe(self) -> dict:
        """TcpClient -> direct ShardClient -> in-process ShardWorker ->
        store.query -> encode/decode, one call at a time."""
        rec = self.recorder
        client = self.clients[0]
        shards = self._shards()
        worker = ShardWorker(self.twin)
        reads = [
            op for op in self.slices[0][1][: self.config.probe]
            if op.kind == "read"
        ]
        names = ("frontdoor", "shard", "worker", "query", "encode", "decode")
        us: dict[str, list[float]] = {name: [] for name in names}
        sizes = []
        below = whole = 0.0
        try:
            for i, op in enumerate(reads):
                tag = f"probe:dewey:{i}"
                local, shard = divmod(op.doc, self.SHARDS)
                twin_doc = self.twin_ids[op.doc]
                direct = {"op": "query", "xpath": op.xpath, "doc": local}
                twin_request = {**direct, "doc": twin_doc}
                # The hot set is cached on the shards; prime the twin so
                # its two calls below are result hits as well.
                self.twin.query(op.xpath, twin_doc)
                t0 = perf_counter()
                client.query(op.xpath, doc=op.doc)
                t1 = perf_counter()
                shards[shard].request(direct)
                t2 = perf_counter()
                response = worker.handle(twin_request)
                t3 = perf_counter()
                self.twin.query(op.xpath, twin_doc)
                t4 = perf_counter()
                encode_frame(direct)
                frame = encode_frame(response)
                t5 = perf_counter()
                decode_payload(frame[HEADER.size:])
                t6 = perf_counter()
                root = rec.add("probe.op", t0, t6, None, tag)
                for name, start, end in (
                    ("serve.TcpClient.query", t0, t1),
                    ("serve.ShardClient.request", t1, t2),
                    ("serve.ShardWorker.handle", t2, t3),
                    ("store.query", t3, t4),
                    ("serve.protocol.encode_frame", t4, t5),
                    ("serve.protocol.decode_payload", t5, t6),
                ):
                    rec.add(name, start, end, root, tag)
                front, hop, handle, query = t1 - t0, t2 - t1, t3 - t2, t4 - t3
                us["frontdoor"].append((front - hop) * 1e6)
                us["shard"].append((hop - handle) * 1e6)
                us["worker"].append((handle - query) * 1e6)
                us["query"].append(query * 1e6)
                us["encode"].append((t5 - t4) * 1e6)
                us["decode"].append((t6 - t5) * 1e6)
                sizes.append(len(frame))
                below += hop
                whole += front
        finally:
            for shard_client in shards:
                shard_client.close()
        return {
            "serve.frontdoor_router_self_us": median(us["frontdoor"]),
            "serve.shard_hop_self_us": median(us["shard"]),
            "serve.worker.handle_self_us": median(us["worker"]),
            "serve.protocol.encode_us": median(us["encode"]),
            "serve.protocol.decode_us": median(us["decode"]),
            "serve.protocol.response_bytes": median(sizes),
            # Of the whole TcpClient.query calls, the share the direct
            # shard request took when timed on its own; the rest is
            # serve.frontdoor_router_self_us.
            "trace.coverage": ratio(below, whole),
            "store.query_hit_us": median(us["query"]),
        }


def wire_request(op: Op) -> dict:
    """The front-door request of one scheduled operation."""
    if op.kind == "read":
        return {"op": "query", "xpath": op.xpath, "doc": op.doc}
    if op.kind == "scatter":
        return {"op": "query", "xpath": op.xpath}
    if op.kind == "insert":
        change = {
            "kind": "insert", "parent": op.parent, "index": op.index,
            "fragment": serialize(op.fragment),
        }
    else:
        change = {"kind": "delete", "target": op.node}
    return {"op": "update", "doc": op.doc, "change": change}


def make(name: str, seed: int, quick: bool) -> Workload:
    config = CONFIGS[name].quick() if quick else CONFIGS[name]
    cls = {"ingest": Ingest, "serve_wire": ServeWire}.get(name, Embedded)
    return cls(name, seed, config)
