"""Acceptance tests for the crash-recovery harness (repro crashtest).

These drive the real loop: replay a seeded update stream, crash the
engine at sampled statement boundaries, reopen the durable medium, run
the invariant auditor, and require the store to equal either the
pre-operation or post-operation state.  Fixed seeds keep the runs
deterministic; the nightly CI job varies them.
"""

import random
from functools import partial

import pytest

from repro import cli
from repro.check.invariants import audit_document
from repro.errors import ReproError
from repro.robust import crashtest
from repro.robust.crashtest import (
    CrashFailure,
    CrashScenario,
    CrashTestConfig,
    CrashTestReport,
    run_crashtest,
    sweep,
)
from repro.robust.faults import SimulatedCrash

ALL_ENCODINGS = ("global", "local", "dewey", "ordpath")


@pytest.mark.slow
@pytest.mark.skip_audit  # the harness audits internally, on reopened stores
class TestCrashRecoveryMatrix:
    def test_fixed_seed_matrix_all_encodings_both_backends(self):
        config = CrashTestConfig(
            seeds=1,
            ops=3,
            encodings=ALL_ENCODINGS,
            backends=("sqlite", "minidb"),
            crashes_per_op=2,
            transient_rate=0.05,
            base_seed=0,
        )
        report = run_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.cells == 8
        assert report.crashes > 0
        assert report.recoveries == report.crashes
        assert report.transient_streams == report.cells

    def test_full_sweep_single_cell_per_backend(self):
        # Sweeping every statement boundary of every operation is the
        # strongest form of the atomicity check; keep it to one
        # encoding per backend for test-suite latency.
        config = CrashTestConfig(
            seeds=1,
            ops=3,
            encodings=("dewey",),
            backends=("sqlite", "minidb"),
            crashes_per_op=0,  # sweep
            base_seed=1,
        )
        report = run_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        # A sweep must exercise far more crash points than sampling.
        assert report.crashes > report.operations

    def test_interrupted_snapshot_never_loses_good_generation(self):
        # Force a snapshot-save interruption on (almost) every minidb
        # checkpoint; recovery must always land on a good generation.
        config = CrashTestConfig(
            seeds=2,
            ops=3,
            encodings=("global",),
            backends=("minidb",),
            crashes_per_op=1,
            snapshot_fault_rate=1.0,
            base_seed=2,
        )
        report = run_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)


class TestReporting:
    def test_failure_repro_command_pins_the_cell(self):
        failure = CrashFailure(
            seed=9, gap=2, backend="minidb", encoding="ordpath",
            op_index=4, crash_at=17, op="insert(...)",
            kind="atomicity", detail="neither pre nor post state",
        )
        command = failure.repro_command()
        assert "--base-seed 9" in command
        assert "--gaps 2" in command
        assert "--backends minidb" in command
        assert "--encodings ordpath" in command
        assert "--sweep" in command
        text = str(failure)
        assert "atomicity" in text
        assert "crash at statement 17" in text
        assert "reproduce:" in text

    def test_config_cells_cross_product(self):
        config = CrashTestConfig(
            seeds=2, encodings=("dewey", "local"),
            backends=("sqlite",), gaps=(1, 4), base_seed=5,
        )
        cells = config.cells()
        assert len(cells) == 2 * 2 * 1 * 2
        assert (5, 1, "sqlite", "dewey") in cells
        assert (6, 4, "sqlite", "local") in cells


@pytest.mark.slow
@pytest.mark.skip_audit  # the harness audits internally, on reopened stores
class TestMigrationCrashRecovery:
    def test_full_sweep_one_pair_both_backends(self):
        # Crash at *every* statement boundary of a global->dewey
        # migration; recovery must land exactly pre- or post-migration
        # with a clean invariant audit, including no mig_* leftovers.
        from repro.robust.crashtest import run_migration_crashtest

        config = CrashTestConfig(
            seeds=1,
            encodings=("global", "dewey"),
            backends=("sqlite", "minidb"),
            crashes_per_op=0,  # sweep
            base_seed=0,
        )
        report = run_migration_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        # 2 encodings -> both ordered pairs per backend.
        assert report.cells == 4
        assert report.crashes > 0
        assert report.recoveries == report.crashes

    def test_sampled_matrix_all_pairs(self):
        from repro.robust.crashtest import run_migration_crashtest

        config = CrashTestConfig(
            seeds=1,
            encodings=ALL_ENCODINGS,
            backends=("sqlite",),
            crashes_per_op=2,
            base_seed=1,
        )
        report = run_migration_crashtest(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.cells == 4 * 3  # every ordered encoding pair

    def test_migration_failure_repro_command(self):
        failure = CrashFailure(
            seed=3, gap=1, backend="sqlite", encoding="global->dewey",
            op_index=1, crash_at=12, op="migrate global->dewey",
            kind="atomicity", detail="hybrid state", mode="migrate",
        )
        command = failure.repro_command()
        assert "--migrate" in command
        assert "--encodings global,dewey" in command
        assert "--base-seed 3" in command


@pytest.mark.skip_audit  # the actions below break stores on purpose
@pytest.mark.parametrize("backend", ("sqlite", "minidb"))
class TestTheDriverCanFail:
    """One driver serves every mode, so showing once that each of its
    checks fires shows it for all of them."""

    def run_sweep(self, backend, directory, make_action):
        medium = crashtest.make_medium(backend, directory, "global", 1)
        with medium.session() as (store, _):
            doc = store.load("<r><a>1</a><b>2</b></r>")
            medium.checkpoint(store, random.Random(0), 0.0)
        report = CrashTestReport()
        failure = sweep(
            medium,
            CrashScenario(
                label="broken on purpose",
                action=make_action(medium, doc),
                signature=partial(crashtest._state, doc=doc),
                audit=partial(audit_document, doc=doc),
            ),
            CrashTestConfig(crashes_per_op=0, snapshot_fault_rate=0.0),
            random.Random(0),
            partial(
                CrashFailure, seed=0, gap=1, backend=backend,
                encoding="global", op_index=1,
            ),
            report,
        )
        return failure, report

    def test_two_transactions_are_not_atomic(self, backend, tmp_path):
        def make_action(medium, doc):
            def action(store):
                store.updates.insert(doc, 1, 0, "<x/>")
                # A durable commit on minidb too.
                medium.checkpoint(store, random.Random(0), 0.0)
                store.updates.insert(doc, 1, 0, "<y/>")
            return action

        failure, report = self.run_sweep(backend, tmp_path, make_action)
        assert failure is not None and failure.kind == "atomicity"
        # Every crash inside the first insert recovered to pre; the
        # first one inside the second found the half-applied action.
        assert failure.crash_at == report.crashes > 1
        assert "neither pre nor post" in failure.detail

    def test_swallowed_crash_is_not_deterministic(self, backend, tmp_path):
        def make_action(medium, doc):
            def action(store):
                try:
                    store.updates.insert(doc, 1, 0, "<x/>")
                except SimulatedCrash:
                    pass
            return action

        failure, report = self.run_sweep(backend, tmp_path, make_action)
        assert failure is not None and failure.kind == "determinism"
        assert failure.crash_at == 1 and report.recoveries == 0

    def test_committed_corruption_fails_the_audit(self, backend, tmp_path):
        def make_action(medium, doc):
            def shift(store, delta):
                # Moves the root's pos past its endpos (and back).
                store.transactionally(lambda: store.backend.execute(
                    "UPDATE node_global SET pos = pos + ? "
                    "WHERE doc = ? AND id = 1", (delta, doc),
                ))

            def action(store):
                shift(store, 1000)
                medium.checkpoint(store, random.Random(0), 0.0)
                shift(store, -1000)
            return action

        failure, _ = self.run_sweep(backend, tmp_path, make_action)
        assert failure is not None and failure.kind == "invariant"
        assert failure.crash_at == 2  # between the two commits


class TestReproLineRoundTrip:
    """config -> failure -> repro line -> parsed flags -> the same cell,
    for all five modes."""

    CONFIG = CrashTestConfig(
        seeds=1, ops=1, encodings=("dewey", "global"),
        backends=("minidb",), gaps=(4,), base_seed=7, crashes_per_op=1,
    )

    def parse(self, failure):
        words = failure.repro_command().split()
        assert words[:2] == ["repro", "crashtest"]
        args = cli.build_parser().parse_args(words[1:])
        assert (args.seeds, args.base_seed) == (1, failure.seed)
        assert args.sweep
        return args

    @pytest.fixture
    def every_recovery_fails(self, monkeypatch):
        monkeypatch.setattr(
            crashtest, "recovery_verdict",
            lambda *args: ("atomicity", "forced by the test"),
        )

    @pytest.mark.skip_audit
    @pytest.mark.parametrize("mode", ("ops", "migrate", "index", "writer"))
    def test_statement_level_modes(self, mode, every_recovery_fails):
        runner = {
            "ops": crashtest.run_crashtest,
            "migrate": crashtest.run_migration_crashtest,
            "index": crashtest.run_index_crashtest,
            "writer": crashtest.run_writer_crashtest,
        }[mode]
        failures = runner(self.CONFIG).failures
        assert failures and all(f.crash_at > 0 for f in failures)
        failure = failures[0]
        args = self.parse(failure)
        assert (args.migrate, args.index, args.shard_kill) == (
            mode == "migrate", mode == "index", False
        )
        if mode == "writer":
            # The pooled writer exists on sqlite at gap 1 only.
            assert (args.ops, args.writer_batches) == (0, 1)
            assert (args.backends, args.gaps) == ("sqlite", "1")
            assert args.encodings == "dewey"
        elif mode == "migrate":
            # Migration cells are gap 1; the pair selects both orders.
            assert (args.backends, args.gaps) == ("minidb", "1")
            assert args.encodings == "dewey,global"
        else:
            assert mode == "index" or args.ops == 1
            assert (args.backends, args.gaps) == ("minidb", "4")
            assert args.encodings == "dewey"

    def test_shard_kill(self, monkeypatch):
        from repro.serve import crashtest as shard_kill

        def no_cluster(self):
            raise ReproError("no cluster in this test")

        monkeypatch.setattr(shard_kill.Supervisor, "start", no_cluster)
        report = shard_kill.run_shard_kill_crashtest(
            seeds=1, base_seed=7, encoding="local", gap=4
        )
        args = self.parse(report.failures[0])
        assert (args.shard_kill, args.migrate, args.index) == (
            True, False, False
        )
        assert (args.encodings, args.gaps) == ("local", "4")
