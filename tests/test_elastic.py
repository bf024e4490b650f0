"""Unit tests for repro.parallel.elastic: the pool's scheduling contract.

These exercise :class:`ElasticPool` with cheap file-touching tasks (no
satellite pipeline), pinning the mechanics the integration tests rely on:
config validation, the run/report shape, task-failure escalation, the
abort protocol, and :class:`TaskCheckpoint` durability.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.parallel import (
    ElasticAborted,
    ElasticConfig,
    ElasticPool,
    TaskCheckpoint,
)

pytestmark = pytest.mark.usefixtures("leak_sentinel")

#: Fast but safe scheduler knobs for unit runs.
QUICK = ElasticConfig(lease_s=2.0, heartbeat_s=0.1, total_timeout_s=30.0)


def _touch_task(wid, task_id, root):
    """Pure producer: its only output is the file named by ``task_id``."""
    Path(root, f"task_{task_id}").write_text(str(wid))


def _flaky_task(wid, task_id, root):
    if task_id == "bad":
        raise ValueError("boom")
    _touch_task(wid, task_id, root)


class TestConfig:
    def test_heartbeat_must_undercut_lease(self):
        with pytest.raises(ValueError, match="shorter than the lease"):
            ElasticConfig(lease_s=1.0, heartbeat_s=1.0)

    def test_periods_must_be_positive(self):
        # total_timeout_s=0 would spawn the workers, then run every task
        # inline in the parent.
        for field in ("lease_s", "heartbeat_s", "hedge_s", "total_timeout_s"):
            for value in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match=f"^{field} must be positive"):
                    ElasticConfig(**{field: value})

    def test_attempt_bounds(self):
        with pytest.raises(ValueError, match="^max_task_attempts must be at least 1"):
            ElasticConfig(max_task_attempts=0)
        with pytest.raises(ValueError, match="^max_hedges_per_task must be non-negative"):
            ElasticConfig(max_hedges_per_task=-1)

    def test_budgets_must_be_non_negative(self):
        for field in ("drain_timeout_s", "max_respawns"):
            with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
                ElasticConfig(**{field: -1})
        cfg = ElasticConfig(drain_timeout_s=0.0, max_respawns=0, max_hedges_per_task=0)
        assert (cfg.drain_timeout_s, cfg.max_respawns) == (0.0, 0)


class TestPool:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ElasticPool(_touch_task, n_workers=0)

    def test_rejects_duplicate_task_ids(self, tmp_path):
        pool = ElasticPool(_touch_task, args=(tmp_path,), n_workers=1, config=QUICK)
        with pytest.raises(ValueError, match="unique"):
            pool.run(["a", "a"])

    def test_runs_every_task_exactly_once(self, tmp_path):
        tasks = [f"t{i}" for i in range(6)]
        pool = ElasticPool(_touch_task, args=(tmp_path,), n_workers=2, config=QUICK)
        report = pool.run(tasks)
        assert report.complete
        assert sorted(report.committed) == sorted(tasks)
        assert report.workers_spawned == 2
        assert {p.name for p in tmp_path.iterdir()} == {
            f"task_{t}" for t in tasks
        }
        # A clean run steals, hedges, and respawns nothing.
        for counter in ("steals", "hedges", "respawns", "lease_expiries"):
            assert report.counters.get(counter, 0) == 0

    def test_empty_run_spawns_no_workers(self, tmp_path):
        pool = ElasticPool(_touch_task, args=(tmp_path,), n_workers=2, config=QUICK)
        report = pool.run([])
        assert report.complete
        assert report.committed == {}
        assert report.workers_spawned == 0
        assert not list(tmp_path.iterdir())

    def test_persistent_failure_escalates(self, tmp_path):
        cfg = ElasticConfig(
            lease_s=2.0, heartbeat_s=0.1, max_task_attempts=2, total_timeout_s=30.0
        )
        pool = ElasticPool(_flaky_task, args=(tmp_path,), n_workers=2, config=cfg)
        with pytest.raises(RuntimeError, match="failed 2 times.*boom"):
            pool.run(["ok1", "bad", "ok2"])

    def test_abort_raises_with_the_partial_report(self, tmp_path):
        tasks = [f"t{i}" for i in range(8)]
        pool = ElasticPool(_touch_task, args=(tmp_path,), n_workers=2, config=QUICK)
        committed_live = []
        with pytest.raises(ElasticAborted) as excinfo:
            pool.run(tasks, on_commit=committed_live.append, abort_after_commits=2)
        report = excinfo.value.report
        assert not report.complete
        assert len(report.committed) >= 2
        assert sorted(report.committed) == sorted(committed_live)
        assert sorted(report.incomplete) == sorted(
            set(tasks) - set(report.committed)
        )


class TestTaskCheckpoint:
    def test_memory_roundtrip(self):
        store = TaskCheckpoint()
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        store.save(4, arr)
        assert 4 in store
        assert 5 not in store
        assert store.task_ids() == [4]
        assert np.array_equal(store.load(4), arr)
        # The store owns a copy: mutating the source must not reach it.
        arr[:] = -1.0
        assert store.load(4)[0, 0] == 0.0

    def test_disk_persistence_survives_a_new_process(self, tmp_path):
        root = tmp_path / "ckpt"
        store = TaskCheckpoint(root)
        for tid in (2, 0, 7):
            store.save(tid, np.full((3,), float(tid)))
        reborn = TaskCheckpoint(root)  # what a resuming process would see
        assert reborn.task_ids() == [0, 2, 7]
        assert len(reborn) == 3
        for tid in (0, 2, 7):
            assert np.array_equal(reborn.load(tid), np.full((3,), float(tid)))

    def test_save_commits_atomically(self, tmp_path):
        root = tmp_path / "ckpt"
        store = TaskCheckpoint(root)
        store.save(1, np.arange(4.0))
        # No tmp file survives a completed save.
        assert sorted(p.name for p in root.iterdir()) == ["task_000001.chunk"]

    def test_kill_mid_write_discards_only_the_torn_file(self, tmp_path):
        """A writer killed mid-save must not poison the resume.

        Simulates the on-disk state such a kill leaves: one good
        checkpoint, one checkpoint whose bytes are a truncated prefix
        (killed mid-overwrite on a non-atomic filesystem), and one
        in-flight ``.shadow-`` file that never renamed.  Resume keeps the
        good file, discards and unlinks the rest.
        """
        root = tmp_path / "ckpt"
        store = TaskCheckpoint(root)
        store.save(1, np.arange(5.0))
        store.save(2, np.arange(7.0))
        good = (root / "task_000001.chunk").read_bytes()
        (root / "task_000002.chunk").write_bytes(good[:9])
        (root / ".shadow-task_000003.chunk").write_bytes(b"\x93NUMPY-partial")

        reborn = TaskCheckpoint(root)
        assert reborn.task_ids() == [1]
        assert np.array_equal(reborn.load(1), np.arange(5.0))
        assert sorted(reborn.discarded) == [
            ".shadow-task_000003.chunk",
            "task_000002.chunk",
        ]
        # The corrupt artifacts are gone: the tasks simply rerun.
        assert sorted(p.name for p in root.iterdir()) == ["task_000001.chunk"]
        # And a fresh save of the discarded task works normally.
        reborn.save(2, np.arange(7.0))
        assert TaskCheckpoint(root).task_ids() == [1, 2]

    def test_non_integer_task_name_is_left_alone(self, tmp_path):
        """A ``task_*.chunk`` this store did not write is not a checkpoint."""
        root = tmp_path / "ckpt"
        store = TaskCheckpoint(root)
        store.save(3, np.arange(4.0))
        with open(root / "task_notes.chunk", "wb") as f:
            np.save(f, np.zeros(2))

        reborn = TaskCheckpoint(root)
        assert reborn.task_ids() == [3]
        assert np.array_equal(reborn.load(3), np.arange(4.0))
        assert reborn.discarded == []
        assert sorted(p.name for p in root.iterdir()) == [
            "task_000003.chunk",
            "task_notes.chunk",
        ]
