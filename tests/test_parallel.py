"""Tests for repro.parallel: shared-memory sharding across live processes.

The load-bearing contract: the reduced noise-weighted map is **bitwise
identical** for any worker count, and stays bitwise identical when a
worker is crash-injected mid-task and recovered -- because every task is
a pure function of its seeded inputs and the parent reduces per-observation
partials in fixed observation order.
"""

import numpy as np
import pytest

from repro import obs, resilience
from repro.core.dispatch import ImplementationType
from repro.parallel import (
    CRASH_EXIT_CODE,
    ElasticAborted,
    ElasticConfig,
    SharedSlab,
    SubsetComm,
    TaskCheckpoint,
    run_parallel_satellite,
    slab_until_registered,
)
from repro.resilience import named_plan
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.store import StoreTornWrite, commit_chunk, read_chunk_header
from repro.workflows.satellite import SizeSpec, same_bits

pytestmark = pytest.mark.usefixtures("leak_sentinel")

#: Small enough for CI, big enough to shard 4 ways.
SIZE = SizeSpec("par_test", 4, 2, 512, 16)

#: Short leases/hedges so injected stalls genuinely expire leases and
#: trigger hedging within CI-friendly wall clock.
TIGHT = ElasticConfig(
    lease_s=0.5, heartbeat_s=0.1, hedge_s=0.2, total_timeout_s=60.0
)

#: Hedging pushed out of reach: the only recovery for a silent worker is
#: lease expiry + steal (what the heartbeat-loss test pins down).
STEAL_ONLY = ElasticConfig(
    lease_s=0.4, heartbeat_s=0.1, hedge_s=30.0, total_timeout_s=60.0
)


def _run(n_procs, **kw):
    out = run_parallel_satellite(
        SIZE, implementation=ImplementationType.NUMPY, n_procs=n_procs, **kw
    )
    return out


class TestSharedSlab:
    def test_roundtrip_attach(self):
        with SharedSlab.create(
            {"a": ((4, 3), np.float64), "b": ((7,), np.int64)}
        ) as slab:
            slab.array("a")[:] = 2.5
            slab.array("b")[:] = np.arange(7)
            other = SharedSlab.attach(slab.spec)
            assert np.array_equal(other.array("a"), np.full((4, 3), 2.5))
            assert np.array_equal(other.array("b"), np.arange(7))
            other.array("b")[0] = -9
            assert slab.array("b")[0] == -9
            other.close()

    def test_arrays_start_zeroed_and_aligned(self):
        with SharedSlab.create({"x": ((5, 5), np.float64)}) as slab:
            assert not slab.array("x").any()
            for _, offset, _, _ in slab.spec.layout:
                assert offset % 64 == 0

    def test_unknown_array_name(self):
        with SharedSlab.create({"x": ((2,), np.float64)}) as slab:
            with pytest.raises(KeyError):
                slab.array("y")


class TestSlabLeakGuard:
    """The create->register crash window must not strand /dev/shm segments."""

    def test_crash_before_registration_unlinks_the_segment(self):
        """A worker that dies between allocating its result slab and
        registering it (the ``parallel.worker`` fault site) must leave no
        shared-memory segment behind -- the guard's ``finally`` unlinks it."""
        plan = named_plan("worker-crash", seed=5)
        spec = None
        with resilience.resilient(plan) as ctrl:
            with pytest.raises(RuntimeError, match="crashed"):
                with slab_until_registered({"zmap": ((8, 3), np.float64)}) as slab:
                    spec = slab.spec
                    # Poll the site like a live worker does; the plan's
                    # WORKER_CRASH is behavioural, so act on it by dying
                    # before mark_registered() -- the leak window.
                    for _ in range(4):
                        if ctrl.check("parallel.worker", rank=0) is not None:
                            raise RuntimeError("worker crashed mid-setup")
        assert spec is not None, "the slab was created before the crash"
        with pytest.raises(FileNotFoundError):
            SharedSlab.attach(spec)  # unlinked, not leaked

    def test_registered_slab_survives_the_guard(self):
        with slab_until_registered({"x": ((4,), np.float64)}) as slab:
            slab.array("x")[:] = 7.0
            spec = slab.spec
            slab.mark_registered()
        other = SharedSlab.attach(spec)  # registration kept the segment alive
        try:
            assert np.array_equal(other.array("x"), np.full(4, 7.0))
        finally:
            other.close()
        # unlink() is owner-gated: the attached handle can't destroy the
        # segment, only the creating slab (the durable owner) can.
        other.unlink()
        slab.close()
        slab.unlink()
        with pytest.raises(FileNotFoundError):
            SharedSlab.attach(spec)  # the owner's unlink destroyed it

    def test_unlink_is_idempotent(self):
        slab = SharedSlab.create({"x": ((2,), np.float64)})
        slab.close()
        slab.unlink()
        slab.unlink()  # second unlink is a no-op, not an error


class TestSharding:
    def test_subset_comm_returns_fixed_indices(self):
        comm = SubsetComm([1, 3])
        assert comm.distribute_observations(5) == [1, 3]
        with pytest.raises(ValueError):
            comm.distribute_observations(3)  # index 3 out of range


class TestDeterminism:
    def test_worker_count_does_not_change_the_map(self):
        serial = _run(1)
        sharded = _run(4)
        # More processes than observations: the extra ones get no worker.
        oversized = _run(6)
        assert serial["n_workers"] == 1
        assert sharded["n_workers"] == 4
        assert oversized["n_workers"] == SIZE.n_observations == 4
        assert oversized["world"].startswith("1 node(s) x 6 proc(s)")
        assert serial["zmap"].tobytes() == sharded["zmap"].tobytes()
        assert serial["zmap"].tobytes() == oversized["zmap"].tobytes()
        assert np.any(serial["zmap"])  # a real map, not zeros == zeros

    def test_matches_single_process_workflow(self):
        """The parallel path reproduces the serial workflow's zmap.

        Not bit for bit: the serial pipeline accumulates every observation
        into one running map, while the parallel path sums fixed-order
        per-observation partials -- a different floating-point association.
        Bitwise identity is guaranteed across *worker counts*, and this
        cross-check pins the two paths to ULP-level agreement.
        """
        from repro.workflows.satellite import (
            make_satellite_data,
            satellite_processing_pipeline,
        )

        data = make_satellite_data(SIZE)
        pipe = satellite_processing_pipeline(
            SIZE.nside, implementation=ImplementationType.NUMPY
        )
        pipe.apply(data)
        parallel = _run(2)
        serial = np.asarray(data["zmap"])
        np.testing.assert_allclose(serial, parallel["zmap"], rtol=1e-12, atol=1e-12)


class TestCrashRecovery:
    def test_injected_crash_recovers_bitwise(self):
        clean = _run(2)
        plan = named_plan("worker-crash", seed=5)
        with resilience.resilient(plan) as ctrl:
            faulted = _run(2)
        assert faulted["crash_injected_ranks"], "plan should have fired"
        assert faulted["recovered_ranks"] == faulted["crash_injected_ranks"]
        assert ctrl.counters.get("worker_recoveries") == 1
        assert clean["zmap"].tobytes() == faulted["zmap"].tobytes()

    def test_no_controller_means_no_injection(self):
        out = _run(2)
        assert out["crash_injected_ranks"] == []
        assert out["recovered_ranks"] == []


class TestElasticFaults:
    """Stealing, hedging, and lease expiry under injected faults.

    Every scenario must end with a map bitwise identical to the clean run:
    tasks are pure producers into per-observation slab slots and the
    reduction order is fixed, so no steal/hedge/revival schedule may
    change a byte.
    """

    def test_heartbeat_loss_expires_the_lease_and_steals(self):
        clean = _run(2)
        plan = named_plan("heartbeat-loss", seed=3)
        with resilience.resilient(plan) as ctrl:
            faulted = _run(2, elastic_config=STEAL_ONLY)
        counters = faulted["elastic"]["counters"]
        assert counters.get("lease_expiries", 0) >= 1
        assert counters.get("steals", 0) >= 1
        assert ctrl.counters.get("lease_expiries", 0) >= 1
        assert clean["zmap"].tobytes() == faulted["zmap"].tobytes()

    def test_straggler_is_hedged(self):
        clean = _run(2)
        plan = named_plan("straggler", seed=3)
        with resilience.resilient(plan) as ctrl:
            faulted = _run(2, elastic_config=TIGHT)
        counters = faulted["elastic"]["counters"]
        assert counters.get("hedges", 0) >= 1
        assert ctrl.counters.get("hedges", 0) >= 1
        assert clean["zmap"].tobytes() == faulted["zmap"].tobytes()

    def test_elastic_storm_recovers_bitwise(self):
        """Crash + heartbeat loss + straggler in one run."""
        clean = _run(2)
        plan = named_plan("elastic-storm", seed=3)
        with resilience.resilient(plan):
            faulted = _run(2, elastic_config=TIGHT)
        assert faulted["crash_injected_ranks"], "the storm's crash never armed"
        assert clean["zmap"].tobytes() == faulted["zmap"].tobytes()


class TestCheckpointResume:
    """A mid-ensemble kill composed with a worker crash must resume clean."""

    def test_kill_mid_ensemble_then_resume_is_byte_identical(self, tmp_path):
        clean = _run(2)
        root = tmp_path / "ckpt"

        # First run: a worker crash is live AND the parent is killed after
        # the third commit (an external SIGKILL, modeled as ElasticAborted).
        store = TaskCheckpoint(root)
        plan = named_plan("worker-crash", seed=5)
        with resilience.resilient(plan):
            with pytest.raises(ElasticAborted) as excinfo:
                _run(2, checkpoint=store, abort_after_commits=3)
        report = excinfo.value.report
        assert not report.complete
        assert len(store) >= 3  # every commit checkpointed before the kill

        # Resume in a "new process": a fresh store re-reads the .chunk files.
        resumed_store = TaskCheckpoint(root)
        assert resumed_store.task_ids() == store.task_ids()
        out = _run(2, checkpoint=resumed_store)
        assert sorted(out["resumed_tasks"]) == store.task_ids()
        assert out["elastic"]["committed"] == SIZE.n_observations - len(store)
        assert clean["zmap"].tobytes() == out["zmap"].tobytes()

    def test_fully_checkpointed_run_spawns_no_workers(self, tmp_path):
        store = TaskCheckpoint(tmp_path / "ckpt")
        first = _run(2, checkpoint=store)
        assert len(store) == SIZE.n_observations
        again = _run(2, checkpoint=store)
        assert again["n_workers"] == 0
        assert sorted(again["resumed_tasks"]) == store.task_ids()
        assert first["zmap"].tobytes() == again["zmap"].tobytes()

    def test_rotted_or_misnamed_checkpoint_reruns_its_task(self, tmp_path):
        """One flipped payload byte, or a chunk keyed to another task, is
        discarded at load; the task reruns and the map stays clean."""
        root = tmp_path / "ckpt"
        store = TaskCheckpoint(root)
        clean = _run(2, checkpoint=store)
        rotted = root / "task_000003.chunk"
        _, offset = read_chunk_header(rotted)
        blob = bytearray(rotted.read_bytes())
        blob[offset + 5] ^= 0x40
        rotted.write_bytes(bytes(blob))
        commit_chunk(root / "task_000001.chunk", {"key": "task/2"}, store.load(1))

        resumed = TaskCheckpoint(root)
        assert resumed.discarded == ["task_000001.chunk", "task_000003.chunk"]
        assert resumed.task_ids() == [0, 2]
        out = _run(2, checkpoint=resumed)
        assert sorted(out["resumed_tasks"]) == [0, 2]
        assert out["elastic"]["committed"] == 2
        assert same_bits(out["zmap"], clean["zmap"])

    def test_torn_checkpoint_commit_raises_then_resumes(self, tmp_path):
        """A writer killed mid-checkpoint fails the run without leaking
        workers or segments; the next run discards the torn shadow."""
        clean = _run(2)
        root = tmp_path / "ckpt"
        torn = FaultPlan(
            name="torn-checkpoint",
            specs=(
                FaultSpec(
                    site="store.write", kind=FaultKind.TORN_WRITE, nth=(2,), max_fires=1
                ),
            ),
            seed=0,
        )
        with resilience.resilient(torn):
            with pytest.raises(StoreTornWrite):
                _run(2, checkpoint=TaskCheckpoint(root))

        resumed = TaskCheckpoint(root)
        landed = resumed.task_ids()
        assert len(landed) == 1  # the first commit landed
        [shadow] = resumed.discarded
        assert shadow.startswith(".shadow-task_") and shadow.endswith(".chunk")
        out = _run(2, checkpoint=resumed)
        assert out["resumed_tasks"] == landed
        assert same_bits(out["zmap"], clean["zmap"])


class TestObservability:
    def test_worker_events_merge_into_parent_trace(self):
        with obs.tracing() as tracer:
            out = _run(2)
        workers = {
            e.attrs["worker"] for e in tracer.events if "worker" in e.attrs
        }
        assert len(workers) == out["n_workers"]
        spans = [e for e in tracer.events if e.name.startswith("shard_obs_")]
        assert len(spans) == SIZE.n_observations
        assert tracer.metrics.gauges["parallel.workers"].value == 2.0


class TestEngine:
    def test_crash_exit_code_is_nonzero(self):
        assert CRASH_EXIT_CODE != 0
