"""The elastic work-stealing worker pool: leases, hedging, live rejoin.

Every measured multiprocess run -- the Figure 4 process sweep, the
parallel fault plans, the chaos legs, serve producers and streamed
ingest -- runs per-observation tasks on this pool:

* **Work stealing.**  Tasks live in one queue; every idle worker pulls the
  next task.  Nothing is pre-assigned, so a slow worker simply contributes
  fewer tasks instead of defining the critical path.
* **Lease-based liveness.**  Each dispatched task carries a lease renewed
  by worker heartbeats (a background thread in the worker beats over the
  result pipe).  A lease that expires -- crash, hang, wedged pipe, injected
  ``HEARTBEAT_LOSS`` -- sends the task back to the queue for any live
  worker to steal.  The silent worker is *not* killed: if it resurfaces it
  rejoins the queue live (its late result is a no-op duplicate).
* **Straggler hedging.**  A task running past the hedge deadline gets a
  speculative duplicate on an idle worker; the first completion wins.
* **Elastic membership.**  Dead workers are reaped and respawned (bounded
  by a respawn budget); when no worker survives, the parent finishes the
  remaining tasks inline so the map always completes.

Determinism: tasks are pure functions of their seeded inputs writing
disjoint (or bitwise-identical, under hedging) slots of a
:class:`~repro.parallel.shm.SharedSlab`, and :func:`run_zmap_tasks`
reduces the slots in fixed task order -- so the result is bitwise
identical for *any* worker count and any steal, hedge, crash, or revival
schedule.

Faults are plan-driven and composable: the pool polls the resilience
sites ``parallel.worker`` (WORKER_CRASH, at every spawn), ``parallel.task``
(TASK_STALL, at every dispatch), and ``parallel.heartbeat``
(HEARTBEAT_LOSS, at every dispatch), and ships the armed behaviours to the
workers with the assignment, so injection stays a pure function of the
fault plan while the scheduler reacts live.  Every scheduler decision is
emitted as a typed ``repro.obs`` event (WORKER / LEASE / STEAL / HEDGE).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import state as obs_state
from ..obs.events import ClockDomain, Event, EventType
from ..resilience import state as res_state
from ..resilience.faults import FaultKind
from ..store.format import (
    PENDING_SHADOWS,
    SHADOW_PREFIX,
    StoreIntegrityError,
    commit_chunk,
    read_payload,
    verify_chunk,
)
from .shm import SharedSlab

__all__ = [
    "CRASH_EXIT_CODE",
    "ElasticConfig",
    "ElasticAborted",
    "ElasticReport",
    "ElasticPool",
    "TaskCheckpoint",
    "replay_worker_events",
    "run_zmap_tasks",
]

#: Exit code an injected worker crash dies with (mirrors a SIGKILL'd or
#: OOM-killed worker: no result, no cleanup).
CRASH_EXIT_CODE = 17

#: Metric counted per scheduler event type (WORKER events are counted by
#: phase inside :meth:`ElasticPool._emit`).
_EVENT_METRIC = {
    EventType.STEAL: "parallel.steals",
    EventType.HEDGE: "parallel.hedges",
}


@dataclass(frozen=True)
class ElasticConfig:
    """Scheduler knobs; injection behaviour comes from the fault plan."""

    #: Seconds a task's lease survives without a heartbeat before the
    #: task is requeued for stealing.
    lease_s: float = 5.0
    #: Worker heartbeat period.  Must be well under ``lease_s`` so one
    #: missed beat (GIL hiccup) does not look like a lost worker.
    heartbeat_s: float = 0.25
    #: Seconds a task may run before an idle worker hedges a duplicate.
    hedge_s: float = 30.0
    #: Speculative duplicates allowed per task, beyond the primary runner.
    max_hedges_per_task: int = 1
    #: Replacement workers the pool may spawn over its lifetime
    #: (``None`` means twice the worker count).
    max_respawns: Optional[int] = None
    #: Times a task may *fail* (task_fn raising) before the pool gives up.
    max_task_attempts: int = 3
    #: Hard wall-clock bound on one :meth:`ElasticPool.run`; past it the
    #: parent finishes the remaining tasks inline.
    total_timeout_s: float = 600.0
    #: Seconds to wait for workers to drain at shutdown before SIGTERM.
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        for name in ("lease_s", "heartbeat_s", "hedge_s", "total_timeout_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("drain_timeout_s", "max_hedges_per_task", "max_respawns"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if self.max_task_attempts < 1:
            raise ValueError(
                f"max_task_attempts must be at least 1, got {self.max_task_attempts!r}"
            )
        if self.heartbeat_s >= self.lease_s:
            raise ValueError(
                f"heartbeat period ({self.heartbeat_s}s) must be shorter than "
                f"the lease ({self.lease_s}s), or every task looks dead"
            )


class ElasticAborted(RuntimeError):
    """The run was cut short (``abort_after_commits``): a modeled kill.

    Carries the partial :class:`ElasticReport` so checkpoint/resume tests
    can assert exactly what survived the kill.
    """

    def __init__(self, message: str, report: "ElasticReport"):
        super().__init__(message)
        self.report = report


@dataclass
class ElasticReport:
    """What one :meth:`ElasticPool.run` did, as plain data."""

    #: task_id -> {"worker": wid, "seconds": float} in commit order.
    committed: Dict[Any, Dict[str, Any]] = field(default_factory=dict)
    #: Scheduler counters: steals, hedges, lease_expiries, respawns,
    #: revives, duplicates, inline_runs, worker_deaths, task_failures.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Total task seconds per worker id (-1 is the parent's inline lane).
    worker_seconds: Dict[int, float] = field(default_factory=dict)
    #: Worker ids whose spawn poll armed an injected crash.
    crash_armed: List[int] = field(default_factory=list)
    #: Worker ids that died (or went silent) while holding a task that
    #: was later recovered by another worker or the inline lane.
    recovered_workers: List[int] = field(default_factory=list)
    #: Tasks never committed (only on an aborted run).
    incomplete: List[Any] = field(default_factory=list)
    #: Workers spawned over the run's lifetime (initial + respawns).
    workers_spawned: int = 0

    @property
    def complete(self) -> bool:
        return not self.incomplete


@dataclass
class _Assign:
    task_id: Any
    started: float
    last_beat: float
    crash: bool = False
    mute: bool = False
    stall_s: float = 0.0


@dataclass
class _Worker:
    wid: int
    gen: int
    proc: Any
    conn: Any
    status: str = "starting"  # starting -> idle -> busy -> suspect | dead
    assign: Optional[_Assign] = None
    crash_armed: bool = False

    @property
    def alive(self) -> bool:
        return self.status not in ("dead",)


@dataclass
class _Task:
    task_id: Any
    done: bool = False
    queued: bool = True
    attempts: int = 0
    failures: int = 0
    first_started: Optional[float] = None
    #: Workers that lost this task (death or lease expiry) before commit.
    lost_by: Set[int] = field(default_factory=set)
    #: Set when the task re-enters the queue after a loss; the next
    #: dispatch of it is a steal.
    steal_from: Optional[int] = None
    committed_by: Optional[int] = None
    events: List[Event] = field(default_factory=list)
    seconds: float = 0.0


def _pool_worker_entry(conn, wid: int, heartbeat_s: float, task_fn, args, cleanup):
    """Child-process entry: pull tasks until told to stop, heartbeating.

    A background thread beats ``("heartbeat", wid, task_id)`` over the
    result pipe while a task runs; an armed ``mute_heartbeats`` silences it
    (the injected HEARTBEAT_LOSS), an armed ``stall_s`` sleeps before the
    task body (the injected TASK_STALL -- heartbeats keep flowing, the task
    is just slow), and an armed ``crash`` dies with ``os._exit`` after the
    task body but before reporting, exactly like an OOM-killed worker whose
    partial slab writes survive it.
    """
    import threading

    from .. import obs as _obs

    send_lock = threading.Lock()
    state: Dict[str, Any] = {"task": None, "mute": False}
    stop_beats = threading.Event()

    def _send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except (BrokenPipeError, OSError):
                return False

    def _beat() -> None:
        while not stop_beats.wait(heartbeat_s):
            task = state["task"]
            if task is not None and not state["mute"]:
                if not _send(("heartbeat", wid, task)):
                    return

    threading.Thread(target=_beat, name=f"beat-{wid}", daemon=True).start()
    try:
        _send(("ready", wid, None))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, task_id, flags = msg
            state["mute"] = bool(flags.get("mute_heartbeats"))
            state["task"] = task_id
            stall = float(flags.get("stall_s") or 0.0)
            t0 = time.perf_counter()
            ok, err, events = True, None, []
            try:
                with _obs.tracing() as tracer:
                    if stall > 0.0:
                        time.sleep(stall)
                    task_fn(wid, task_id, *args)
                events = list(tracer.events)
            except BaseException as e:  # noqa: BLE001 - reported to parent
                ok, err = False, f"{type(e).__name__}: {e}"
            state["task"] = None
            if flags.get("crash"):
                os._exit(CRASH_EXIT_CODE)
            _send(
                (
                    "done",
                    wid,
                    {
                        "task_id": task_id,
                        "ok": ok,
                        "error": err,
                        "seconds": time.perf_counter() - t0,
                        "events": events,
                    },
                )
            )
    finally:
        stop_beats.set()
        if cleanup is not None:
            try:
                cleanup()
            except Exception:
                pass
        try:
            conn.close()
        except OSError:
            pass


def replay_worker_events(streams: Iterable[Tuple[int, Sequence[Event]]]) -> None:
    """Merge worker event streams into the parent's active tracer.

    Each stream is ``(worker_id, events)``; every replayed event is tagged
    ``worker=<id>`` so one merged trace shows a track per worker.  Device
    events go through ``device_event`` to keep the tracer's device-side
    aggregates in sync with the replayed launches/transfers.
    """
    tr = obs_state.active
    if tr is None:
        return
    for wid, events in streams:
        for ev in events:
            attrs = dict(ev.attrs)
            attrs["worker"] = wid
            if ev.clock is ClockDomain.DEVICE:
                charged = attrs.pop("charged_s", None)
                tr.device_event(
                    ev.type, ev.name, ts=ev.ts, dur=ev.dur,
                    charged_s=charged, **attrs,
                )
            else:
                tr.emit(
                    Event(ev.type, ev.name, ts=ev.ts, dur=ev.dur,
                          clock=ev.clock, attrs=attrs)
                )


class ElasticPool:
    """Run pure tasks across an elastic set of worker processes.

    ``task_fn(wid, task_id, *args)`` must be a module-level callable
    (picklable under spawn) whose only output channel is shared memory --
    its return value is discarded; determinism of the caller's reduction
    is what makes stealing and hedging safe.  ``worker_cleanup`` runs in
    each worker just before a clean exit (close cached slab mappings).
    """

    def __init__(
        self,
        task_fn: Callable,
        args: Tuple = (),
        n_workers: int = 1,
        config: Optional[ElasticConfig] = None,
        worker_cleanup: Optional[Callable] = None,
    ):
        if n_workers < 1:
            raise ValueError("the pool needs at least one worker")
        self.task_fn = task_fn
        self.args = tuple(args)
        self.n_workers = n_workers
        self.config = config if config is not None else ElasticConfig()
        # fork shares the already-imported interpreter (fast start);
        # spawn is the portable fallback.
        self.start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self.ctx = mp.get_context(self.start_method)
        self.worker_cleanup = worker_cleanup

    # -- observability helpers -------------------------------------------------

    def _emit(self, etype: EventType, name: str, **attrs: Any) -> None:
        tr = obs_state.active
        if tr is None:
            return
        tr.emit(
            Event(etype, name, ts=tr.now(), clock=ClockDomain.HOST, attrs=attrs)
        )
        metric = _EVENT_METRIC.get(etype)
        if etype is EventType.WORKER:
            metric = f"parallel.worker_{attrs.get('phase', 'event')}s"
        elif etype is EventType.LEASE and attrs.get("phase") == "expire":
            metric = "parallel.lease_expiries"
        if metric is not None:
            tr.metrics.count(metric)

    @staticmethod
    def _count(counters: Dict[str, int], name: str, ctrl_name: Optional[str] = None) -> None:
        counters[name] = counters.get(name, 0) + 1
        ctrl = res_state.active
        if ctrl is not None and ctrl_name is not None:
            ctrl.count(ctrl_name)

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self, wid: int, gen: int, report: ElasticReport) -> _Worker:
        """Start one worker; polls the ``parallel.worker`` crash site."""
        crash_armed = False
        ctrl = res_state.active
        if ctrl is not None:
            spec = ctrl.check("parallel.worker", rank=wid, gen=gen)
            crash_armed = spec is not None and spec.kind is FaultKind.WORKER_CRASH
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_pool_worker_entry,
            args=(
                child_conn,
                wid,
                self.config.heartbeat_s,
                self.task_fn,
                self.args,
                self.worker_cleanup,
            ),
            name=f"repro-elastic-{wid}g{gen}",
        )
        proc.start()
        child_conn.close()
        report.workers_spawned += 1
        if crash_armed:
            report.crash_armed.append(wid)
        self._emit(
            EventType.WORKER,
            "parallel.worker",
            phase="respawn" if gen > 0 else "spawn",
            worker=wid,
            gen=gen,
            crash_armed=crash_armed,
        )
        return _Worker(
            wid=wid, gen=gen, proc=proc, conn=parent_conn, crash_armed=crash_armed
        )

    # -- the scheduler ---------------------------------------------------------

    def run(
        self,
        task_ids: Sequence[Any],
        on_commit: Optional[Callable[[Any], None]] = None,
        abort_after_commits: Optional[int] = None,
    ) -> ElasticReport:
        """Run every task to commit; returns the scheduling report.

        ``on_commit(task_id)`` fires in the parent after each first-writer
        commit (checkpointing hook).  ``abort_after_commits=k`` models an
        external kill: the pool tears down after the k-th commit and
        raises :class:`ElasticAborted` with the partial report.
        """
        cfg = self.config
        report = ElasticReport()
        counters = report.counters
        tasks: Dict[Any, _Task] = {tid: _Task(tid) for tid in task_ids}
        if len(tasks) != len(task_ids):
            raise ValueError("task ids must be unique")
        if not tasks:
            return report  # nothing to do: start no workers
        queue: deque = deque(task_ids)
        workers: Dict[int, _Worker] = {}
        respawn_budget = (
            cfg.max_respawns if cfg.max_respawns is not None else 2 * self.n_workers
        )
        deadline = time.monotonic() + cfg.total_timeout_s
        done_count = 0
        aborted = False

        def live_runners(task: _Task) -> List[_Worker]:
            return [
                w
                for w in workers.values()
                if w.status in ("busy", "suspect")
                and w.assign is not None
                and w.assign.task_id == task.task_id
            ]

        def requeue(task: _Task, from_wid: int, reason: str) -> None:
            """Send a lost task back for stealing (front of the queue)."""
            task.lost_by.add(from_wid)
            if not task.done and not task.queued:
                task.queued = True
                task.steal_from = from_wid
                queue.appendleft(task.task_id)

        def commit(w: Optional[_Worker], meta: Dict[str, Any]) -> None:
            nonlocal done_count, aborted
            task = tasks[meta["task_id"]]
            if task.done:
                self._count(counters, "duplicates")
                return
            task.done = True
            task.committed_by = w.wid if w is not None else -1
            task.seconds = float(meta.get("seconds", 0.0))
            task.events = list(meta.get("events", ()))
            report.committed[task.task_id] = {
                "worker": task.committed_by,
                "seconds": task.seconds,
            }
            done_count += 1
            ctrl = res_state.active
            for lost_wid in sorted(task.lost_by):
                if lost_wid not in report.recovered_workers:
                    report.recovered_workers.append(lost_wid)
                if ctrl is not None:
                    ctrl.record_worker_recovery(lost_wid, 1)
            if on_commit is not None:
                on_commit(task.task_id)
            if abort_after_commits is not None and done_count >= abort_after_commits:
                aborted = True

        def reap(w: _Worker, reason: str) -> None:
            """A worker died: recover its task, respawn if the budget allows."""
            nonlocal respawn_budget
            if w.status == "dead":
                return
            w.status = "dead"
            self._count(counters, "worker_deaths")
            self._emit(
                EventType.WORKER,
                "parallel.worker",
                phase="exit",
                worker=w.wid,
                gen=w.gen,
                exitcode=w.proc.exitcode,
                reason=reason,
            )
            if w.assign is not None:
                task = tasks.get(w.assign.task_id)
                if task is not None and not task.done and not live_runners(task):
                    requeue(task, w.wid, reason)
                w.assign = None
            try:
                w.conn.close()
            except OSError:
                pass
            if done_count < len(tasks) and not aborted and respawn_budget > 0:
                respawn_budget -= 1
                self._count(counters, "respawns", "worker_respawns")
                workers[w.wid] = self._spawn(w.wid, w.gen + 1, report)

        def dispatch(w: _Worker, task: _Task, hedge_of: Optional[List[int]] = None) -> None:
            now = time.monotonic()
            stall_s, mute = 0.0, False
            ctrl = res_state.active
            if ctrl is not None:
                spec = ctrl.check("parallel.task", task=task.task_id, worker=w.wid)
                if spec is not None and spec.kind is FaultKind.TASK_STALL:
                    stall_s = spec.stall_seconds
                spec = ctrl.check("parallel.heartbeat", task=task.task_id, worker=w.wid)
                if spec is not None and spec.kind is FaultKind.HEARTBEAT_LOSS:
                    mute = True
            crash = w.crash_armed
            w.crash_armed = False  # one crash per armed worker
            w.assign = _Assign(
                task_id=task.task_id,
                started=now,
                last_beat=now,
                crash=crash,
                mute=mute,
                stall_s=stall_s,
            )
            w.status = "busy"
            task.attempts += 1
            if task.first_started is None:
                task.first_started = now
            if hedge_of is not None:
                self._count(counters, "hedges", "hedges")
                self._emit(
                    EventType.HEDGE,
                    "parallel.task",
                    task=task.task_id,
                    worker=w.wid,
                    racing=hedge_of,
                )
            elif task.steal_from is not None:
                self._count(counters, "steals", "steals")
                self._emit(
                    EventType.STEAL,
                    "parallel.task",
                    task=task.task_id,
                    worker=w.wid,
                    stolen_from=task.steal_from,
                )
                task.steal_from = None
            self._emit(
                EventType.LEASE,
                "parallel.lease",
                phase="grant",
                task=task.task_id,
                worker=w.wid,
                lease_s=cfg.lease_s,
            )
            w.conn.send(
                (
                    "task",
                    task.task_id,
                    {"crash": crash, "mute_heartbeats": mute, "stall_s": stall_s},
                )
            )

        def handle(w: _Worker, msg) -> None:
            kind = msg[0]
            now = time.monotonic()
            if kind == "ready":
                w.status = "idle"
                return
            if kind == "heartbeat":
                if w.assign is not None and w.assign.task_id == msg[2]:
                    w.assign.last_beat = now
                return
            if kind == "done":
                meta = msg[2]
                was_suspect = w.status == "suspect"
                current = w.assign.task_id if w.assign is not None else None
                w.assign = None
                w.status = "idle"
                if was_suspect:
                    self._count(counters, "revives")
                    self._emit(
                        EventType.WORKER,
                        "parallel.worker",
                        phase="revive",
                        worker=w.wid,
                        gen=w.gen,
                    )
                if not meta.get("ok", False):
                    task = tasks.get(meta["task_id"])
                    self._count(counters, "task_failures")
                    if task is not None and not task.done:
                        task.failures += 1
                        if task.failures >= cfg.max_task_attempts:
                            raise RuntimeError(
                                f"task {task.task_id!r} failed "
                                f"{task.failures} times; last error: "
                                f"{meta.get('error')}"
                            )
                        if not task.queued and not live_runners(task):
                            task.queued = True
                            queue.appendleft(task.task_id)
                    return
                if current is not None and current != meta["task_id"]:
                    # A stale result from before a steal; still a commit
                    # candidate (first writer wins on identical bytes).
                    pass
                commit(w, meta)

        try:
            for wid in range(self.n_workers):
                workers[wid] = self._spawn(wid, 0, report)

            while done_count < len(tasks) and not aborted:
                now = time.monotonic()
                if now > deadline:
                    break

                # Reap workers whose process exited (crash or clean death).
                for w in list(workers.values()):
                    if w.alive and w.proc.exitcode is not None and not w.conn.poll():
                        reap(w, "exitcode")

                # Lease sweep: silent workers lose their task to the queue.
                for w in workers.values():
                    if w.status == "busy" and w.assign is not None:
                        lease_end = w.assign.last_beat + cfg.lease_s
                        if now > lease_end:
                            w.status = "suspect"
                            self._count(counters, "lease_expiries", "lease_expiries")
                            self._emit(
                                EventType.LEASE,
                                "parallel.lease",
                                phase="expire",
                                task=w.assign.task_id,
                                worker=w.wid,
                                silent_s=now - w.assign.last_beat,
                            )
                            task = tasks.get(w.assign.task_id)
                            if task is not None and not task.done:
                                others = [
                                    r for r in live_runners(task) if r.wid != w.wid
                                ]
                                if not others:
                                    requeue(task, w.wid, "lease_expired")

                # No live workers at all: finish inline (the last resort).
                if not any(w.alive for w in workers.values()):
                    break

                # Dispatch: drain the queue onto idle workers, then hedge
                # the oldest eligible straggler.
                idle = [w for w in workers.values() if w.status == "idle"]
                for w in idle:
                    task = None
                    while queue:
                        candidate = tasks[queue.popleft()]
                        if not candidate.done:
                            candidate.queued = False
                            task = candidate
                            break
                    if task is not None:
                        dispatch(w, task)
                        continue
                    hedgeable = [
                        t
                        for t in tasks.values()
                        if not t.done
                        and not t.queued
                        and t.first_started is not None
                        and now - t.first_started > cfg.hedge_s
                        and 0 < len(live_runners(t)) <= cfg.max_hedges_per_task
                    ]
                    if hedgeable:
                        target = min(hedgeable, key=lambda t: t.first_started)
                        dispatch(
                            w, target, hedge_of=[r.wid for r in live_runners(target)]
                        )

                # Wait for messages, bounded by the nearest deadline.
                conns = {
                    w.conn: w for w in workers.values() if w.alive
                }
                wait_s = 0.1
                for w in workers.values():
                    if w.status == "busy" and w.assign is not None:
                        wait_s = min(
                            wait_s, w.assign.last_beat + cfg.lease_s - now
                        )
                wait_s = max(0.01, min(wait_s, 0.1))
                try:
                    ready = mp_connection.wait(list(conns), timeout=wait_s)
                except OSError:
                    ready = []
                for conn in ready:
                    w = conns[conn]
                    while True:
                        try:
                            if not conn.poll():
                                break
                            msg = conn.recv()
                        except (EOFError, OSError):
                            reap(w, "pipe_closed")
                            break
                        handle(w, msg)
                        if aborted:
                            break
                    if aborted:
                        break

            # Inline lane: whatever is left runs in the parent, in task
            # order, so the run *always* completes (unless aborted).
            if not aborted:
                for tid, task in tasks.items():
                    if task.done:
                        continue
                    self._count(counters, "inline_runs", "inline_recoveries")
                    t0 = time.perf_counter()
                    self.task_fn(-1, tid, *self.args)
                    commit(None, {"task_id": tid, "seconds": time.perf_counter() - t0})
        finally:
            self._shutdown(workers)

        for task in tasks.values():
            if not task.done:
                report.incomplete.append(task.task_id)
        for task in tasks.values():
            if task.committed_by is not None and task.committed_by >= 0:
                report.worker_seconds[task.committed_by] = (
                    report.worker_seconds.get(task.committed_by, 0.0) + task.seconds
                )
        for wid in range(self.n_workers):
            report.worker_seconds.setdefault(wid, 0.0)
        replay_worker_events(
            (task.committed_by, task.events)
            for task in tasks.values()
            if task.done and task.events
        )
        report.crash_armed.sort()
        report.recovered_workers.sort()
        if aborted:
            raise ElasticAborted(
                f"run aborted after {done_count} commit(s); "
                f"{len(report.incomplete)} task(s) incomplete",
                report,
            )
        return report

    def _shutdown(self, workers: Dict[int, _Worker]) -> None:
        """Stop every worker; no process and no pipe survives the pool."""
        for w in workers.values():
            if w.alive:
                try:
                    w.conn.send(("stop", None, None))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + self.config.drain_timeout_s
        for w in workers.values():
            w.proc.join(timeout=max(0.05, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=self.config.drain_timeout_s)
                if w.proc.is_alive():  # pragma: no cover - last resort
                    w.proc.kill()
                    w.proc.join()
            try:
                w.conn.close()
            except OSError:
                pass
            if w.status != "dead":
                self._emit(
                    EventType.WORKER,
                    "parallel.worker",
                    phase="exit",
                    worker=w.wid,
                    gen=w.gen,
                    exitcode=w.proc.exitcode,
                    reason="shutdown",
                )

    def __repr__(self) -> str:
        return (
            f"ElasticPool(n_workers={self.n_workers}, "
            f"start_method={self.start_method!r})"
        )


class TaskCheckpoint:
    """Per-task result checkpoints: what a killed run resumes from.

    Holds one committed array per task id, in memory and -- when ``root``
    is given -- as ``task_<id>.chunk`` files, so a *different process* can
    resume the ensemble after a kill.  The store is the durable owner of
    completed work: the elastic runner skips every checkpointed task and
    seeds its slab slot from here instead of recomputing.

    Each file is an RSC1 chunk (the observation store's format, CRC32 on
    header and payload) with header key ``task/<id>``, committed through
    :func:`~repro.store.format.commit_chunk`, so the ``store.write`` fault
    site covers it.  Load discards (and unlinks) any in-flight
    ``.shadow-task_*`` file and any checkpoint that fails framing, CRC or
    key -- its task just reruns.  A ``task_*.chunk`` whose id is not an
    integer is not a checkpoint: it is left in place and ignored.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else None
        self._arrays: Dict[int, np.ndarray] = {}
        self.discarded: List[str] = []
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            for stale in sorted(self.root.glob(f"{SHADOW_PREFIX}task_*")):
                # An in-flight commit that never renamed; the committed
                # file (if any) is still the previous good generation.
                stale.unlink()
                PENDING_SHADOWS.discard(stale)
                self.discarded.append(stale.name)
            for path in sorted(self.root.glob("task_*.chunk")):
                try:
                    tid = int(path.stem.split("_", 1)[1])
                except ValueError:
                    continue
                try:
                    intact = verify_chunk(path).get("key") == f"task/{tid}"
                except StoreIntegrityError:
                    intact = False
                if intact:
                    self._arrays[tid] = read_payload(path)[0]
                else:
                    path.unlink()
                    self.discarded.append(path.name)

    def save(self, task_id: int, array: np.ndarray) -> None:
        tid = int(task_id)
        arr = np.array(array, copy=True)
        if self.root is not None:
            commit_chunk(self.root / f"task_{tid:06d}.chunk", {"key": f"task/{tid}"}, arr)
        self._arrays[tid] = arr

    def load(self, task_id: int) -> np.ndarray:
        return self._arrays[int(task_id)]

    def task_ids(self) -> List[int]:
        return sorted(self._arrays)

    def __contains__(self, task_id: int) -> bool:
        return int(task_id) in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def __repr__(self) -> str:
        where = str(self.root) if self.root is not None else "memory"
        return f"TaskCheckpoint({len(self._arrays)} task(s), {where})"


def run_zmap_tasks(
    task_fn: Callable,
    args: Tuple,
    n_tasks: int,
    map_shape: Tuple[int, ...],
    n_procs: int,
    config: Optional[ElasticConfig] = None,
    checkpoint: Optional[TaskCheckpoint] = None,
    abort_after_commits: Optional[int] = None,
    cleanup: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """One partial map per task on the elastic pool, summed in task order.

    Creates a shared slab with one float64 ``zmap`` slot of ``map_shape``
    per task id ``0 .. n_tasks - 1`` and runs ``task_fn(wid, task_id,
    slab_spec, *args)`` for each on up to ``n_procs`` workers; a task's
    only output is its slot.  The parent sums the slots in task order, so
    the map is bitwise independent of the worker count and of any steal,
    hedge or crash schedule.

    ``checkpoint`` seeds the slots of the tasks it holds (they do not run)
    and saves every new commit; ``abort_after_commits`` models a kill
    (:class:`ElasticAborted`).  ``cleanup`` runs in every worker before it
    exits, and in the parent once the pool is done, to close the slab
    attachment the inline lane may have cached.
    """
    wall0 = time.perf_counter()
    with SharedSlab.create({"zmap": ((n_tasks, *map_shape), np.float64)}) as slab:
        resumed = [t for t in range(n_tasks) if checkpoint is not None and t in checkpoint]
        for tid in resumed:
            slab.array("zmap")[tid] = checkpoint.load(tid)
        todo = [t for t in range(n_tasks) if t not in resumed]
        n_workers = min(max(1, n_procs), len(todo))

        def save(tid: int) -> None:
            checkpoint.save(tid, slab.array("zmap")[tid])

        pool = ElasticPool(
            task_fn,
            args=(slab.spec, *args),
            n_workers=max(1, n_workers),
            config=config,
            worker_cleanup=cleanup,
        )
        try:
            report = pool.run(
                todo,
                on_commit=None if checkpoint is None else save,
                abort_after_commits=abort_after_commits,
            )
        finally:
            if cleanup is not None:
                cleanup()
        zmap = np.zeros(map_shape, dtype=np.float64)
        for tid in range(n_tasks):
            zmap += slab.array("zmap")[tid]
    return {
        "zmap": zmap,
        "wall_seconds": time.perf_counter() - wall0,
        "n_workers": n_workers,
        "start_method": pool.start_method,
        "worker_seconds": report.worker_seconds,
        "recovered_ranks": list(report.recovered_workers),
        "crash_injected_ranks": list(report.crash_armed),
        "resumed_tasks": resumed,
        "elastic": {
            "counters": dict(report.counters),
            "committed": len(report.committed),
            "workers_spawned": report.workers_spawned,
        },
    }
