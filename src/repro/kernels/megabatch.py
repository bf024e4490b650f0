"""Megabatch collection: stack per-observation kernel calls into one launch.

The paper's central finding is that JAX's whole-program transformation
model amortizes launch and dispatch overhead in ways per-kernel offload
cannot.  Our operators, like TOAST's, loop over observations and call
each kernel once per observation — so dispatch, JIT-cache lookup, and
launch overhead scale linearly with workload count.  The
:class:`MegabatchCollector` removes that scaling without rewriting any
operator: installed around an operator's ``exec`` (via
:func:`repro.core.dispatch.megabatch_collection`), it intercepts the
per-observation :class:`~repro.core.dispatch.BoundKernel` calls, defers
them, and at flush time groups compatible calls — same kernel, same
implementation, same scalar parameters, same array shapes — into a
single stacked launch with a leading ``n_obs`` axis.

Batch axes come from the :class:`~repro.kernels.spec.KernelSpec`:
``"stack"`` arguments (detdata/shared/focalplane/derived) are resolved
to their device views and stacked; ``"broadcast"`` arguments (scalars
and GLOBAL accumulators) are passed through once.  Interval lists are
padded to a common ``(n_obs, n_ivl)`` slab with degenerate ``(0, 0)``
rows (an observation with an empty interval list contributes an
all-masked slab — see :func:`repro.kernels.common.pad_intervals_grouped`).
Each backend's stacked entry is derived from its per-observation
implementation (:mod:`repro.kernels.jax.stacked`,
:mod:`repro.kernels.omp.stacked`).

Bitwise parity is the gate: a stacked launch must reproduce the eager
per-observation sequence exactly.  Three rules make that hold:

* GLOBAL accumulators are broadcast (never copied per observation) and
  stacked scatter kernels commit contributions in *observation-major,
  sample-major, detector-inner* order — the same ordered ``np.add.at``
  sequence the eager loop produces.
* Groups that cannot stack (singleton, no megabatch implementation for
  the backend, or a stacked launch raising) replay the deferred calls
  one-by-one in deferral order through the normal eager path.
* Only calls with no data hazard against other pending kernels are
  deferred past each other; a conflict flushes the queue first.

JIT-cache bucketing: for JAX launches of kernels with no written
broadcast argument, the observation axis is padded to the next
power-of-two bucket (:func:`repro.jaxshim.config.next_batch_bucket`)
with all-masked rows, so the shim's trace-cache key — which hashes
argument shapes — repeats across nearby group sizes instead of
recompiling per observation-count change.  Scatter kernels run at the
exact group size: a padded row's masked lanes would add ``+0.0`` into
the accumulator, which is not bitwise-neutral against ``-0.0``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..core.dispatch import ImplementationType, kernel_registry
from ..obs import state as obs_state
from .common import resolve_view
from .spec import Intent

__all__ = ["MegabatchCollector", "stack_group_intervals"]


def stack_group_intervals(
    starts_list, stops_list
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad per-observation interval lists to a common ``(n_obs, n_ivl)``.

    Shorter (or empty) lists pad with degenerate ``(0, 0)`` rows, which
    the padding machinery turns into all-masked lanes.
    """
    n_ivl = max((len(s) for s in starts_list), default=0)
    n_obs = len(starts_list)
    starts2 = np.zeros((n_obs, n_ivl), dtype=np.int64)
    stops2 = np.zeros((n_obs, n_ivl), dtype=np.int64)
    for i, (sa, so) in enumerate(zip(starts_list, stops_list)):
        sa = np.asarray(sa, dtype=np.int64)
        so = np.asarray(so, dtype=np.int64)
        starts2[i, : len(sa)] = sa
        stops2[i, : len(so)] = so
    return starts2, stops2


class _Deferred:
    """One intercepted kernel call, held until flush."""

    __slots__ = ("bound", "args", "kwargs", "merged", "reads", "writes")

    def __init__(self, bound, args, kwargs, merged):
        self.bound = bound
        self.args = args
        self.kwargs = kwargs
        self.merged = merged
        reads: set = set()
        writes: set = set()
        for a in bound.spec.args:
            value = merged.get(a.name)
            if not isinstance(value, np.ndarray):
                continue
            if a.intent.reads:
                reads.add(id(value))
            if a.intent.writes:
                writes.add(id(value))
        self.reads = reads
        self.writes = writes


class MegabatchCollector:
    """Defers megabatch-eligible kernel calls and flushes them stacked.

    One collector is installed per operator-exec region (the pipeline
    flushes at every operator boundary, so deferral never crosses a
    point where the host could observe kernel outputs).  Counters:

    * ``deferred_calls`` — per-observation calls intercepted;
    * ``stacked_launches`` — grouped launches issued;
    * ``replayed_calls`` — deferred calls executed eagerly (singleton
      groups, missing backend megabatch implementation, or recovery
      after a stacked failure);
    * ``launches_elided`` — kernel dispatches saved by stacking: a
      group of ``k`` calls flushed as one stacked call saves ``k - 1``.
    """

    def __init__(self) -> None:
        self._pending: List[_Deferred] = []
        self._flushing = False
        self.deferred_calls = 0
        self.stacked_launches = 0
        self.replayed_calls = 0
        self.launches_elided = 0

    # -- interception --------------------------------------------------------

    def offer(self, bound, args, kwargs) -> bool:
        """Accept (and defer) a BoundKernel call, or decline it.

        Declined calls execute eagerly at the call site.  Accepting may
        first flush the queue if the new call has a read/write hazard
        against pending calls of a *different* kernel, or would stack a
        duplicate output array into an existing group.
        """
        if self._flushing:
            return False
        spec = bound.spec
        if spec is None or not getattr(spec, "megabatch", False):
            return False
        try:
            merged = spec.bind_call(args, kwargs)
        except TypeError:
            return False
        call = _Deferred(bound, args, kwargs, merged)
        if self._hazard(call):
            self.flush()
        self._pending.append(call)
        self.deferred_calls += 1
        return True

    def _hazard(self, call: _Deferred) -> bool:
        for other in self._pending:
            if other.bound.name != call.bound.name:
                # Cross-kernel reorder safety: grouping executes whole
                # buckets back-to-back, so any data dependence between
                # different kernels forces a flush first.
                if (
                    (other.writes & (call.reads | call.writes))
                    or (other.reads & call.writes)
                ):
                    return True
            else:
                # Same kernel writing the same non-broadcast array twice
                # cannot stack (the rows would race on write-back).
                for a in call.bound.spec.args:
                    if a.batch != "stack" or not a.intent.writes:
                        continue
                    value = call.merged.get(a.name)
                    ovalue = other.merged.get(a.name)
                    if (
                        isinstance(value, np.ndarray)
                        and isinstance(ovalue, np.ndarray)
                        and value is ovalue
                    ):
                        return True
        return False

    # -- flush ---------------------------------------------------------------

    def flush(self) -> None:
        """Execute every pending call, stacked where possible."""
        if self._flushing or not self._pending:
            return
        self._flushing = True
        try:
            pending, self._pending = self._pending, []
            buckets: Dict[tuple, List[_Deferred]] = {}
            order: List[tuple] = []
            for call in pending:
                sig = self._signature(call)
                if sig not in buckets:
                    buckets[sig] = []
                    order.append(sig)
                buckets[sig].append(call)
            for sig in order:
                self._run_bucket(buckets[sig])
        finally:
            self._flushing = False

    def _signature(self, call: _Deferred) -> tuple:
        """Grouping key: calls stack only when everything but the
        per-observation data agrees."""
        bound = call.bound
        kwargs = call.kwargs
        parts: List[Any] = [
            bound.name,
            bound.impl,
            bool(kwargs.get("use_accel", False)),
            id(kwargs.get("accel")),
        ]
        for a in bound.spec.args:
            if a.name not in call.merged:
                parts.append(("absent",))
                continue
            value = call.merged[a.name]
            if value is None:
                parts.append(("none",))
            elif not isinstance(value, np.ndarray):
                try:
                    hash(value)
                except TypeError:
                    parts.append(("scalar-id", id(value)))
                else:
                    parts.append(("scalar", value))
            elif a.role.value == "intervals":
                parts.append(("intervals",))
            elif a.batch == "broadcast":
                # Broadcast arrays must be the *same object* group-wide:
                # stacked accumulation into one GLOBAL is only eager-
                # equivalent when every member targets that array.
                parts.append(("broadcast", id(value)))
            else:
                parts.append(("stack", value.shape, str(value.dtype)))
        return tuple(parts)

    def _run_bucket(self, calls: List[_Deferred]) -> None:
        bound = calls[0].bound
        mb = kernel_registry.megabatch_impl(bound.name, bound.impl)
        if len(calls) == 1 or mb is None:
            self._replay(calls)
            return
        try:
            self._run_stacked(calls, mb)
        except Exception:
            tr = obs_state.active
            if tr is not None:
                tr.metrics.count("megabatch.stacked_failures")
            # Stacked implementations commit in-place GLOBAL updates
            # last, so a failed launch left no partial state; the eager
            # path (including its resilience wrappers) takes over.
            self._replay(calls)

    def _replay(self, calls: List[_Deferred]) -> None:
        for call in calls:
            call.bound(*call.args, **call.kwargs)
            self.replayed_calls += 1
        tr = obs_state.active
        if tr is not None:
            tr.metrics.count("megabatch.replayed_calls", len(calls))

    def _run_stacked(self, calls: List[_Deferred], mb) -> None:
        bound = calls[0].bound
        spec = bound.spec
        k = len(calls)
        accel = calls[0].kwargs.get("accel")
        use_accel = bool(calls[0].kwargs.get("use_accel", False))

        pad_rows = 0
        if bound.impl is ImplementationType.JAX and not any(
            a.batch == "broadcast" and a.intent.writes for a in spec.args
        ):
            from ..jaxshim.config import next_batch_bucket

            pad_rows = next_batch_bucket(k) - k

        stacked_kwargs: Dict[str, Any] = {}
        views: Dict[str, List[np.ndarray]] = {}
        interval_names = [a.name for a in spec.args if a.role.value == "intervals"]
        if interval_names:
            groups = {
                name: [np.asarray(c.merged[name]) for c in calls]
                + [np.zeros(0, dtype=np.int64)] * pad_rows
                for name in interval_names
            }
            starts2, stops2 = stack_group_intervals(
                groups[interval_names[0]], groups[interval_names[1]]
            )
            stacked_kwargs[interval_names[0]] = starts2
            stacked_kwargs[interval_names[1]] = stops2
        for a in spec.args:
            if a.name in interval_names or a.name not in calls[0].merged:
                continue
            value = calls[0].merged[a.name]
            if value is None or not isinstance(value, np.ndarray):
                stacked_kwargs[a.name] = value
                continue
            if a.batch == "broadcast":
                # Unresolved: the stacked implementation resolves the
                # device view itself, exactly like the eager one.
                stacked_kwargs[a.name] = value
                continue
            member_views = [
                resolve_view(accel, c.merged[a.name], use_accel) for c in calls
            ]
            stacked = np.stack(member_views, axis=0)
            if pad_rows:
                pad = np.zeros(
                    (pad_rows,) + stacked.shape[1:], dtype=stacked.dtype
                )
                stacked = np.concatenate((stacked, pad), axis=0)
            stacked_kwargs[a.name] = stacked
            if a.intent.writes:
                views[a.name] = member_views

        tr = obs_state.active
        if tr is not None:
            with tr.span(
                f"kernel.{bound.name}.megabatch",
                impl=bound.impl.value,
                group=k,
            ):
                mb(**stacked_kwargs, accel=accel, use_accel=use_accel)
        else:
            mb(**stacked_kwargs, accel=accel, use_accel=use_accel)

        for name, member_views in views.items():
            stacked = stacked_kwargs[name]
            for i, view in enumerate(member_views):
                view[...] = stacked[i]

        elided = k - 1
        self.stacked_launches += 1
        self.launches_elided += elided
        if tr is not None:
            tr.metrics.count("megabatch.stacked_launches")
            tr.metrics.count("megabatch.grouped_calls", k)
            tr.metrics.count("megabatch.launches_elided", elided)
            for call in calls:
                read, written = spec.bytes_moved(call.args, call.kwargs)
                if read:
                    tr.metrics.count(f"kernel.{bound.name}.bytes_read", read)
                if written:
                    tr.metrics.count(
                        f"kernel.{bound.name}.bytes_written", written
                    )
