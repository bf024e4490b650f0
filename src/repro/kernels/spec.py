"""Declarative kernel contracts (the single source of truth per kernel).

The paper's dispatch system (§3.2.1) keeps four interchangeable
implementations per kernel; its pipelines (§3.2.2) stage data to the
device from hand-maintained operator traits.  Both need the same
information -- what arguments a kernel takes, which are read and which
are written, and what kind of data each one is.  A :class:`KernelSpec`
states that once, declaratively, and everything else derives from it:

* ``KernelRegistry.register`` validates every backend implementation's
  signature (argument names and order) against the spec, so the four
  backends cannot drift apart;
* operators derive their accel ``requires``/``provides`` traits from the
  spec args they bind to observation keys;
* pipelines derive staging sets (what to h2d before a stage, what to
  mark dirty for d2h after) from argument :class:`Intent`;
* the microbenchmark and parity suites iterate the registry, so a kernel
  registered without a spec or without coverage fails loudly;
* ``get_kernel`` returns a ``BoundKernel`` that can check dtypes/shapes
  against the spec (off by default -- hot paths pay nothing) and
  attribute bytes-moved metrics from intents.

This module depends only on the standard library and numpy so it can be
imported from anywhere (dispatch, operators, tests) without cycles.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Intent", "ArgRole", "ArgSpec", "KernelSpec"]


class Intent(Enum):
    """Whether a kernel argument is read, written, or both.

    Intents drive data movement: ``IN``/``INOUT`` args must be valid on
    the device before launch (h2d), ``OUT``/``INOUT`` args are dirty on
    the device afterwards (d2h at the next sync point).
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def reads(self) -> bool:
        return self is not Intent.OUT

    @property
    def writes(self) -> bool:
        return self is not Intent.IN


class ArgRole(Enum):
    """What kind of data an argument carries.

    The role decides which observation category a bound key belongs to
    (``detdata``/``shared``/``global`` -> pipeline ``meta``) and which
    args are plain scalars or framework-internal arrays.
    """

    #: Per-detector timestream data, shape leading with ``n_det``.
    DETDATA = "detdata"
    #: Telescope-wide data shared by all detectors (boresight, flags).
    SHARED = "shared"
    #: Cross-observation global products (maps, hit counts, amplitudes).
    GLOBAL = "global"
    #: Static focalplane properties (detector quats, weights, epsilon).
    FOCALPLANE = "focalplane"
    #: Interval sample ranges (``starts``/``stops`` index arrays).
    INTERVALS = "intervals"
    #: A plain scalar parameter (mask bits, calibration factor, flags).
    SCALAR = "scalar"
    #: Derived index/metadata arrays computed by the calling operator
    #: (e.g. per-detector amplitude offsets), staged by the caller.
    DERIVED = "derived"


#: Roles whose values are numpy arrays (everything but plain scalars).
_ARRAY_ROLES = frozenset(
    {
        ArgRole.DETDATA,
        ArgRole.SHARED,
        ArgRole.GLOBAL,
        ArgRole.FOCALPLANE,
        ArgRole.INTERVALS,
        ArgRole.DERIVED,
    }
)

#: Trailing parameters every kernel implementation must accept.
RESERVED_PARAMS = ("accel", "use_accel")

#: Valid :attr:`ArgSpec.batch` values: how a megabatch (observation-
#: stacked) call passes the argument.  A ``"stack"`` arg arrives as the
#: sequence of the group members' own values (per-observation data, one
#: per member, in member order); a ``"broadcast"`` arg is passed once,
#: shared by every member (scalars, and GLOBAL accumulators the stacked
#: kernel updates in observation order).
BATCH_AXES = frozenset({"stack", "broadcast"})

#: Role-derived default batch axis: per-observation data stacks, global
#: products and scalars broadcast.
_DEFAULT_BATCH = {
    ArgRole.DETDATA: "stack",
    ArgRole.SHARED: "stack",
    ArgRole.FOCALPLANE: "stack",
    ArgRole.INTERVALS: "stack",
    ArgRole.DERIVED: "stack",
    ArgRole.GLOBAL: "broadcast",
    ArgRole.SCALAR: "broadcast",
}

#: Valid :attr:`KernelSpec.fusion_kind` values.
FUSION_KINDS = frozenset({"elementwise", "gather", "scatter", "reduction", "opaque"})

#: Kinds safe to merge into one fused launch: per-lane output depends only
#: on per-lane (or gathered, read-only) inputs, so back-to-back kernels
#: over the same iteration space compose without a grid-wide barrier.
_FUSIBLE_KINDS = frozenset({"elementwise", "gather"})


@dataclass(frozen=True)
class ArgSpec:
    """One kernel argument: name, direction, role, and optional typing.

    ``dtype`` is any numpy dtype-like; ``shape`` is a tuple mixing ints
    (exact sizes) and strings (symbolic dims such as ``"n_det"`` that
    must agree across all args of one call).  ``rank`` defaults to
    ``len(shape)`` when a shape is given.
    """

    name: str
    intent: Intent = Intent.IN
    role: ArgRole = ArgRole.SCALAR
    dtype: Optional[Any] = None
    shape: Optional[Tuple[Any, ...]] = None
    rank: Optional[int] = None
    optional: bool = False
    #: How a megabatch call passes the argument: ``"stack"`` (the members'
    #: own values, one per member) or ``"broadcast"`` (once, shared across
    #: the group).  ``None`` derives it from the role (see ``_DEFAULT_BATCH``).
    batch: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ValueError(f"argument name must be an identifier, got {self.name!r}")
        if self.name in RESERVED_PARAMS:
            raise ValueError(
                f"argument name {self.name!r} is reserved; every kernel gets "
                f"trailing {RESERVED_PARAMS} parameters implicitly"
            )
        if not isinstance(self.intent, Intent):
            raise TypeError(
                f"argument {self.name!r}: intent must be an Intent, got "
                f"{self.intent!r} (use Intent.IN / Intent.OUT / Intent.INOUT)"
            )
        if not isinstance(self.role, ArgRole):
            raise TypeError(
                f"argument {self.name!r}: role must be an ArgRole, got {self.role!r}"
            )
        if self.intent.writes and not self.is_array:
            raise ValueError(
                f"argument {self.name!r}: intent {self.intent.value!r} requires an "
                f"array role (a {self.role.value} argument cannot be written in place)"
            )
        if self.shape is not None:
            if not isinstance(self.shape, tuple) or not all(
                isinstance(d, (int, str)) for d in self.shape
            ):
                raise TypeError(
                    f"argument {self.name!r}: shape must be a tuple of ints and "
                    f"dim-name strings, got {self.shape!r}"
                )
            if self.rank is None:
                object.__setattr__(self, "rank", len(self.shape))
            elif self.rank != len(self.shape):
                raise ValueError(
                    f"argument {self.name!r}: rank {self.rank} disagrees with "
                    f"shape {self.shape!r} (length {len(self.shape)})"
                )
        if self.dtype is not None:
            # Normalize eagerly so a bogus dtype fails at declaration time.
            object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if (self.dtype is not None or self.shape is not None) and not self.is_array:
            raise ValueError(
                f"argument {self.name!r}: dtype/shape given but role "
                f"{self.role.value!r} is not an array role"
            )
        if self.batch is None:
            object.__setattr__(self, "batch", _DEFAULT_BATCH[self.role])
        elif self.batch not in BATCH_AXES:
            raise ValueError(
                f"argument {self.name!r}: batch must be one of "
                f"{sorted(BATCH_AXES)}, got {self.batch!r}"
            )
        if self.batch == "stack" and not self.is_array:
            raise ValueError(
                f"argument {self.name!r}: batch='stack' requires an array "
                f"role; a {self.role.value} argument can only broadcast"
            )

    @property
    def is_array(self) -> bool:
        return self.role in _ARRAY_ROLES


@dataclass(frozen=True)
class KernelSpec:
    """The declarative contract for one kernel name.

    ``interval_batched`` kernels take ``starts``/``stops`` interval
    arrays and only touch samples inside them.  ``fallback_eligible``
    controls whether dispatch may silently substitute the NUMPY
    implementation (and whether the resilience fallback chain may walk
    past the requested implementation).  ``parity=False`` excludes a
    kernel (e.g. synthetic test kernels) from the registry-driven parity
    and microbench sweeps; ``waive_impls`` lists implementations the
    kernel deliberately does not provide, consumed by the
    ``repro-bench kernels`` coverage check.
    """

    name: str
    args: Tuple[ArgSpec, ...]
    interval_batched: bool = True
    fallback_eligible: bool = True
    parity: bool = True
    waive_impls: Tuple[str, ...] = ()
    #: Whether a stacked megabatch entry path is meaningful for this
    #: kernel.  When true, each accelerated backend derives a stacked
    #: entry from its per-observation implementation (same arguments,
    #: each ``"stack"`` arg -- intervals included -- as the sequence of
    #: the members' own values) and the collector may group this kernel's
    #: per-observation calls into one launch.
    megabatch: bool = False
    #: Dataflow shape for the fusion pass: ``"elementwise"`` kernels map
    #: each output sample from the matching input sample, ``"gather"``
    #: reads at indexed locations, ``"scatter"`` writes at indexed
    #: locations (a fusion barrier: output order matters), ``"reduction"``
    #: collapses an axis, ``"opaque"`` promises nothing.
    fusion_kind: str = "opaque"
    doc: str = ""
    _by_name: Dict[str, ArgSpec] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"kernel name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.args, tuple):
            raise TypeError(
                f"kernel {self.name!r}: args must be a tuple of ArgSpec, "
                f"got {type(self.args).__name__}"
            )
        by_name: Dict[str, ArgSpec] = {}
        for a in self.args:
            if not isinstance(a, ArgSpec):
                raise TypeError(
                    f"kernel {self.name!r}: args must be ArgSpec instances, got {a!r}"
                )
            if a.name in by_name:
                raise ValueError(f"kernel {self.name!r}: duplicate argument {a.name!r}")
            by_name[a.name] = a
        if self.interval_batched:
            missing = [n for n in ("starts", "stops") if n not in by_name]
            if missing:
                raise ValueError(
                    f"kernel {self.name!r}: interval_batched requires "
                    f"{missing} interval arguments"
                )
        bad = [i for i in self.waive_impls if not isinstance(i, str)]
        if bad:
            raise TypeError(
                f"kernel {self.name!r}: waive_impls must be implementation "
                f"value strings, got {bad!r}"
            )
        if self.fusion_kind not in FUSION_KINDS:
            raise ValueError(
                f"kernel {self.name!r}: fusion_kind must be one of "
                f"{sorted(FUSION_KINDS)}, got {self.fusion_kind!r}"
            )
        if self.megabatch and not self.interval_batched:
            raise ValueError(
                f"kernel {self.name!r}: megabatch=True requires "
                f"interval_batched (stacked entries walk each member's intervals)"
            )
        object.__setattr__(self, "_by_name", by_name)

    # -- introspection -------------------------------------------------------

    def arg_names(self) -> List[str]:
        return [a.name for a in self.args]

    def arg(self, name: str) -> ArgSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"kernel {self.name!r} has no argument {name!r}; "
                f"arguments: {self.arg_names()}"
            ) from None

    def has_arg(self, name: str) -> bool:
        return name in self._by_name

    def array_args(self) -> List[ArgSpec]:
        return [a for a in self.args if a.is_array]

    def stacked_names(self) -> List[str]:
        """Arguments a megabatch call passes once per member."""
        return [a.name for a in self.args if a.batch == "stack"]

    def input_names(self) -> List[str]:
        """Arguments read by the kernel (``IN`` and ``INOUT``)."""
        return [a.name for a in self.args if a.intent.reads]

    def output_names(self) -> List[str]:
        """Arguments written by the kernel (``OUT`` and ``INOUT``)."""
        return [a.name for a in self.args if a.intent.writes]

    # -- liveness / fusibility queries (pipeline compiler) -------------------

    @property
    def fusible(self) -> bool:
        """Whether this kernel may join a fused launch group."""
        return self.fusion_kind in _FUSIBLE_KINDS

    # -- implementation validation ------------------------------------------

    def validate_impl(self, fn: Any, impl: str = "?") -> None:
        """Check ``fn``'s signature against this spec; raise on mismatch.

        Every implementation must take exactly the spec's arguments, in
        order, followed by ``accel=None, use_accel=False`` -- the shared
        calling convention that lets the four backends interchange.
        """
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError) as e:
            raise ValueError(
                f"kernel {self.name!r} [{impl}]: cannot inspect signature of "
                f"{fn!r}: {e}"
            ) from None
        params = list(sig.parameters.values())
        bad_kinds = [
            p.name
            for p in params
            if p.kind
            not in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.POSITIONAL_ONLY,
            )
        ]
        if bad_kinds:
            raise ValueError(
                f"kernel {self.name!r} [{impl}]: *args/**kwargs/keyword-only "
                f"parameters {bad_kinds} are not allowed; spell out the spec "
                f"arguments so dispatch can validate them"
            )
        expected = self.arg_names() + list(RESERVED_PARAMS)
        got = [p.name for p in params]
        if got != expected:
            raise ValueError(
                f"kernel {self.name!r} [{impl}]: signature {got} does not match "
                f"its KernelSpec {expected} (same names, same order, ending "
                f"with {RESERVED_PARAMS})"
            )
        for reserved in RESERVED_PARAMS:
            if sig.parameters[reserved].default is inspect.Parameter.empty:
                raise ValueError(
                    f"kernel {self.name!r} [{impl}]: parameter {reserved!r} "
                    f"must have a default (accel=None, use_accel=False)"
                )

    # -- call validation -----------------------------------------------------

    def bind_call(self, args: Sequence[Any], kwargs: Mapping[str, Any]) -> Dict[str, Any]:
        """Map a call's positional + keyword values onto spec arg names."""
        names = self.arg_names()
        if len(args) > len(names):
            raise TypeError(
                f"kernel {self.name!r}: got {len(args)} positional arguments, "
                f"spec declares {len(names)}"
            )
        merged: Dict[str, Any] = dict(zip(names, args))
        for key, value in kwargs.items():
            if key in RESERVED_PARAMS:
                continue
            if key not in self._by_name:
                raise TypeError(
                    f"kernel {self.name!r}: unexpected argument {key!r}; "
                    f"arguments: {names}"
                )
            if key in merged:
                raise TypeError(f"kernel {self.name!r}: duplicate argument {key!r}")
            merged[key] = value
        return merged

    def validate_call(
        self, args: Sequence[Any] = (), kwargs: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, int]:
        """Check dtypes/ranks/shape relations of one call against the spec.

        Returns the resolved symbolic dimension sizes (``n_det`` etc.).
        Raises ``TypeError`` for wrong kinds/dtypes and ``ValueError``
        for shape violations.  Arguments absent from the call (using the
        kernel's own defaults) are skipped.
        """
        merged = self.bind_call(args, kwargs or {})
        dims: Dict[str, int] = {}
        for a in self.args:
            if a.name not in merged:
                continue
            value = merged[a.name]
            if value is None:
                if a.optional or not a.is_array:
                    continue
                raise TypeError(
                    f"kernel {self.name!r}: argument {a.name!r} is required "
                    f"(got None)"
                )
            if not a.is_array:
                continue
            if not isinstance(value, np.ndarray):
                raise TypeError(
                    f"kernel {self.name!r}: argument {a.name!r} must be a "
                    f"numpy array, got {type(value).__name__}"
                )
            if a.dtype is not None and value.dtype != a.dtype:
                raise TypeError(
                    f"kernel {self.name!r}: argument {a.name!r} has dtype "
                    f"{value.dtype}, spec requires {a.dtype}"
                )
            if a.rank is not None and value.ndim != a.rank:
                raise ValueError(
                    f"kernel {self.name!r}: argument {a.name!r} has rank "
                    f"{value.ndim}, spec requires {a.rank} {a.shape or ''}"
                )
            if a.shape is not None:
                for axis, dim in enumerate(a.shape):
                    size = value.shape[axis]
                    if isinstance(dim, int):
                        if size != dim:
                            raise ValueError(
                                f"kernel {self.name!r}: argument {a.name!r} "
                                f"axis {axis} has size {size}, spec requires {dim}"
                            )
                    elif dim in dims:
                        if size != dims[dim]:
                            raise ValueError(
                                f"kernel {self.name!r}: argument {a.name!r} "
                                f"axis {axis} ({dim}) has size {size}, but "
                                f"{dim}={dims[dim]} elsewhere in this call"
                            )
                    else:
                        dims[dim] = size
        return dims

    # -- data-movement accounting -------------------------------------------

    def bytes_moved(
        self, args: Sequence[Any] = (), kwargs: Optional[Mapping[str, Any]] = None
    ) -> Tuple[int, int]:
        """(bytes read, bytes written) implied by one call's intents.

        Sums ``nbytes`` of array arguments by intent -- the per-kernel
        data-movement attribution the obs layer records.  INOUT counts
        on both sides.  A sequence of arrays (a megabatch call's
        ``"stack"`` argument) counts each member's array.
        """
        try:
            merged = self.bind_call(args, kwargs or {})
        except TypeError:
            return 0, 0
        read = written = 0
        for a in self.args:
            value = merged.get(a.name)
            values = value if isinstance(value, tuple) else (value,)
            nbytes = sum(v.nbytes for v in values if isinstance(v, np.ndarray))
            if a.intent.reads:
                read += nbytes
            if a.intent.writes:
                written += nbytes
        return read, written
