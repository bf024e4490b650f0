"""Operator base class with data-traits (paper §3.2.2).

"Each operator includes information regarding GPU support and a list of
input and output data it handles.  This information allows us to implement
data movement logic within our pipelines."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .data import Data

__all__ = ["Operator"]

#: KernelSpec arg roles -> observation data categories.  GLOBAL args are
#: cross-observation products the operator stages itself (pipeline
#: ``meta``); other roles (focalplane, intervals, scalar, derived) never
#: bind observation keys.
_ROLE_CATEGORY = {"detdata": "detdata", "shared": "shared", "global": "meta"}


def _empty_traits() -> Dict[str, List[str]]:
    return {"shared": [], "detdata": [], "meta": []}


class Operator:
    """A modular data-processing step.

    Subclasses implement :meth:`exec` (per-observation work through the
    kernel dispatch) and optionally :meth:`finalize` (cross-observation
    reductions).  The trait methods drive the pipeline's hybrid data
    movement:

    * :meth:`requires` -- shared/detdata keys read by the operator;
    * :meth:`provides` -- keys written (created if missing);
    * :meth:`supports_accel` -- whether an accelerated kernel exists.

    Operators that call dispatched kernels declare
    :meth:`kernel_bindings` instead of hand-maintaining those traits:
    the bindings map each kernel argument to the observation key the
    operator feeds it, and requires/provides/supports_accel derive from
    the kernels' :class:`~repro.kernels.spec.KernelSpec` intents.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name if name is not None else type(self).__name__

    # -- data traits --------------------------------------------------------

    def kernel_bindings(self) -> Dict[str, Dict[str, Optional[str]]]:
        """Kernel-argument -> observation-key bindings, per kernel name.

        ``{"scan_map": {"map_data": "sky_map", "pixels": "pixels", ...}}``
        binds spec args to the keys this operator feeds them.  Only
        ``detdata``/``shared``/``global``-role args may carry keys; args
        the operator computes internally are simply omitted (or bound to
        ``None``, e.g. an optional flags argument that is configured
        off).  Binding insertion order is preserved into the derived
        traits, so it determines device staging order.
        """
        return {}

    def kernels(self) -> List[str]:
        """The dispatched kernel names this operator calls."""
        return sorted(self.kernel_bindings())

    def _spec_traits(self) -> Optional[Tuple[Dict[str, List[str]], Dict[str, List[str]]]]:
        """(requires, provides) derived from kernel bindings, or None.

        Fails loudly on a binding to an unknown kernel, an unknown spec
        argument, or a non-bindable argument role.
        """
        bindings = self.kernel_bindings()
        if not bindings:
            return None
        from .dispatch import kernel_registry

        if not kernel_registry.kernels():
            from .. import kernels as _kernels  # noqa: F401
        req = _empty_traits()
        prov = _empty_traits()
        for kname in sorted(bindings):
            spec = kernel_registry.spec(kname)
            if spec is None:
                raise KeyError(
                    f"operator {self.name!r} binds kernel {kname!r}, which has "
                    f"no KernelSpec in the registry"
                )
            for arg_name, key in bindings[kname].items():
                arg = spec.arg(arg_name)
                if key is None:
                    continue
                category = _ROLE_CATEGORY.get(arg.role.value)
                if category is None:
                    raise ValueError(
                        f"operator {self.name!r}: kernel {kname!r} argument "
                        f"{arg_name!r} has role {arg.role.value!r}; only "
                        f"detdata/shared/global arguments can bind data keys"
                    )
                if arg.intent.reads and key not in req[category]:
                    req[category].append(key)
                if arg.intent.writes and key not in prov[category]:
                    prov[category].append(key)
        return req, prov

    def requires(self) -> Dict[str, List[str]]:
        """Keys read: ``{"shared": [...], "detdata": [...], "meta": [...]}``."""
        traits = self._spec_traits()
        return traits[0] if traits is not None else _empty_traits()

    def provides(self) -> Dict[str, List[str]]:
        """Keys written or created."""
        traits = self._spec_traits()
        return traits[1] if traits is not None else _empty_traits()

    def supports_accel(self) -> bool:
        """Whether this operator has a GPU-capable kernel.

        Derived from the registry: true when every bound kernel has at
        least one accelerated implementation registered.
        """
        bindings = self.kernel_bindings()
        if not bindings:
            return False
        from .dispatch import ACCEL_IMPLEMENTATIONS, kernel_registry

        if not kernel_registry.kernels():
            from .. import kernels as _kernels  # noqa: F401
        return all(
            any(kernel_registry.has(kname, impl) for impl in ACCEL_IMPLEMENTATIONS)
            for kname in bindings
        )

    # -- execution ------------------------------------------------------------

    def ensure_outputs(self, data: Data) -> None:
        """Create host-side output arrays before execution.

        Called by pipelines ahead of :meth:`exec` so outputs can be mapped
        to the device together with the inputs.
        """

    def exec(self, data: Data, use_accel: bool = False, accel=None) -> None:
        raise NotImplementedError

    def finalize(self, data: Data) -> None:
        """Cross-observation post-processing (e.g. map reductions)."""

    def apply(self, data: Data, use_accel: bool = False, accel=None) -> None:
        """Convenience: ensure outputs, exec, finalize."""
        self.ensure_outputs(data)
        self.exec(data, use_accel=use_accel, accel=accel)
        self.finalize(data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
