"""KernelSpec contracts: declaration, registration validation, and the
layers derived from specs (dispatch fallback policy, BoundKernel call
checking, operator data traits, microbench coverage enforcement)."""

import numpy as np
import pytest

from repro.core.dispatch import (
    BoundKernel,
    ImplementationType,
    KernelRegistry,
    fallback_chain,
    kernel_call_validation_active,
    kernel_registry,
    validate_kernel_calls,
)
from repro.core.operator import Operator
from repro.kernels import ArgRole, ArgSpec, Intent, KernelSpec
from repro.obs import Tracer

NUMPY = ImplementationType.NUMPY
JAX = ImplementationType.JAX


def simple_spec(name="k", **kw):
    args = kw.pop(
        "args", (ArgSpec("x", intent=Intent.INOUT, role=ArgRole.DETDATA),)
    )
    return KernelSpec(name=name, args=args, interval_batched=False, **kw)


class TestArgSpecDeclaration:
    def test_reserved_name_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            ArgSpec("accel")

    def test_non_identifier_name_rejected(self):
        with pytest.raises(ValueError, match="identifier"):
            ArgSpec("not a name")

    def test_non_intent_rejected(self):
        with pytest.raises(TypeError, match="Intent"):
            ArgSpec("x", intent="inout")

    def test_written_scalar_rejected(self):
        # A scalar cannot be written in place; OUT/INOUT need array roles.
        with pytest.raises(ValueError, match="array role"):
            ArgSpec("x", intent=Intent.OUT, role=ArgRole.SCALAR)

    def test_dtype_on_scalar_rejected(self):
        with pytest.raises(ValueError, match="not an array role"):
            ArgSpec("x", role=ArgRole.SCALAR, dtype=np.float64)

    def test_rank_shape_disagreement_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            ArgSpec("x", role=ArgRole.DETDATA, shape=("n_det",), rank=2)

    def test_rank_defaults_to_shape_length(self):
        a = ArgSpec("x", role=ArgRole.DETDATA, shape=("n_det", "n_samp"))
        assert a.rank == 2

    def test_bad_shape_entry_rejected(self):
        with pytest.raises(TypeError, match="shape"):
            ArgSpec("x", role=ArgRole.DETDATA, shape=(1.5,))

    def test_bogus_dtype_fails_at_declaration(self):
        with pytest.raises(TypeError):
            ArgSpec("x", role=ArgRole.DETDATA, dtype="not-a-dtype")


class TestKernelSpecDeclaration:
    def test_duplicate_argument_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            KernelSpec("k", args=(ArgSpec("x"), ArgSpec("x")), interval_batched=False)

    def test_interval_batched_requires_starts_stops(self):
        with pytest.raises(ValueError, match="interval_batched"):
            KernelSpec("k", args=(ArgSpec("x"),), interval_batched=True)

    def test_args_must_be_a_tuple_of_argspecs(self):
        with pytest.raises(TypeError):
            KernelSpec("k", args=[ArgSpec("x")], interval_batched=False)
        with pytest.raises(TypeError):
            KernelSpec("k", args=("x",), interval_batched=False)

    def test_intent_accessors(self):
        spec = KernelSpec(
            "k",
            args=(
                ArgSpec("a", intent=Intent.IN, role=ArgRole.DETDATA),
                ArgSpec("b", intent=Intent.OUT, role=ArgRole.DETDATA),
                ArgSpec("c", intent=Intent.INOUT, role=ArgRole.GLOBAL),
                ArgSpec("s", intent=Intent.IN, role=ArgRole.SCALAR),
            ),
            interval_batched=False,
        )
        assert spec.input_names() == ["a", "c", "s"]
        assert spec.output_names() == ["b", "c"]
        assert [a.name for a in spec.array_args()] == ["a", "b", "c"]
        with pytest.raises(KeyError, match="no argument"):
            spec.arg("missing")


class TestImplValidation:
    SPEC = KernelSpec(
        "vk", args=(ArgSpec("x"), ArgSpec("y")), interval_batched=False
    )

    def test_matching_signature_passes(self):
        self.SPEC.validate_impl(lambda x, y, accel=None, use_accel=False: None)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            self.SPEC.validate_impl(lambda x, accel=None, use_accel=False: None)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            self.SPEC.validate_impl(lambda y, x, accel=None, use_accel=False: None)

    def test_missing_reserved_params_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            self.SPEC.validate_impl(lambda x, y: None)

    def test_var_args_rejected(self):
        with pytest.raises(ValueError, match="not allowed"):
            self.SPEC.validate_impl(lambda x, y, **kw: None)

    def test_reserved_params_need_defaults(self):
        with pytest.raises(ValueError, match="default"):
            self.SPEC.validate_impl(lambda x, y, accel, use_accel=False: None)


class TestRegistrySpecEnforcement:
    def test_impl_without_spec_rejected(self):
        reg = KernelRegistry()
        with pytest.raises(ValueError, match="KernelSpec"):
            reg.register("k", NUMPY, lambda x, accel=None, use_accel=False: None)

    def test_mismatched_impl_rejected_at_registration(self):
        reg = KernelRegistry()
        reg.register_spec(simple_spec())
        with pytest.raises(ValueError, match="does not match"):
            reg.register("k", NUMPY, lambda wrong, accel=None, use_accel=False: None)

    def test_duplicate_spec_rejected(self):
        reg = KernelRegistry()
        reg.register_spec(simple_spec())
        with pytest.raises(ValueError, match="already has a KernelSpec"):
            reg.register_spec(simple_spec())

    def test_spec_after_implementations_rejected(self):
        reg = KernelRegistry(require_specs=False)
        reg.register("k", NUMPY, lambda x, accel=None, use_accel=False: None)
        with pytest.raises(ValueError, match="before any implementation"):
            reg.register_spec(simple_spec())

    def test_non_spec_object_rejected(self):
        reg = KernelRegistry()
        with pytest.raises(TypeError, match="KernelSpec"):
            reg.register_spec(object())


class TestFallbackEligibility:
    def _registry(self):
        reg = KernelRegistry()
        reg.register_spec(simple_spec("pinned", fallback_eligible=False))
        reg.register_spec(simple_spec("free"))
        for name in ("pinned", "free"):
            reg.register(name, NUMPY, lambda x, accel=None, use_accel=False: None)
            reg.register(name, JAX, lambda x, accel=None, use_accel=False: None)
        return reg

    def test_chain_stops_at_requested(self):
        reg = self._registry()
        assert fallback_chain("pinned", JAX, registry=reg) == [JAX]
        assert fallback_chain("free", JAX, registry=reg) == [JAX, NUMPY]

    def test_resolve_refuses_substitution(self):
        reg = self._registry()
        with pytest.raises(KeyError, match="omp_target"):
            reg.resolve("pinned", ImplementationType.OMP_TARGET)
        fn, resolved = reg.resolve("free", ImplementationType.OMP_TARGET)
        assert resolved is NUMPY


TYPED_SPEC = KernelSpec(
    "typed",
    args=(
        ArgSpec(
            "tod",
            intent=Intent.INOUT,
            role=ArgRole.DETDATA,
            dtype=np.float64,
            shape=("n_det", "n_samp"),
        ),
        ArgSpec(
            "weights",
            intent=Intent.IN,
            role=ArgRole.DETDATA,
            dtype=np.float64,
            shape=("n_det", "n_samp", 3),
        ),
        ArgSpec("cal", intent=Intent.IN, role=ArgRole.SCALAR),
        ArgSpec(
            "flags",
            intent=Intent.IN,
            role=ArgRole.SHARED,
            dtype=np.uint8,
            shape=("n_samp",),
            optional=True,
        ),
    ),
    interval_batched=False,
)


def typed_args(n_det=2, n_samp=5):
    return dict(
        tod=np.zeros((n_det, n_samp)),
        weights=np.zeros((n_det, n_samp, 3)),
        cal=1.0,
        flags=np.zeros(n_samp, dtype=np.uint8),
    )


class TestCallValidation:
    def test_valid_call_resolves_dims(self):
        dims = TYPED_SPEC.validate_call((), typed_args(n_det=4, n_samp=7))
        assert dims == {"n_det": 4, "n_samp": 7}

    def test_wrong_dtype_raises_type_error(self):
        args = typed_args()
        args["tod"] = args["tod"].astype(np.float32)
        with pytest.raises(TypeError, match="dtype"):
            TYPED_SPEC.validate_call((), args)

    def test_wrong_rank_raises_value_error(self):
        args = typed_args()
        args["weights"] = np.zeros((2, 5))
        with pytest.raises(ValueError, match="rank"):
            TYPED_SPEC.validate_call((), args)

    def test_fixed_dim_enforced(self):
        args = typed_args()
        args["weights"] = np.zeros((2, 5, 4))
        with pytest.raises(ValueError, match="axis 2"):
            TYPED_SPEC.validate_call((), args)

    def test_inconsistent_symbolic_dims_raise(self):
        args = typed_args()
        args["flags"] = np.zeros(99, dtype=np.uint8)
        with pytest.raises(ValueError, match="n_samp"):
            TYPED_SPEC.validate_call((), args)

    def test_required_array_cannot_be_none(self):
        args = typed_args()
        args["tod"] = None
        with pytest.raises(TypeError, match="required"):
            TYPED_SPEC.validate_call((), args)

    def test_optional_array_may_be_none(self):
        args = typed_args()
        args["flags"] = None
        TYPED_SPEC.validate_call((), args)

    def test_unknown_argument_rejected(self):
        args = typed_args()
        args["bogus"] = 1
        with pytest.raises(TypeError, match="unexpected"):
            TYPED_SPEC.validate_call((), args)

    def test_positional_and_keyword_merge(self):
        args = typed_args()
        dims = TYPED_SPEC.validate_call(
            (args["tod"],), {k: v for k, v in args.items() if k != "tod"}
        )
        assert dims["n_det"] == 2
        with pytest.raises(TypeError, match="duplicate"):
            TYPED_SPEC.validate_call((args["tod"],), args)


class TestBoundKernel:
    def _bound(self, tracer=None):
        calls = []
        fn = lambda **kw: calls.append(kw)  # noqa: E731
        return BoundKernel("typed", TYPED_SPEC, fn, NUMPY, tracer=tracer), calls

    def test_validation_off_by_default(self):
        bound, calls = self._bound()
        assert not kernel_call_validation_active()
        args = typed_args()
        args["tod"] = args["tod"].astype(np.float32)  # would fail validation
        bound(**args)
        assert len(calls) == 1

    def test_validation_toggle_catches_bad_calls(self):
        bound, calls = self._bound()
        args = typed_args()
        args["tod"] = args["tod"].astype(np.float32)
        with validate_kernel_calls():
            assert kernel_call_validation_active()
            with pytest.raises(TypeError, match="dtype"):
                bound(**args)
            bound(**typed_args())  # a conforming call still goes through
        assert not kernel_call_validation_active()
        assert len(calls) == 1

    def test_bytes_moved_counts_by_intent(self):
        args = typed_args(n_det=2, n_samp=5)
        read, written = TYPED_SPEC.bytes_moved((), args)
        tod, weights, flags = args["tod"], args["weights"], args["flags"]
        assert read == tod.nbytes + weights.nbytes + flags.nbytes
        assert written == tod.nbytes  # only the INOUT arg is written

    def test_tracer_records_bytes_counters(self):
        tracer = Tracer()
        bound, _ = self._bound(tracer=tracer)
        args = typed_args()
        bound(**args)
        read = tracer.metrics.counters["kernel.typed.bytes_read"].value
        written = tracer.metrics.counters["kernel.typed.bytes_written"].value
        assert read == args["tod"].nbytes + args["weights"].nbytes + args["flags"].nbytes
        assert written == args["tod"].nbytes

    def test_raw_impl_reachable(self):
        bound, _ = self._bound()
        assert bound.__wrapped__ is bound.fn


class _ScanLike(Operator):
    """Toy operator binding the real ``scan_map`` spec."""

    def kernel_bindings(self):
        return {
            "scan_map": {
                "map_data": "sky",
                "pixels": "pix",
                "weights": "w",
                "tod": "signal",
            }
        }


class TestOperatorDerivedTraits:
    def test_requires_provides_from_intents(self):
        op = _ScanLike()
        assert op.requires() == {
            "shared": [],
            "detdata": ["pix", "w", "signal"],
            "meta": ["sky"],
        }
        assert op.provides() == {"shared": [], "detdata": ["signal"], "meta": []}

    def test_supports_accel_derived_from_registry(self):
        assert _ScanLike().supports_accel()

    def test_unknown_kernel_binding_fails_loudly(self):
        class Bad(Operator):
            def kernel_bindings(self):
                return {"no_such_kernel": {"x": "y"}}

        with pytest.raises(KeyError, match="no KernelSpec"):
            Bad().requires()

    def test_non_bindable_role_fails_loudly(self):
        class Bad(Operator):
            def kernel_bindings(self):
                return {"scan_map": {"data_scale": "x"}}

        with pytest.raises(ValueError, match="data_scale"):
            Bad().requires()

    def test_operator_without_bindings_has_empty_traits(self):
        op = Operator()
        assert op.requires() == {"shared": [], "detdata": [], "meta": []}
        assert not op.supports_accel()


class TestMicrobenchCoverage:
    def test_registered_kernel_without_builder_fails(self):
        from repro.workflows.microbench import kernel_cases

        reg = KernelRegistry()
        reg.register_spec(simple_spec("kernel_without_builder"))
        reg.register(
            "kernel_without_builder",
            NUMPY,
            lambda x, accel=None, use_accel=False: None,
        )
        with pytest.raises(RuntimeError, match="kernel_without_builder"):
            kernel_cases(registry=reg)

    def test_stale_builders_fail(self):
        from repro.workflows.microbench import kernel_cases

        # An empty registry leaves every builder stale.
        with pytest.raises(RuntimeError, match="unregistered"):
            kernel_cases(registry=KernelRegistry())

    def test_real_registry_is_fully_covered(self):
        from repro.workflows.microbench import kernel_cases

        cases = kernel_cases()
        expected = {
            name
            for name in kernel_registry.kernels()
            if kernel_registry.spec(name).parity
        }
        assert set(cases) == expected
