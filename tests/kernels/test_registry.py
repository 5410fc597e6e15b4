"""Kernel-pair registry: backend selection, dispatch, counters."""

import pytest

from repro import kernels
from repro.kernels import registry


class TestBackendSelection:
    def test_default_is_fast(self):
        assert kernels.get_backend() == "fast"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend("turbo"):
                pass
        assert kernels.get_backend() == "fast"

    def test_use_backend_scopes_and_restores(self):
        with kernels.use_backend("reference"):
            assert kernels.get_backend() == "reference"
            with kernels.use_backend("fast"):
                assert kernels.get_backend() == "fast"
            assert kernels.get_backend() == "reference"
        assert kernels.get_backend() == "fast"

    def test_use_backend_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.get_backend() == "fast"


class TestRegistry:
    def test_all_pairs_registered(self):
        assert kernels.kernel_names() == ("bfp.matmul", "bfp.quantize")

    def test_pair_resolves_both_sides(self):
        pair = kernels.get_kernel("bfp.matmul")
        assert pair.implementation("reference") is pair.reference
        assert pair.implementation("fast") is pair.fast
        assert pair.reference is not pair.fast

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            kernels.get_kernel("no.such.kernel")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            kernels.register_kernel(
                "bfp.matmul", lambda: None, lambda: None
            )


class TestDispatch:
    def test_dispatch_uses_ambient_backend(self):
        with kernels.use_backend("reference"):
            impl = kernels.dispatch("bfp.matmul")
        assert impl is kernels.get_kernel("bfp.matmul").reference
        assert kernels.dispatch("bfp.matmul") is (
            kernels.get_kernel("bfp.matmul").fast
        )

    def test_dispatches_are_counted_per_backend(self):
        kernels.reset_dispatch_counts()
        kernels.dispatch("bfp.quantize")
        kernels.dispatch("bfp.quantize")
        with kernels.use_backend("reference"):
            kernels.dispatch("bfp.quantize")
        counts = kernels.dispatch_counts()
        assert counts["bfp.quantize"] == {"fast": 2, "reference": 1}
        kernels.reset_dispatch_counts()
        assert kernels.dispatch_counts() == {}


class TestRegistryModule:
    def test_backends_tuple_is_contract_order(self):
        assert registry.BACKENDS == ("reference", "fast")
