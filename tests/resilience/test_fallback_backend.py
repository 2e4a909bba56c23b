"""Graceful backend degradation: the ResilientBackend proxy and the
registry fallback policy."""

import numpy as np
import pytest

import repro.engine as engine
from repro.simd import (
    BackendDegradedWarning,
    ResilientBackend,
    fallback_enabled,
    fallback_policy,
    get_backend,
)
from repro.simd.generic import GenericBackend


class Crashy(GenericBackend):
    """Raises in ``mul`` on a scheduled call, healthy otherwise."""

    def __init__(self, width_bits=256, fail_on_call=1):
        super().__init__(width_bits)
        self.name = f"crashy{width_bits}"
        self.fail_on_call = fail_on_call
        self.calls = 0

    def mul(self, x, y):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise RuntimeError("boom")
        return super().mul(x, y)


def operands(be, seed=0):
    rng = np.random.default_rng(seed)
    cl = be.clanes()
    x = rng.normal(size=(2, cl)) + 1j * rng.normal(size=(2, cl))
    y = rng.normal(size=(2, cl)) + 1j * rng.normal(size=(2, cl))
    return x, y


class TestResilientBackend:
    def test_healthy_pass_through_bit_identical(self):
        primary = GenericBackend(256)
        rb = ResilientBackend(primary)
        x, y = operands(rb)
        assert np.array_equal(rb.mul(x, y), primary.mul(x, y))
        assert np.array_equal(rb.madd(x, y, x), primary.madd(x, y, x))
        assert not rb.degraded
        assert rb.events == []

    def test_degrades_on_first_failure(self):
        rb = ResilientBackend(Crashy(fail_on_call=1))
        x, y = operands(rb)
        with pytest.warns(BackendDegradedWarning, match="degrading"):
            got = rb.mul(x, y)
        assert rb.degraded
        np.testing.assert_allclose(got, x * y)
        assert len(rb.events) == 1
        assert rb.events[0].op == "mul"
        assert "boom" in rb.events[0].error

    def test_degradation_is_sticky(self):
        primary = Crashy(fail_on_call=1)
        rb = ResilientBackend(primary)
        x, y = operands(rb)
        with pytest.warns(BackendDegradedWarning):
            rb.mul(x, y)
        before = primary.calls
        rb.mul(x, y)                 # must NOT touch the primary again
        rb.add(x, y)
        assert primary.calls == before
        assert len(rb.events) == 1   # one degradation, not one per op

    def test_lane_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lane count"):
            ResilientBackend(GenericBackend(256),
                             fallback=GenericBackend(512))

    def test_full_op_surface_dispatches(self):
        rb = ResilientBackend(GenericBackend(256))
        x, y = operands(rb)
        np.testing.assert_allclose(rb.conj_mul(x, y), np.conj(x) * y)
        np.testing.assert_allclose(rb.times_i(x), 1j * x)
        np.testing.assert_allclose(rb.neg(x), -x)
        assert np.all(np.isfinite(rb.reduce_sum(x)))


class TestRegistryFallbackPolicy:
    def test_policy_defaults_off(self):
        assert not fallback_enabled()
        be = get_backend("sve512-real")
        assert not isinstance(be, ResilientBackend)

    def test_policy_wraps_non_generic(self):
        with engine.scope(fallback=True):
            be = get_backend("sve512-real")
        assert isinstance(be, ResilientBackend)
        assert be.width_bits == 512

    def test_generic_never_wrapped(self):
        with engine.scope(fallback=True):
            be = get_backend("generic256")
        assert not isinstance(be, ResilientBackend)

    def test_explicit_override_beats_policy(self):
        assert isinstance(get_backend("sve256-real", resilient=True),
                          ResilientBackend)
        with engine.scope(fallback=True):
            assert not isinstance(
                get_backend("sve256-real", resilient=False),
                ResilientBackend)

    def test_context_manager_restores(self):
        with fallback_policy(True):
            assert fallback_enabled()
        assert not fallback_enabled()

    def test_wrapped_backend_matches_unwrapped(self):
        plain = get_backend("sve512-real")
        wrapped = get_backend("sve512-real", resilient=True)
        x, y = operands(plain)
        assert np.array_equal(wrapped.mul(x, y), plain.mul(x, y))
