"""ExecutionPolicy scoping semantics: nested composition, explicit
replacement, exception safety, thread isolation, and the legacy setter
shims (which must warn *and* delegate to the engine)."""

import threading

import pytest

import repro.engine as engine
import repro.perf as perf
from repro.engine.policy import (
    POLICY_FIELDS,
    base_policy,
    current_policy,
    update_base_policy,
)
from repro.simd.registry import (
    fallback_enabled,
    fallback_policy,
    get_backend,
    set_fallback_policy,
)


class TestScopeNesting:
    def test_scope_overrides_and_restores(self):
        before = current_policy()
        with engine.scope(workers=3) as p:
            assert current_policy() is p
            assert p.workers == 3
        assert current_policy() == before

    def test_nested_scopes_compose(self):
        """An inner override starts from the *resolved* policy, so the
        outer scope's other fields survive."""
        with engine.scope(enabled=False, tile_min_sites=7):
            with engine.scope(workers=5) as inner:
                assert inner.enabled is False
                assert inner.tile_min_sites == 7
                assert inner.workers == 5
            assert current_policy().workers == base_policy().workers
            assert current_policy().enabled is False

    def test_explicit_policy_replaces_wholesale(self):
        custom = engine.ExecutionPolicy(workers=7, caches=False)
        with engine.scope(enabled=False):
            with engine.scope(custom):
                assert current_policy() is custom
                # Not inherited from the outer scope:
                assert current_policy().enabled is True
            assert current_policy().enabled is False

    def test_explicit_policy_plus_overrides(self):
        custom = engine.ExecutionPolicy(workers=7)
        with engine.scope(custom, workers=2) as p:
            assert p.workers == 2
            assert p == custom.replace(workers=2)

    def test_scope_restores_on_exception(self):
        before = current_policy()
        with pytest.raises(RuntimeError):
            with engine.scope(enabled=False):
                raise RuntimeError("boom")
        assert current_policy() == before

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            with engine.scope(warp_drive=True):
                pass  # pragma: no cover

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            engine.ExecutionPolicy(workers=0)
        with pytest.raises(ValueError):
            engine.ExecutionPolicy(tile_min_sites=-1)
        with pytest.raises(TypeError):
            with engine.scope("not a policy"):
                pass  # pragma: no cover

    def test_policy_is_frozen_and_hashable(self):
        p = current_policy()
        with pytest.raises(Exception):
            p.workers = 5
        assert hash(p) == hash(p.replace())

    def test_effective_properties_gate_on_enabled(self):
        on = engine.ExecutionPolicy(enabled=True, transport="shmem",
                                    caches=True)
        off = on.replace(enabled=False)
        assert on.transport_active and on.caches_active
        assert not (off.transport_active or off.caches_active)


class TestThreadIsolation:
    def test_fresh_thread_sees_base_policy(self):
        seen = {}

        def worker():
            seen["policy"] = current_policy()

        with engine.scope(enabled=False, workers=9):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["policy"] == base_policy()

    def test_scopes_do_not_leak_between_threads(self):
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def worker(name, workers):
            with engine.scope(workers=workers):
                barrier.wait()  # both scopes active simultaneously
                seen[name] = current_policy().workers
                barrier.wait()

        ts = [threading.Thread(target=worker, args=(f"t{i}", i + 2))
              for i in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert seen == {"t0": 2, "t1": 3}

    def test_base_policy_update_visible_across_threads(self):
        previous = update_base_policy(tile_min_sites=33)
        try:
            seen = {}

            def worker():
                seen["tms"] = current_policy().tile_min_sites

            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert seen["tms"] == 33
        finally:
            engine.set_base_policy(previous)


class TestDeprecationShims:
    def test_perf_set_enabled_warns_and_delegates(self):
        with pytest.warns(DeprecationWarning, match="engine.scope"):
            perf.set_enabled(False)
        try:
            assert base_policy().enabled is False
            assert perf.config().enabled is False
        finally:
            update_base_policy(enabled=True)

    def test_perf_set_workers_warns_and_delegates(self):
        previous = base_policy()
        with pytest.warns(DeprecationWarning):
            perf.set_workers(4)
        try:
            assert base_policy().workers == 4
        finally:
            engine.set_base_policy(previous)
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError):
                perf.set_workers(0)

    def test_set_fallback_policy_warns_and_delegates(self):
        with pytest.warns(DeprecationWarning):
            set_fallback_policy(True)
        try:
            assert base_policy().fallback is True
            assert fallback_enabled() is True
        finally:
            update_base_policy(fallback=False)

    def test_fallback_policy_context_is_scoped(self):
        assert fallback_enabled() is False
        with fallback_policy(True):
            assert fallback_enabled() is True
            assert current_policy().fallback is True
        assert fallback_enabled() is False
        assert base_policy().fallback is False


class TestPerfFacade:
    def test_config_snapshots_current_policy(self):
        cfg = perf.config()
        pol = current_policy()
        assert (cfg.enabled, cfg.workers, cfg.tile_min_sites) == \
            (pol.enabled, pol.workers, pol.tile_min_sites)

    def test_configured_is_a_scope(self):
        with perf.configured(enabled=True, workers=6) as cfg:
            assert cfg.workers == 6
            assert current_policy().workers == 6
        assert current_policy().workers == base_policy().workers

    def test_disabled_turns_the_engine_off(self):
        with perf.disabled():
            pol = current_policy()
            assert pol.enabled is False
            assert pol.workers == 1
            assert not pol.caches_active

    def test_configured_nests_with_engine_scope(self):
        with engine.scope(tile_min_sites=5):
            with perf.configured(workers=3):
                assert current_policy().tile_min_sites == 5
                assert current_policy().workers == 3

    def test_default_backend_follows_policy(self):
        with engine.scope(backend="generic128"):
            assert get_backend().name == get_backend("generic128").name

    def test_policy_fields_cover_legacy_toggles(self):
        for name in ("enabled", "workers", "tile_min_sites",
                     "fallback", "caches", "backend", "comms_faults"):
            assert name in POLICY_FIELDS
