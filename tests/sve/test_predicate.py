"""Predicate-semantics tests, including hypothesis properties for the
VLA loop-control chain (whilelo -> brkn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sve import predicate as p


class TestPtrue:
    def test_all(self):
        assert p.ptrue(8).all()

    def test_pow2(self):
        out = p.ptrue(12, "pow2")
        assert out[:8].all() and not out[8:].any()

    @pytest.mark.parametrize("pattern,count", [
        ("vl1", 1), ("vl2", 2), ("vl4", 4), ("vl8", 8),
    ])
    def test_fixed_patterns(self, pattern, count):
        out = p.ptrue(16, pattern)
        assert out[:count].all() and not out[count:].any()

    def test_fixed_pattern_too_large_gives_empty(self):
        # Architected: if the pattern exceeds VL, no elements.
        assert not p.ptrue(4, "vl8").any()

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            p.ptrue(8, "vl9")

    def test_pfalse(self):
        assert not p.pfalse(8).any()


class TestWhile:
    @given(lanes=st.sampled_from([2, 4, 8, 16, 32]),
           base=st.integers(0, 100), limit=st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_whilelo_property(self, lanes, base, limit):
        out = p.whilelo(lanes, base, limit)
        for i in range(lanes):
            assert out[i] == (base + i < limit)

    def test_whilelo_unsigned_wrap(self):
        # base near 2^64: unsigned comparison, not signed.
        big = (1 << 64) - 2
        out = p.whilelo(4, big, (1 << 64) - 1)
        assert out[0] and not out[1:].any()

    def test_whilelt_signed(self):
        # base = -2 signed: all four lanes < 2.
        out = p.whilelt(4, (1 << 64) - 2, 2)
        assert out.all()
        # Same bits unsigned: none active.
        assert not p.whilelo(4, (1 << 64) - 2, 2).any()

    def test_empty_predicate(self):
        assert not p.whilelo(8, 10, 10).any()


def _near(*centres):
    """Operands within 300 of the given points, as raw register values:
    anything from below zero to above 2^64 (the functions mask them)."""
    return st.sampled_from(centres).flatmap(
        lambda c: st.integers(c - 300, c + 300))


_EDGES = _near(0, 1 << 63, 1 << 64)


class TestWhileClosedForm:
    """The count-based ``whilelo``/``whilelt`` against the ISA's per-lane
    definition, written out here as the reference: lane *i* is active
    iff ``base + i < limit`` on the 64-bit operands (unsigned for LO,
    signed for LT), with no wrap of ``base + i``."""

    @staticmethod
    def _u64(v):
        return v & ((1 << 64) - 1)

    @classmethod
    def _s64(cls, v):
        v = cls._u64(v)
        return v - (1 << 64) if v >= (1 << 63) else v

    @given(lanes=st.integers(1, 256), base=_EDGES, limit=_EDGES)
    @settings(max_examples=400, deadline=None)
    def test_whilelo_matches_per_lane_definition(self, lanes, base, limit):
        b, lim = self._u64(base), self._u64(limit)
        want = np.array([b + i < lim for i in range(lanes)], dtype=bool)
        got = p.whilelo(lanes, base, limit)
        assert got.dtype == bool and np.array_equal(got, want)

    @given(lanes=st.integers(1, 256), base=_EDGES, limit=_EDGES)
    @settings(max_examples=400, deadline=None)
    def test_whilelt_matches_per_lane_definition(self, lanes, base, limit):
        b, lim = self._s64(base), self._s64(limit)
        want = np.array([b + i < lim for i in range(lanes)], dtype=bool)
        got = p.whilelt(lanes, base, limit)
        assert got.dtype == bool and np.array_equal(got, want)


class TestBrkn:
    def test_full_vector_passes_through(self):
        g = p.ptrue(8)
        pn = p.ptrue(8)           # last iteration was a full vector
        pdm = p.whilelo(8, 8, 12)  # next-iteration predicate
        out = p.brkn(g, pn, pdm)
        assert np.array_equal(out, pdm)

    def test_partial_vector_collapses(self):
        g = p.ptrue(8)
        pn = p.whilelo(8, 8, 12)   # partial: last element inactive
        pdm = p.ptrue(8)
        assert not p.brkn(g, pn, pdm).any()

    def test_empty_governing(self):
        out = p.brkn(p.pfalse(8), p.ptrue(8), p.ptrue(8))
        assert not out.any()

    @given(n=st.integers(1, 64), lanes=st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=100, deadline=None)
    def test_vla_loop_chain_terminates_exactly(self, n, lanes):
        """The whilelo/brkn chain of the Section IV-A loop processes
        exactly ceil(n/lanes) iterations and covers every element once."""
        g = p.ptrue(lanes)
        covered = np.zeros(n + lanes, dtype=int)
        pred = p.whilelo(lanes, 0, n)
        i = 0
        iters = 0
        while pred.any() if iters == 0 else first_active:
            covered[i : i + lanes] += pred
            i += lanes
            nxt = p.whilelo(lanes, i, n)
            pred_next = p.brkn(g, pred, nxt)
            first_active = bool(pred_next[0])
            pred = pred_next
            iters += 1
            if iters > n + 2:
                raise AssertionError("loop failed to terminate")
        assert iters == -(-n // lanes)
        assert np.all(covered[:n] == 1)
        assert np.all(covered[n:] == 0)


class TestBrkAB:
    def test_brka_includes_break_element(self):
        g = p.ptrue(8)
        pn = np.zeros(8, dtype=bool)
        pn[3] = True
        out = p.brka(g, pn)
        assert out[:4].all() and not out[4:].any()

    def test_brkb_excludes_break_element(self):
        g = p.ptrue(8)
        pn = np.zeros(8, dtype=bool)
        pn[3] = True
        out = p.brkb(g, pn)
        assert out[:3].all() and not out[3:].any()

    def test_no_break_all_active(self):
        g = p.ptrue(8)
        assert p.brka(g, p.pfalse(8)).all()
        assert p.brkb(g, p.pfalse(8)).all()

    def test_merging_preserves_inactive(self):
        g = np.array([True, False, True, False])
        pn = p.pfalse(4)
        old = np.array([False, True, False, True])
        out = p.brka(g, pn, merging=True, pd_old=old)
        assert out[1] and out[3]


class TestIterators:
    def test_pnext_walks_all_elements(self):
        g = p.ptrue(4)
        pdn = p.pfalse(4)
        seen = []
        for _ in range(4):
            pdn = p.pnext(g, pdn)
            seen.append(int(np.nonzero(pdn)[0][0]))
        assert seen == [0, 1, 2, 3]
        assert not p.pnext(g, pdn).any()  # exhausted

    def test_pnext_respects_governing(self):
        g = np.array([False, True, False, True])
        pdn = p.pfalse(4)
        pdn = p.pnext(g, pdn)
        assert np.nonzero(pdn)[0][0] == 1

    def test_pfirst(self):
        g = np.array([False, True, True, False])
        out = p.pfirst(g, p.pfalse(4))
        assert out[1] and out.sum() == 1

    def test_cntp(self):
        g = p.ptrue(8)
        pn = p.whilelo(8, 0, 5)
        assert p.cntp(g, pn) == 5
        assert p.cntp(pn, g) == 5
        assert p.cntp(p.pfalse(8), pn) == 0
