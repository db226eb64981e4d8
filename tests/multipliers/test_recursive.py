"""Tests for the recursive multi-bit multiplier."""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.multipliers import recursive
from repro.multipliers.recursive import LEAF_POLICIES, RecursiveMultiplier


@pytest.fixture
def tables(monkeypatch):
    """An empty process-wide sub-product table cache for one test."""
    cache = OrderedDict()
    monkeypatch.setattr(recursive, "_TABLES", cache)
    return cache


def _table_widths(tables):
    return sorted(key[0] for key in tables)


class TestConstruction:
    @pytest.mark.parametrize("width", [3, 6, 0, 1])
    def test_non_power_of_two_rejected(self, width):
        with pytest.raises(ValueError, match="power of two"):
            RecursiveMultiplier(width)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            RecursiveMultiplier(4, leaf_policy="everything")

    def test_callable_policy_accepted(self):
        mul = RecursiveMultiplier(4, leaf_policy=lambda a, b, w: a == 0)
        assert mul.leaf_policy_name == "<lambda>"

    def test_name_mentions_configuration(self):
        mul = RecursiveMultiplier(8, leaf_mul="ApxMulSoA", leaf_policy="low_half")
        assert "ApxMulSoA" in mul.name and "low_half" in mul.name


class TestExactness:
    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_accurate_leaves_give_exact_products(self, width, rng):
        mul = RecursiveMultiplier(width, leaf_policy="none")
        hi = 1 << width
        a = rng.integers(0, hi, 400)
        b = rng.integers(0, hi, 400)
        assert np.array_equal(mul.multiply(a, b), a * b)

    def test_exhaustive_4x4_accurate(self):
        mul = RecursiveMultiplier(4, leaf_policy="none")
        values = np.arange(16)
        a = np.repeat(values, 16)
        b = np.tile(values, 16)
        assert np.array_equal(mul.multiply(a, b), a * b)

    def test_operands_masked_to_width(self):
        mul = RecursiveMultiplier(4, leaf_policy="none")
        assert int(mul.multiply(0x1F, 2)) == (0x1F & 0xF) * 2


class TestApproximation:
    def test_width2_all_policy_is_the_2x2_table(self):
        from repro.multipliers.mul2x2 import multiplier_2x2

        mul = RecursiveMultiplier(2, leaf_mul="ApxMulOur", leaf_policy="all")
        a = np.repeat(np.arange(4), 4)
        b = np.tile(np.arange(4), 4)
        assert np.array_equal(
            mul.multiply(a, b), multiplier_2x2("ApxMulOur").multiply(a, b)
        )

    def test_low_half_policy_protects_msb_leaves(self):
        mul = RecursiveMultiplier(8, leaf_policy="low_half")
        counts = mul.leaf_counts()
        assert counts.get("AccMul", 0) > 0
        assert counts.get(mul.leaf_mul.name, 0) > 0

    def test_all_policy_uses_only_approximate_leaves(self):
        mul = RecursiveMultiplier(8, leaf_mul="ApxMulSoA", leaf_policy="all")
        assert set(mul.leaf_counts()) == {"ApxMulSoA"}

    def test_leaf_count_total(self):
        mul = RecursiveMultiplier(8, leaf_policy="low_half")
        assert sum(mul.leaf_counts().values()) == (8 // 2) ** 2

    def test_low_half_more_accurate_than_all(self, rng):
        hi = 1 << 8
        a = rng.integers(0, hi, 4000)
        b = rng.integers(0, hi, 4000)
        exact = a * b
        med_all = np.abs(
            RecursiveMultiplier(8, leaf_policy="all").multiply(a, b) - exact
        ).mean()
        med_low = np.abs(
            RecursiveMultiplier(8, leaf_policy="low_half").multiply(a, b) - exact
        ).mean()
        assert med_low < med_all

    def test_approximate_adders_add_error(self, rng):
        hi = 1 << 8
        a = rng.integers(0, hi, 4000)
        b = rng.integers(0, hi, 4000)
        clean = RecursiveMultiplier(8, leaf_policy="none")
        noisy = RecursiveMultiplier(
            8, leaf_policy="none", adder_fa="ApxFA5", adder_approx_lsbs=4
        )
        assert np.abs(noisy.multiply(a, b) - a * b).mean() > np.abs(
            clean.multiply(a, b) - a * b
        ).mean()

    def test_relative_error_bounded_for_our_leaves(self, rng):
        """ApxMulOur leaves with exact adders keep errors moderate."""
        mul = RecursiveMultiplier(8, leaf_mul="ApxMulOur", leaf_policy="all")
        hi = 1 << 8
        a = rng.integers(1, hi, 4000)
        b = rng.integers(1, hi, 4000)
        exact = a * b
        rel = np.abs(mul.multiply(a, b) - exact) / exact
        assert float(np.median(rel)) < 0.2


class TestStructure:
    def test_adder_widths(self):
        mul = RecursiveMultiplier(4)
        # One 4-bit + two 8-bit adders at the top; leaves have none.
        assert mul.adder_widths() == [4, 8, 8]

    def test_adder_widths_8(self):
        mul = RecursiveMultiplier(8)
        widths = mul.adder_widths()
        # Top level: one 8-bit mid adder + two 16-bit combiners; each of
        # the four 4x4 subtrees: one 4-bit + two 8-bit adders.
        assert widths.count(16) == 2
        assert widths.count(8) == 1 + 4 * 2
        assert widths.count(4) == 4

    def test_area_positive_and_monotone_in_width(self):
        areas = [RecursiveMultiplier(w).area_ge for w in (2, 4, 8, 16)]
        assert all(a > 0 for a in areas)
        assert areas == sorted(areas)

    def test_approx_leaves_reduce_area(self):
        exact = RecursiveMultiplier(8, leaf_policy="none")
        approx = RecursiveMultiplier(8, leaf_mul="ApxMulSoA", leaf_policy="all")
        assert approx.area_ge < exact.area_ge

    def test_delay_grows_with_width(self):
        assert (
            RecursiveMultiplier(16).delay_ps
            > RecursiveMultiplier(8).delay_ps
            > RecursiveMultiplier(4).delay_ps
        )


class TestFastPathEquivalence:
    """Sub-product table engine vs the legacy cell-level recursion."""

    @pytest.mark.parametrize("leaf_mul", ["ApxMulSoA", "ApxMulOur"])
    @pytest.mark.parametrize("leaf_policy", ["all", "none", "low_half"])
    def test_width4_exhaustive(self, leaf_mul, leaf_policy):
        fast = RecursiveMultiplier(4, leaf_mul=leaf_mul, leaf_policy=leaf_policy)
        loop = RecursiveMultiplier(
            4, leaf_mul=leaf_mul, leaf_policy=leaf_policy, eval_mode="loop"
        )
        a = np.repeat(np.arange(16), 16)
        b = np.tile(np.arange(16), 16)
        assert np.array_equal(fast.multiply(a, b), loop.multiply(a, b))

    @pytest.mark.parametrize("adder_fa,adder_lsbs", [("AccuFA", 0), ("ApxFA2", 3)])
    def test_width8_uses_product_lut(self, adder_fa, adder_lsbs, rng, tables):
        fast = RecursiveMultiplier(
            8, adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs
        )
        loop = RecursiveMultiplier(
            8, adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs, eval_mode="loop"
        )
        a = rng.integers(0, 256, 4000)
        b = rng.integers(0, 256, 4000)
        got = fast.multiply(a, b)
        # One width-8 table (built from one width-4 table) is the whole
        # multiplier.
        assert _table_widths(tables) == [4, 8]
        assert np.array_equal(got, loop.multiply(a, b))

    def test_width16_no_product_lut_but_fast_adders(self, rng, tables):
        fast = RecursiveMultiplier(16, adder_fa="ApxFA1", adder_approx_lsbs=4)
        loop = RecursiveMultiplier(
            16, adder_fa="ApxFA1", adder_approx_lsbs=4, eval_mode="loop"
        )
        a = rng.integers(0, 1 << 16, 500)
        b = rng.integers(0, 1 << 16, 500)
        got = fast.multiply(a, b)
        # No 16-bit table (above PRODUCT_LUT_MAX_WIDTH): the top node
        # gathers its quadrants, which under "all" share one table.
        assert _table_widths(tables) == [4, 8]
        quadrants = [fast._table(8, ao, bo) for ao in (0, 8) for bo in (0, 8)]
        assert all(q is quadrants[0] for q in quadrants)
        assert np.array_equal(got, loop.multiply(a, b))

    def test_invalid_eval_mode_rejected(self):
        with pytest.raises(ValueError, match="eval_mode"):
            RecursiveMultiplier(8, eval_mode="turbo")


def _exhaustive(width):
    n = 1 << width
    return np.repeat(np.arange(n), n), np.tile(np.arange(n), n)


def _stratified16(rng):
    """Corner operands crossed, plus random pairs from each combination
    of narrow (< 2**8) and wide operands, so every quadrant table and
    the top-level carries are exercised."""
    corners = np.array([0, 1, 2, 3, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF])
    a = [np.repeat(corners, corners.size)]
    b = [np.tile(corners, corners.size)]
    for a_hi in (1 << 8, 1 << 16):
        for b_hi in (1 << 8, 1 << 16):
            a.append(rng.integers(0, a_hi, 250))
            b.append(rng.integers(0, b_hi, 250))
    return np.concatenate(a), np.concatenate(b)


ADDERS = [("AccuFA", 0), ("ApxFA1", 4), ("ApxFA5", 3)]


class TestTableCache:
    """The shared, hierarchically built sub-product tables."""

    @pytest.mark.parametrize("adder_fa,adder_lsbs", ADDERS)
    @pytest.mark.parametrize("leaf_mul", ["ApxMulOur", "ApxMulSoA"])
    @pytest.mark.parametrize("leaf_policy", ["all", "none", "low_half"])
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_exhaustive_bit_identity(
        self, width, leaf_policy, leaf_mul, adder_fa, adder_lsbs
    ):
        kwargs = dict(
            leaf_mul=leaf_mul, leaf_policy=leaf_policy,
            adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs,
        )
        a, b = _exhaustive(width)
        want = RecursiveMultiplier(width, eval_mode="loop", **kwargs).multiply(a, b)
        got = RecursiveMultiplier(width, **kwargs).multiply(a, b)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("adder_fa,adder_lsbs", ADDERS)
    @pytest.mark.parametrize("leaf_policy", ["all", "none", "low_half"])
    def test_stratified_width16_bit_identity(
        self, leaf_policy, adder_fa, adder_lsbs, rng
    ):
        kwargs = dict(
            leaf_mul="ApxMulSoA", leaf_policy=leaf_policy,
            adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs,
        )
        a, b = _stratified16(rng)
        want = RecursiveMultiplier(16, eval_mode="loop", **kwargs).multiply(a, b)
        got = RecursiveMultiplier(16, **kwargs).multiply(a, b)
        assert np.array_equal(got, want)

    def test_none_width16_shares_the_width8_table(self, tables):
        mul16 = RecursiveMultiplier(16, leaf_policy="none")
        mul16.multiply(0xFFFF, 0xFFFF)
        assert _table_widths(tables) == [4, 8]
        mul8 = RecursiveMultiplier(8, leaf_policy="none")
        assert int(mul8.multiply(255, 255)) == 255 * 255
        assert len(tables) == 2  # nothing new built
        table = mul8._table(8, 0, 0)
        assert all(
            mul16._table(8, ao, bo) is table for ao in (0, 8) for bo in (0, 8)
        )

    def test_low_half_width16_tables(self, tables):
        mul = RecursiveMultiplier(16, leaf_policy="low_half")
        mul.multiply(0xFFFF, 0xFFFF)
        quads = {q: mul._table(8, *q) for q in ((0, 0), (0, 8), (8, 0), (8, 8))}
        # low_half depends only on a leaf's product significance, so the
        # two cross quadrants hold the same leaf designs and share one
        # table; the all-approximate low and all-exact high quadrants
        # differ from it and from each other.
        assert quads[(0, 8)] is quads[(8, 0)]
        assert len({id(t) for t in quads.values()}) == 3
        assert _table_widths(tables).count(8) == 3
        leaves = mul.leaf_counts()
        assert leaves["ApxMulOur"] > 0 and leaves["AccMul"] > 0

    def test_callable_policy_one_leaf_off_does_not_collide(self, tables, rng):
        low_half = LEAF_POLICIES["low_half"]

        def flipped(a_off, b_off, width):
            # low_half keeps the leaf at (6, 8) exact; approximate it.
            return low_half(a_off, b_off, width) or (a_off, b_off) == (6, 8)

        low = RecursiveMultiplier(16, leaf_policy="low_half")
        odd = RecursiveMultiplier(16, leaf_policy=flipped)
        a, b = _stratified16(rng)
        low_out = low.multiply(a, b)
        odd_out = odd.multiply(a, b)
        assert odd._table(8, 0, 8) is not low._table(8, 0, 8)
        assert odd._table(8, 8, 0) is low._table(8, 8, 0)
        quads = {id(odd._table(8, ao, bo)) for ao in (0, 8) for bo in (0, 8)}
        assert len(quads) == 4
        loop = RecursiveMultiplier(16, leaf_policy=flipped, eval_mode="loop")
        assert np.array_equal(odd_out, loop.multiply(a, b))
        # Leaf (6, 8) sees bits 7:6 of a and 9:8 of b; ApxMulOur gets
        # 3 x 1 wrong.
        x = (0b11 << 6, 0b01 << 8)
        assert int(odd.multiply(*x)) != int(low.multiply(*x))
        assert not np.array_equal(odd_out, low_out)

    def test_tables_are_read_only(self, tables):
        RecursiveMultiplier(16, leaf_policy="low_half").multiply(1, 1)
        assert len(tables) > 0
        for table in tables.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    def test_cache_bound_evicts_oldest(self, tables, monkeypatch):
        monkeypatch.setattr(recursive, "TABLE_CACHE_SIZE", 2)
        muls = [
            RecursiveMultiplier(4, leaf_policy=policy)
            for policy in ("none", "all", "low_half")
        ]
        a, b = _exhaustive(4)
        for mul in muls:
            mul.multiply(a, b)
        assert len(tables) == 2
        first_key = (4, ("AccMul",) * 4, "AccuFA", 0)
        assert first_key not in tables
        # An evicted table is rebuilt on demand, with the same contents.
        fresh = RecursiveMultiplier(4, leaf_policy="none")
        assert np.array_equal(fresh.multiply(a, b), a * b)
        assert first_key in tables and len(tables) == 2

    def test_concurrent_builds_respect_the_bound(self, tables, monkeypatch):
        """Threads racing to build and evict three tables in a cache of
        two get correct products and never see it past its bound."""
        monkeypatch.setattr(recursive, "TABLE_CACHE_SIZE", 2)
        policies = ["none", "all", "low_half"]
        a, b = _exhaustive(4)
        want = {
            p: RecursiveMultiplier(4, leaf_policy=p, eval_mode="loop").multiply(a, b)
            for p in policies
        }
        errors, sizes = [], []
        barrier = threading.Barrier(8)

        def worker(i):
            try:
                barrier.wait(timeout=10)
                for round_ in range(20):
                    policy = policies[(i + round_) % 3]
                    mul = RecursiveMultiplier(4, leaf_policy=policy)
                    if not np.array_equal(mul.multiply(a, b), want[policy]):
                        errors.append(f"wrong product under {policy}")
                    with recursive._TABLES_LOCK:
                        sizes.append(len(tables))
            except Exception as exc:  # reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert max(sizes) <= 2
