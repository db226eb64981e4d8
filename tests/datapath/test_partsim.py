"""Partitioned-SIMD evaluator: primitives, eval-mode wiring, surface.

Every packed primitive is checked against plain integer arithmetic or
the scalar reference datapath, and every ``eval_mode="partsim"``
component against its default engine -- the same bit-identity contract
the oracle registry enforces (see
``tests/properties/test_partsim_properties.py`` for the cross-path
sweeps).
"""

import numpy as np
import pytest

from repro.adders.gear import GeArAdder, GeArConfig
from repro.adders.hetero import HeteroGeArAdder, HeteroGeArConfig
from repro.adders.ripple import (
    MAX_WIDTH,
    ApproximateRippleAdder,
    ExactAdder,
)
from repro.adders.fulladder import FULL_ADDERS
from repro.accelerators.sad import SADAccelerator
from repro.datapath.partsim import (
    PartitionLayout,
    bit_reverse_permutation,
    packed_absdiff,
    packed_cell_ripple,
    packed_window_add,
    sad_surface,
    sad_surface_reference,
)
from repro.multipliers.recursive import RecursiveMultiplier


class TestPartitionLayout:
    @pytest.mark.parametrize(
        "field_bits, slot_bits", [(1, 8), (7, 8), (8, 16), (14, 16),
                                  (15, 16), (16, 32), (31, 32), (32, 64),
                                  (63, 64)]
    )
    def test_slot_sizing(self, field_bits, slot_bits):
        layout = PartitionLayout(field_bits)
        assert layout.slot_bits == slot_bits
        assert layout.fields_per_word == 64 // slot_bits

    @pytest.mark.parametrize("bad", [0, -3])
    def test_bad_field_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="field_bits"):
            PartitionLayout(bad)

    def test_field_plus_guard_beyond_word_rejected(self):
        with pytest.raises(ValueError, match="64-bit word"):
            PartitionLayout(64)
        with pytest.raises(ValueError, match="64-bit word"):
            PartitionLayout(60, guard_bits=5)

    def test_base_mask_has_one_bit_per_slot(self):
        layout = PartitionLayout(10)  # slot 16, 4 fields
        assert int(layout.base) == 0x0001_0001_0001_0001

    def test_spread_replicates_value(self):
        layout = PartitionLayout(10)
        assert int(layout.spread(0x7F)) == 0x007F_007F_007F_007F

    def test_spread_rejects_oversized_value(self):
        layout = PartitionLayout(10)
        with pytest.raises(ValueError, match="slot bits"):
            layout.spread(1 << 16)

    @pytest.mark.parametrize("field_bits", [5, 10, 20, 40])
    @pytest.mark.parametrize("count", [1, 3, 8, 17])
    def test_pack_unpack_roundtrip(self, field_bits, count, rng):
        layout = PartitionLayout(field_bits)
        values = rng.integers(0, 1 << field_bits, (4, count))
        words = layout.pack(values)
        assert words.dtype == np.uint64
        assert np.array_equal(layout.unpack(words, count), values)

    def test_pack_accepts_fortran_ordered_input(self, rng):
        """Regression: fancy indexing can hand ``pack`` a Fortran-ordered
        array; the slot view must still see word slots adjacent."""
        layout = PartitionLayout(10)
        values = rng.integers(0, 1 << 10, (100, 2))
        permuted = values[..., np.asarray([0, 1])]
        assert not permuted.flags["C_CONTIGUOUS"]
        words = layout.pack(permuted)
        assert np.array_equal(layout.unpack(words, 2), values)

    def test_unpack_keeps_guard_bit(self):
        """Results that legitimately use the guard position survive."""
        layout = PartitionLayout(8)  # slot 16
        words = layout.pack(np.asarray([200, 200]))
        total = words + words  # per-field 400 > 2**8
        assert np.array_equal(layout.unpack(total, 2), [400, 400])


class TestBitReversePermutation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            bit_reverse_permutation(12)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_is_an_involution(self, n):
        perm = bit_reverse_permutation(n)
        assert np.array_equal(perm[perm], np.arange(n))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_half_fold_equals_adjacent_pairing(self, n, rng):
        """The invariant the packed SAD tree rests on: after bit-reversed
        loading, every "combine first half with second half" fold pairs
        exactly the (even, odd) operands of the adjacent-pair tree.  The
        combine function is deliberately asymmetric and non-associative,
        so any pairing or operand-order drift changes the root value."""

        def combine(even, odd):
            return 3 * even + odd * odd

        leaves = rng.integers(0, 50, n)
        loaded = leaves[bit_reverse_permutation(n)]
        while loaded.size > 1:
            half = loaded.size // 2
            loaded = combine(loaded[:half], loaded[half:])
        reference = leaves.copy()
        while reference.size > 1:
            reference = combine(reference[0::2], reference[1::2])
        assert loaded[0] == reference[0]


class TestPackedAbsdiff:
    def test_exhaustive_u8_pairs(self):
        layout = PartitionLayout(9)
        a = np.repeat(np.arange(256), 256)
        b = np.tile(np.arange(256), 256)
        diff = packed_absdiff(layout, layout.pack(a), layout.pack(b))
        assert np.array_equal(layout.unpack(diff, a.size), np.abs(a - b))

    def test_broadcasts_across_leading_axes(self, rng):
        layout = PartitionLayout(9)
        a = rng.integers(0, 256, (1, 5, 8))
        b = rng.integers(0, 256, (7, 5, 8))
        diff = packed_absdiff(layout, layout.pack(a), layout.pack(b))
        assert np.array_equal(
            layout.unpack(diff, 8), np.abs(a - b)
        )

    def test_full_slot_range(self):
        """No headroom requirement: payloads may use every slot value."""
        layout = PartitionLayout(15)  # slot 16
        hi = (1 << 16) - 1
        a = np.asarray([hi, 0, hi, 12345])
        b = np.asarray([0, hi, hi, 54321])
        diff = packed_absdiff(layout, layout.pack(a), layout.pack(b))
        assert np.array_equal(layout.unpack(diff, 4), np.abs(a - b))


def _scalar_cell_ripple(table, a, b, cin, start, stop):
    """Bit-serial reference for one truth-table ripple over [start, stop)."""
    out = 0
    carry = cin
    for bit in range(start, stop):
        s, c = table[(((a >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | carry]
        out |= s << bit
        carry = c
    return out, carry


class TestPackedCellRipple:
    @pytest.mark.parametrize("fa", ["AccuFA", "ApxFA2", "ApxFA5"])
    @pytest.mark.parametrize("cin", [0, 1])
    def test_exhaustive_small_width(self, fa, cin):
        width = 4
        table = FULL_ADDERS[fa].table
        layout = PartitionLayout(width + 1)
        a = np.repeat(np.arange(1 << width), 1 << width)
        b = np.tile(np.arange(1 << width), 1 << width)
        sums, carry = packed_cell_ripple(
            layout, layout.pack(a), layout.pack(b),
            layout.base if cin else np.uint64(0), table, 0, width,
        )
        carry_field = layout.unpack(
            np.bitwise_or(sums, carry << np.uint64(width)), a.size
        )
        expect = [
            _scalar_cell_ripple(table, x, y, cin, 0, width)
            for x, y in zip(a.tolist(), b.tolist())
        ]
        want = np.asarray([s | (c << width) for s, c in expect])
        assert np.array_equal(carry_field, want)

    def test_partial_bit_range(self, rng):
        """Rippling only [start, stop) leaves other bits untouched."""
        table = FULL_ADDERS["ApxFA1"].table
        layout = PartitionLayout(9)
        a = rng.integers(0, 256, 500)
        b = rng.integers(0, 256, 500)
        sums, carry = packed_cell_ripple(
            layout, layout.pack(a), layout.pack(b), np.uint64(0),
            table, 2, 5,
        )
        got_sum = layout.unpack(sums, a.size)
        got_carry = layout.unpack(carry, a.size)
        expect = [
            _scalar_cell_ripple(table, x, y, 0, 2, 5)
            for x, y in zip(a.tolist(), b.tolist())
        ]
        assert np.array_equal(got_sum, [s for s, _ in expect])
        assert np.array_equal(got_carry, [c for _, c in expect])


class TestPackedWindowAdd:
    @pytest.mark.parametrize("cfg", [(8, 2, 2), (11, 1, 5), (12, 4, 4)])
    def test_matches_gear_window_equation(self, cfg, rng):
        config = GeArConfig(*cfg)
        adder = GeArAdder(config)
        layout = PartitionLayout(config.n + 1)
        a = rng.integers(0, 1 << config.n, 2000)
        b = rng.integers(0, 1 << config.n, 2000)
        windows = [
            (start, width, 0 if i == 0 else config.p,
             width if i == 0 else config.r)
            for i, (start, width) in enumerate(config.sub_adder_windows())
        ]
        out = packed_window_add(
            layout, layout.pack(a), layout.pack(b), windows, config.n
        )
        assert np.array_equal(layout.unpack(out, a.size), adder.add(a, b))

    def test_rejects_field_too_narrow_for_carry(self):
        layout = PartitionLayout(8)  # 16-bit slots
        with pytest.raises(ValueError, match="cannot hold"):
            packed_window_add(
                layout, np.uint64(0), np.uint64(0), [(0, 16, 0, 16)], 16
            )


class TestEvalModeWiring:
    """`eval_mode="partsim"` is bit-identical to each default engine."""

    @pytest.mark.parametrize("width, fa, lsbs", [
        (8, "AccuFA", 0), (8, "ApxFA2", 4), (16, "ApxFA1", 6),
        (31, "ApxFA4", 11), (62, "ApxFA3", 8),
    ])
    def test_ripple(self, width, fa, lsbs, rng):
        ref = ApproximateRippleAdder(width, approx_fa=fa, num_approx_lsbs=lsbs)
        ps = ApproximateRippleAdder(
            width, approx_fa=fa, num_approx_lsbs=lsbs, eval_mode="partsim"
        )
        a = rng.integers(0, 1 << min(width, 62), 2000)
        b = rng.integers(0, 1 << min(width, 62), 2000)
        for cin in (0, 1):
            assert np.array_equal(ref.add(a, b, cin), ps.add(a, b, cin))

    @pytest.mark.parametrize("cfg", [(8, 1, 1), (8, 2, 2), (16, 1, 7)])
    def test_gear(self, cfg, rng):
        config = GeArConfig(*cfg)
        ref = GeArAdder(config)
        ps = GeArAdder(config, eval_mode="partsim")
        a = rng.integers(0, 1 << config.n, 3000)
        b = rng.integers(0, 1 << config.n, 3000)
        assert np.array_equal(ref.add(a, b), ps.add(a, b))
        assert int(ref.add(3, 5)) == int(ps.add(3, 5))

    @pytest.mark.parametrize("segments", [
        ((4, 0), (2, 2), (2, 2)),
        ((2, 0), (1, 1), (2, 3)),
        ((6, 0), (4, 3), (3, 2), (3, 3)),
    ])
    def test_hetero(self, segments, rng):
        config = HeteroGeArConfig(segments)
        ref = HeteroGeArAdder(config)
        ps = HeteroGeArAdder(config, eval_mode="partsim")
        a = rng.integers(0, 1 << config.n, 3000)
        b = rng.integers(0, 1 << config.n, 3000)
        assert np.array_equal(ref.add(a, b), ps.add(a, b))

    def test_hetero_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="eval_mode"):
            HeteroGeArAdder(
                HeteroGeArConfig(((4, 0), (4, 2))), eval_mode="turbo"
            )

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_recursive_multiplier(self, width, rng):
        # "auto" and "partsim" share the sub-product table path, so it is
        # held against the two table-free paths: the cell-level "loop"
        # reference and the segment-LUT "lut" recursion.
        a = rng.integers(0, 1 << width, 5000)
        b = rng.integers(0, 1 << width, 5000)
        got = RecursiveMultiplier(
            width, leaf_mul="ApxMulOur", eval_mode="partsim"
        ).multiply(a, b)
        for mode in ("loop", "lut"):
            ref = RecursiveMultiplier(width, leaf_mul="ApxMulOur", eval_mode=mode)
            assert np.array_equal(ref.multiply(a, b), got), mode

    def test_recursive_multiplier_approx_adders(self, rng):
        config = dict(
            leaf_mul="ApxMulSoA", leaf_policy="low_half",
            adder_fa="ApxFA1", adder_approx_lsbs=3,
        )
        a = rng.integers(0, 1 << 16, 5000)
        b = rng.integers(0, 1 << 16, 5000)
        got = RecursiveMultiplier(16, eval_mode="partsim", **config).multiply(a, b)
        for mode in ("loop", "lut"):
            ref = RecursiveMultiplier(16, eval_mode=mode, **config)
            assert np.array_equal(ref.multiply(a, b), got), mode

    @pytest.mark.parametrize("n_pixels", [1, 2, 16, 64])
    @pytest.mark.parametrize("fa, lsbs", [("AccuFA", 0), ("ApxFA2", 4)])
    def test_sad(self, n_pixels, fa, lsbs, rng):
        ref = SADAccelerator(n_pixels=n_pixels, fa=fa, approx_lsbs=lsbs)
        ps = SADAccelerator(
            n_pixels=n_pixels, fa=fa, approx_lsbs=lsbs, eval_mode="partsim"
        )
        a = rng.integers(0, 256, (4, 9, n_pixels))
        b = rng.integers(0, 256, (4, 9, n_pixels))
        assert np.array_equal(ref.sad(a, b), ps.sad(a, b))

    def test_sad_partsim_needs_power_of_two_pixels(self):
        with pytest.raises(ValueError, match="power-of-two"):
            SADAccelerator(n_pixels=12, eval_mode="partsim")

    def test_sad_partsim_needs_narrow_pixels(self):
        with pytest.raises(ValueError, match="pixel_bits"):
            SADAccelerator(n_pixels=16, pixel_bits=9, eval_mode="partsim")


class TestWidthBounds:
    """Satellite fix: int64 reference arithmetic caps adder widths.

    The legacy bit-loop accumulates ``carry << width`` into an int64;
    at width 63 that lands on the sign bit and at 64 it is undefined --
    both used to wrap silently.  Widths beyond :data:`MAX_WIDTH` are now
    rejected at construction.
    """

    def test_max_width_is_62(self):
        assert MAX_WIDTH == 62

    @pytest.mark.parametrize("cls", [ExactAdder, ApproximateRippleAdder])
    @pytest.mark.parametrize("width", [63, 64, 100, 0, -1])
    def test_out_of_range_widths_rejected(self, cls, width):
        with pytest.raises(ValueError, match="width"):
            cls(width)

    @pytest.mark.parametrize("mode", ["auto", "loop", "partsim"])
    def test_boundary_width_carry_is_exact(self, mode):
        """At width 62 the final carry occupies bit 62 of a 63-bit
        result -- the last width where int64 holds it."""
        adder = ApproximateRippleAdder(MAX_WIDTH, eval_mode=mode)
        top = (1 << MAX_WIDTH) - 1
        got = adder.add(np.asarray([top, top, 1]), np.asarray([top, 1, 1]))
        assert got.tolist() == [2 * top, top + 1, 2]

    def test_recursive_multiplier_width_32_rejected(self):
        """A 32x32 multiplier needs a 64-bit summation adder (and 64-bit
        products), which int64 arithmetic cannot represent."""
        with pytest.raises(ValueError, match="summation adder"):
            RecursiveMultiplier(32)


class TestSadSurface:
    @pytest.mark.parametrize(
        "shape, bs, stride, search",
        [((48, 40), 8, 8, 4), ((40, 40), 4, 4, 2), ((64, 48), 8, 4, 3),
         ((36, 36), 2, 2, 1)],
    )
    def test_matches_batch_reference(self, shape, bs, stride, search, rng):
        cur = rng.integers(0, 256, shape)
        ref = rng.integers(0, 256, shape)
        got = sad_surface(
            SADAccelerator(n_pixels=bs * bs, eval_mode="partsim"),
            cur, ref, block_size=bs, block_stride=stride, search=search,
        )
        want = sad_surface_reference(
            SADAccelerator(n_pixels=bs * bs),
            cur, ref, block_size=bs, block_stride=stride, search=search,
        )
        assert np.array_equal(got, want)

    def test_matches_loop_engine(self, rng):
        cur = rng.integers(0, 256, (32, 32))
        ref = rng.integers(0, 256, (32, 32))
        got = sad_surface(
            SADAccelerator(n_pixels=16, eval_mode="partsim"),
            cur, ref, block_size=4, search=2,
        )
        want = sad_surface_reference(
            SADAccelerator(n_pixels=16, eval_mode="loop"),
            cur, ref, block_size=4, search=2,
        )
        assert np.array_equal(got, want)

    def test_identical_frames_zero_at_center(self, rng):
        frame = rng.integers(0, 256, (40, 40))
        surface = sad_surface(
            SADAccelerator(64, eval_mode="partsim"), frame, frame, search=2
        )
        center = 2 * (2 * 2 + 1) + 2  # displacement (0, 0)
        assert np.all(surface[center] == 0)
        assert np.all(surface >= 0)

    def test_approx_accelerator_rejected(self):
        acc = SADAccelerator(64, fa="ApxFA2", approx_lsbs=4)
        with pytest.raises(ValueError, match="exact-cell"):
            sad_surface(acc, np.zeros((32, 32), int), np.zeros((32, 32), int))

    def test_pixel_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            sad_surface(
                SADAccelerator(16), np.zeros((32, 32), int),
                np.zeros((32, 32), int), block_size=8,
            )

    def test_non_2d_frames_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            sad_surface(
                SADAccelerator(64), np.zeros(64, int), np.zeros(64, int)
            )

    def test_too_small_frame_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            sad_surface(
                SADAccelerator(64), np.zeros((12, 12), int),
                np.zeros((12, 12), int), search=4,
            )
