"""Multi-bit multipliers built recursively from 2x2 blocks (paper Sec. 5).

An ``N x N`` multiplier is decomposed as in lpACLib: with ``h = N/2``,

    a * b = (ah * bh) << N  +  (ah*bl + al*bh) << h  +  al * bl

where the four half-width products recurse down to 2x2 elementary
multipliers, and the partial products are summed with (possibly
approximate) multi-bit adders.  Three orthogonal approximation knobs --
the ones the paper sweeps for Fig. 6 -- are exposed:

* which 2x2 *leaf* blocks are approximate (``leaf_policy``),
* which approximate 2x2 design is used (``leaf_mul``),
* the adder cell and number of approximated LSBs in the partial-product
  summation adders (``adder_fa``, ``adder_approx_lsbs``).

By default every node of up to ``PRODUCT_LUT_MAX_WIDTH`` bits is one
gather from a read-only sub-product table, entry ``(a << w) | b``, built
by the node's own arithmetic over all operand pairs from the four tables
one level down (a 2x2 table is the leaf's truth table).  A table is
keyed by what determines it -- node width, the 2x2 design of each leaf
under the node, ``adder_fa`` and ``adder_approx_lsbs``, not the node's
offsets -- so equal sub-trees share one array, in a process-wide cache
of at most ``TABLE_CACHE_SIZE`` tables (oldest evicted first).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterator, List, Tuple

import numpy as np

from ..adders.ripple import ApproximateRippleAdder
from .mul2x2 import Mul2x2Spec, multiplier_2x2

__all__ = ["RecursiveMultiplier", "LEAF_POLICIES", "PRODUCT_LUT_MAX_WIDTH",
           "TABLE_CACHE_SIZE"]

#: Widest node evaluated as a sub-product table gather: a width-8 table
#: has ``2**16`` entries (one 512 KiB int64 array).
PRODUCT_LUT_MAX_WIDTH = 8

#: Bound of the process-wide table cache: at most 32 MiB of width-8
#: tables, reused across multipliers, campaign tasks and service jobs.
TABLE_CACHE_SIZE = 64

#: Named leaf policies: decide whether the 2x2 leaf at operand offsets
#: ``(a_off, b_off)`` of a ``width``-bit multiplier is approximate.
LEAF_POLICIES: Dict[str, Callable[[int, int, int], bool]] = {
    "all": lambda a_off, b_off, width: True,
    "none": lambda a_off, b_off, width: False,
    # Approximate only leaves whose product significance falls entirely
    # in the lower half of the final product (lpACLib's "Lit" variants).
    "low_half": lambda a_off, b_off, width: (a_off + b_off + 3) < width,
}

_TABLES: OrderedDict[Hashable, np.ndarray] = OrderedDict()
_TABLES_LOCK = threading.Lock()


def _new_tables_lock() -> None:
    # A child forked while another thread held the lock would hang on it.
    global _TABLES_LOCK
    _TABLES_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_tables_lock)


def _leaf_offsets(w: int, a_off: int, b_off: int) -> Iterator[Tuple[int, int]]:
    """Operand offsets of the 2x2 leaves under a node, in recursion order."""
    if w == 2:
        yield a_off, b_off
        return
    h = w // 2
    for da, db in ((0, 0), (0, h), (h, 0), (h, h)):
        yield from _leaf_offsets(h, a_off + da, b_off + db)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class RecursiveMultiplier:
    """Behavioural + physical model of a recursive NxN multiplier.

    Args:
        width: Operand width; a power of two >= 2.
        leaf_mul: Name of the approximate 2x2 design used where the
            policy selects approximation (``"ApxMulSoA"``/``"ApxMulOur"``).
        leaf_policy: ``"all"``, ``"none"``, ``"low_half"``, or a callable
            ``(a_off, b_off, width) -> bool``.
        adder_fa: Full-adder cell used in the *approximated LSBs* of the
            partial-product summation adders (a Table III name).
        adder_approx_lsbs: Number of approximated LSBs in each summation
            adder (clamped to the adder's width).
        eval_mode: Evaluation engine.  ``"auto"`` (default) and
            ``"partsim"`` evaluate every node of up to
            ``PRODUCT_LUT_MAX_WIDTH`` bits as a gather from a shared,
            hierarchically built sub-product table (see the module
            docstring), so an 8x8 multiply is one gather and a 16x16
            multiply four quadrant gathers plus three adds; ``"lut"``
            is the full leaf recursion over segment-LUT summation
            adders with no sub-product tables; ``"loop"`` is the legacy
            cell-level reference.  All modes are bit-identical.

    Example:
        >>> mul = RecursiveMultiplier(8, leaf_mul="ApxMulOur")
        >>> int(mul.multiply(255, 255)) <= 255 * 255
        True
        >>> exact = RecursiveMultiplier(8, leaf_policy="none")
        >>> int(exact.multiply(255, 255))
        65025
    """

    def __init__(
        self,
        width: int,
        leaf_mul: str = "ApxMulOur",
        leaf_policy: str | Callable[[int, int, int], bool] = "all",
        adder_fa: str = "AccuFA",
        adder_approx_lsbs: int = 0,
        eval_mode: str = "auto",
    ) -> None:
        if not _is_power_of_two(width) or width < 2:
            raise ValueError(f"width must be a power of two >= 2, got {width}")
        from ..adders.ripple import EVAL_MODES, MAX_WIDTH

        if 2 * width > MAX_WIDTH:
            # The final summation adder is 2*width bits wide and the
            # whole datapath runs on int64 reference arithmetic, so a
            # 32x32 multiplier (64-bit products) was never representable
            # -- reject it instead of silently wrapping.
            raise ValueError(
                f"width {width} needs a {2 * width}-bit summation adder, "
                f"beyond the int64-backed maximum of {MAX_WIDTH} bits"
            )

        if eval_mode not in EVAL_MODES:
            raise ValueError(
                f"eval_mode must be one of {EVAL_MODES}, got {eval_mode!r}"
            )
        self.eval_mode = eval_mode
        self._use_tables = eval_mode in ("auto", "partsim")
        # Tables this instance has used, by node (width, a_off, b_off).
        self._tables: Dict[Tuple[int, int, int], np.ndarray] = {}
        self.width = width
        self.leaf_mul = multiplier_2x2(leaf_mul)
        self.accurate_mul = multiplier_2x2("AccMul")
        if isinstance(leaf_policy, str):
            try:
                self.leaf_policy = LEAF_POLICIES[leaf_policy]
            except KeyError:
                known = ", ".join(LEAF_POLICIES)
                raise ValueError(
                    f"unknown leaf policy {leaf_policy!r}; known: {known}"
                ) from None
            self.leaf_policy_name = leaf_policy
        else:
            self.leaf_policy = leaf_policy
            self.leaf_policy_name = getattr(leaf_policy, "__name__", "custom")
        self.adder_fa = adder_fa
        self.adder_approx_lsbs = adder_approx_lsbs
        self._adders: Dict[int, ApproximateRippleAdder] = {}

    @property
    def name(self) -> str:
        return (
            f"RecMul{self.width}x{self.width}"
            f"[{self.leaf_mul.name}/{self.leaf_policy_name},"
            f"{self.adder_fa}x{self.adder_approx_lsbs}]"
        )

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def _adder(self, width: int) -> ApproximateRippleAdder:
        """Summation adder of the given width (cached per width)."""
        if width not in self._adders:
            # The table path ("auto", "partsim") sums with the segment-LUT
            # adders: packing each partial product into partition words
            # is slower, and the adder modes are bit-identical anyway.
            mode = "auto" if self._use_tables else self.eval_mode
            self._adders[width] = ApproximateRippleAdder(
                width,
                approx_fa=self.adder_fa,
                num_approx_lsbs=min(self.adder_approx_lsbs, width),
                eval_mode=mode,
            )
        return self._adders[width]

    def _leaf(self, a_off: int, b_off: int) -> Mul2x2Spec:
        if self.leaf_policy(a_off, b_off, self.width):
            return self.leaf_mul
        return self.accurate_mul

    def _multiply_rec(
        self, a: np.ndarray, b: np.ndarray, w: int, a_off: int, b_off: int
    ) -> np.ndarray:
        """Sub-product of the ``w``-bit node at ``(a_off, b_off)``."""
        if self._use_tables and w <= PRODUCT_LUT_MAX_WIDTH:
            return self._table(w, a_off, b_off)[(a << w) | b]
        if w == 2:
            return self._leaf(a_off, b_off).multiply(a, b)
        return self._combine(a, b, w, a_off, b_off)

    def _combine(
        self, a: np.ndarray, b: np.ndarray, w: int, a_off: int, b_off: int
    ) -> np.ndarray:
        """One recursion level: four half-width products, three adds."""
        h = w // 2
        mask = (1 << h) - 1
        al, ah = a & mask, (a >> h) & mask
        bl, bh = b & mask, (b >> h) & mask
        p_ll = self._multiply_rec(al, bl, h, a_off, b_off)
        p_lh = self._multiply_rec(al, bh, h, a_off, b_off + h)
        p_hl = self._multiply_rec(ah, bl, h, a_off + h, b_off)
        p_hh = self._multiply_rec(ah, bh, h, a_off + h, b_off + h)
        mid = self._adder(w).add(p_lh, p_hl)  # w+1 bits
        acc = self._adder(2 * w).add(p_hh << h, mid)  # aligned at << h
        return self._adder(2 * w).add(acc << h, p_ll)

    def _table(self, w: int, a_off: int, b_off: int) -> np.ndarray:
        """Sub-product table of a node (see the module docstring)."""
        if w == 2:
            return self._leaf(a_off, b_off).lut
        node = (w, a_off, b_off)
        table = self._tables.get(node)
        if table is None:
            leaves = tuple(
                self._leaf(*off).name for off in _leaf_offsets(w, a_off, b_off)
            )
            key = (w, leaves, self.adder_fa, self.adder_approx_lsbs)
            with _TABLES_LOCK:
                table = _TABLES.get(key)
            if table is None:
                n = 1 << w
                a = np.repeat(np.arange(n, dtype=np.int64), n)
                b = np.tile(np.arange(n, dtype=np.int64), n)
                table = self._combine(a, b, w, a_off, b_off)
                table.setflags(write=False)
                with _TABLES_LOCK:
                    table = _TABLES.setdefault(key, table)
                    while len(_TABLES) > TABLE_CACHE_SIZE:
                        _TABLES.popitem(last=False)
            self._tables[node] = table
        return table

    def multiply(self, a, b) -> np.ndarray:
        """Approximate product of two ``width``-bit unsigned operands."""
        mask = (1 << self.width) - 1
        a = np.asarray(a, dtype=np.int64) & mask
        b = np.asarray(b, dtype=np.int64) & mask
        return np.asarray(self._multiply_rec(a, b, self.width, 0, 0))

    # ------------------------------------------------------------------
    # structural roll-ups
    # ------------------------------------------------------------------
    def leaf_counts(self) -> Dict[str, int]:
        """Number of 2x2 leaves per design name."""
        counts: Dict[str, int] = {}
        for a_off, b_off in _leaf_offsets(self.width, 0, 0):
            name = self._leaf(a_off, b_off).name
            counts[name] = counts.get(name, 0) + 1
        return counts

    def adder_widths(self) -> List[int]:
        """Widths of every summation adder instance in the tree."""
        widths: List[int] = []

        def rec(w: int) -> None:
            if w == 2:
                return
            widths.extend([w, 2 * w, 2 * w])
            for _ in range(4):
                rec(w // 2)

        rec(self.width)
        return sorted(widths)

    @property
    def area_ge(self) -> float:
        """Total area: 2x2 leaf netlists + summation-adder cells."""
        from .mul2x2 import MULTIPLIERS_2X2

        total = 0.0
        for name, count in self.leaf_counts().items():
            total += MULTIPLIERS_2X2[name].area_ge * count
        for w in self.adder_widths():
            total += self._adder(w).area_ge
        return total

    @property
    def delay_ps(self) -> float:
        """Critical path: one leaf plus the adder chain of each level."""
        delay = max(self.leaf_mul.delay_ps, self.accurate_mul.delay_ps)
        w = self.width
        while w > 2:
            delay += self._adder(w).delay_ps + 2 * self._adder(2 * w).delay_ps
            w //= 2
        return delay

    def __repr__(self) -> str:
        return f"RecursiveMultiplier({self.name})"
