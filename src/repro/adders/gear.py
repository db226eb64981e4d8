"""GeAr: the Generic Accuracy-configurable adder model (paper Sec. 4.2).

A ``GeAr(N, R, P)`` adder splits an N-bit addition across ``k`` L-bit
sub-adders operating in parallel, with ``L = R + P``:

* sub-adder 0 covers bits ``[0, L)`` and contributes all L result bits;
* sub-adder ``i`` (``i >= 1``) covers bits ``[i*R, i*R + L)``; its low
  ``P`` bits are *carry-prediction* bits (they overlap the previous
  sub-adder) and only its top ``R`` bits contribute to the result;
* the final carry (bit N) comes from the last sub-adder.

``k = (N - L) / R + 1`` sub-adders are required, so a configuration is
valid only when ``R`` divides ``N - L``.

An error occurs at sub-adder ``i`` exactly when the true carry into bit
``i*R`` is 1 *and* all P prediction bits are in propagate mode -- then the
missed carry would have rippled into the result bits.  The optional error
detection/correction circuitry of the paper (Fig. 3, blue) detects
``Cout(sub-adder i-1) = 1 AND prediction bits propagate`` and re-executes
the offending sub-adder with an injected carry; iterated to fixpoint this
recovers the exact sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["GeArConfig", "GeArAdder", "GEAR_EVAL_MODES"]

#: Evaluation engines for :class:`GeArAdder.add`: ``"auto"`` is the
#: vectorized int64 window equation; ``"partsim"`` packs several
#: additions per uint64 word and evaluates every sub-adder window as a
#: masked word operation (:mod:`repro.datapath.partsim`).  Both are
#: bit-identical (proven via the ``gear`` oracle family).
GEAR_EVAL_MODES = ("auto", "partsim")


def _as_int_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("operands must be non-negative integers")
    return arr


@dataclass(frozen=True)
class GeArConfig:
    """Architectural parameters of a GeAr adder.

    Attributes:
        n: Operand width in bits.
        r: Number of resultant bits contributed by each sub-adder.
        p: Number of previous (carry-prediction) bits per sub-adder.
    """

    n: int
    r: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"N must be >= 1, got {self.n}")
        if self.r < 1:
            raise ValueError(f"R must be >= 1, got {self.r}")
        if self.p < 0:
            raise ValueError(f"P must be >= 0, got {self.p}")
        if self.l > self.n:
            raise ValueError(
                f"sub-adder width L=R+P={self.l} exceeds N={self.n}"
            )
        if (self.n - self.l) % self.r != 0:
            raise ValueError(
                f"invalid GeAr config N={self.n}, R={self.r}, P={self.p}: "
                f"R must divide N - (R + P) = {self.n - self.l}"
            )

    @property
    def l(self) -> int:
        """Sub-adder width ``L = R + P``."""
        return self.r + self.p

    @property
    def k(self) -> int:
        """Number of sub-adders ``k = (N - L) / R + 1``."""
        return (self.n - self.l) // self.r + 1

    @property
    def is_exact(self) -> bool:
        """True when the configuration degenerates to a single full adder."""
        return self.k == 1

    def sub_adder_windows(self) -> List[Tuple[int, int]]:
        """``(start_bit, width)`` of each sub-adder's operand window."""
        return [(i * self.r, self.l) for i in range(self.k)]

    @property
    def name(self) -> str:
        return f"GeAr(N={self.n},R={self.r},P={self.p})"

    @classmethod
    def all_valid(cls, n: int, min_p: int = 1) -> List["GeArConfig"]:
        """Enumerate every valid approximate configuration for width ``n``.

        Only genuinely approximate configurations (``k >= 2``) are
        returned, with ``P >= min_p`` (the paper's Table IV sweeps
        ``P >= 1``).
        """
        configs = []
        for r in range(1, n):
            for p in range(min_p, n - r + 1):
                if (n - r - p) % r != 0:
                    continue
                cfg = cls(n, r, p)
                if cfg.k >= 2:
                    configs.append(cfg)
        return configs


class GeArAdder:
    """Behavioural model of a GeAr adder (vectorized over NumPy arrays).

    Example:
        >>> adder = GeArAdder(GeArConfig(n=12, r=4, p=4))
        >>> int(adder.add(0x0FF, 0x001))    # the bit-8 carry is missed
        0
        >>> int(adder.add_with_correction(0x0FF, 0x001)[0])
        256
    """

    def __init__(self, config: GeArConfig, eval_mode: str = "auto") -> None:
        if eval_mode not in GEAR_EVAL_MODES:
            raise ValueError(
                f"eval_mode must be one of {GEAR_EVAL_MODES}, "
                f"got {eval_mode!r}"
            )
        self.config = config
        self.eval_mode = eval_mode
        self._partsim_layout = None

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def width(self) -> int:
        return self.config.n

    def _operands(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """Validated operands, masked to the architectural N bits.

        The hardware datapath only ever sees N operand wires; bits above
        N cannot exist, and negative values have no encoding.  The
        behavioural model therefore rejects negatives (the silent
        arithmetic right-shift they would take through the window
        extraction corrupts every sub-adder) and truncates operands to
        N bits exactly like :class:`~repro.adders.ripple`.
        """
        mask = (1 << self.config.n) - 1
        return _as_int_array(a) & mask, _as_int_array(b) & mask

    # ------------------------------------------------------------------
    # approximate addition
    # ------------------------------------------------------------------
    def _window_sums(self, a: np.ndarray, b: np.ndarray) -> List[np.ndarray]:
        """Raw (L+1)-bit sums of every sub-adder window, carry-in = 0."""
        cfg = self.config
        mask_l = (1 << cfg.l) - 1
        return [
            ((a >> start) & mask_l) + ((b >> start) & mask_l)
            for start, _ in cfg.sub_adder_windows()
        ]

    def add(self, a, b) -> np.ndarray:
        """Approximate ``a + b``; result has ``N + 1`` bits.

        Operands must be non-negative and are masked to ``N`` bits.
        """
        a, b = self._operands(a, b)
        if self.eval_mode == "partsim":
            return self._add_partsim(a, b)
        cfg = self.config
        sums = self._window_sums(a, b)
        mask_l = (1 << cfg.l) - 1
        mask_r = (1 << cfg.r) - 1
        result = sums[0] & mask_l
        for i in range(1, cfg.k):
            start = i * cfg.r
            result = result | (((sums[i] >> cfg.p) & mask_r) << (start + cfg.p))
        # Final carry comes from the last sub-adder's window overflow.
        result = result | (((sums[-1] >> cfg.l) & 1) << cfg.n)
        return result

    def _add_partsim(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Packed evaluation: all sub-adder windows as word operations.

        Several operand pairs share one uint64 word; each sub-adder
        window is extracted with a shift plus a partition mask and
        summed with its carries confined to the field -- the dropped
        inter-block carry of the GeAr approximation is exactly the
        partition point between windows.
        """
        from ..datapath.partsim import PartitionLayout, packed_window_add

        cfg = self.config
        if self._partsim_layout is None:
            self._partsim_layout = PartitionLayout(cfg.n + 1)
        layout = self._partsim_layout
        shape = np.broadcast_shapes(a.shape, b.shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        wa = layout.pack(np.broadcast_to(a, shape).ravel())
        wb = layout.pack(np.broadcast_to(b, shape).ravel())
        windows = [
            (start, width, 0 if i == 0 else cfg.p, width if i == 0 else cfg.r)
            for i, (start, width) in enumerate(cfg.sub_adder_windows())
        ]
        out = packed_window_add(layout, wa, wb, windows, cfg.n)
        return layout.unpack(out, count).reshape(shape)

    # ------------------------------------------------------------------
    # error detection and correction
    # ------------------------------------------------------------------
    def detect_errors(self, a, b) -> np.ndarray:
        """Per-sub-adder error flags, shape ``(..., k - 1)``.

        Flag ``i`` (for sub-adder ``i + 1``) is raised when the previous
        sub-adder's carry-out is 1 and all P prediction bits of sub-adder
        ``i + 1`` are propagating -- the paper's ``Co1 AND Cp2`` condition.
        Detection is *local* (first-pass); cascaded errors surface in
        later correction iterations.  Operands must be non-negative and
        are masked to ``N`` bits.
        """
        a, b = self._operands(a, b)
        flags = self._detect_from_windows(a, b, self._window_sums(a, b))
        return np.stack(flags, axis=-1) if flags else np.zeros(a.shape + (0,), bool)

    def _detect_from_windows(
        self, a: np.ndarray, b: np.ndarray, sums: List[np.ndarray]
    ) -> List[np.ndarray]:
        cfg = self.config
        mask_p = (1 << cfg.p) - 1
        flags = []
        for i in range(1, cfg.k):
            start = i * cfg.r
            prev_cout = (sums[i - 1] >> cfg.l) & 1
            if cfg.p:
                propagate = (((a >> start) ^ (b >> start)) & mask_p) == mask_p
            else:
                propagate = np.ones_like(prev_cout, dtype=bool)
            flags.append((prev_cout == 1) & propagate)
        return flags

    def add_with_correction(
        self, a, b, max_iterations: int | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate addition with iterative error recovery.

        Each round detects sub-adders whose carry prediction failed and
        re-executes them with an injected carry (the paper forces the
        LSBs of the offending sub-adder's inputs to 1, which is
        equivalent to adding 1 at the window base when the prediction
        bits propagate).  Detection is simultaneous across sub-adders
        from the state at the *start* of the round -- Fig. 3's parallel
        detection logic -- so a missed carry that cascades through ``m``
        sub-adder boundaries genuinely costs ``m`` rounds, one per
        boundary.  (An earlier revision applied injections sequentially
        low-to-high *within* a round, which let any cascade collapse
        into a single reported round: ``iterations`` never exceeded 1
        and every partial-correction mode of the configurable adder was
        silently exact.)  With unlimited rounds the result is exact.

        Args:
            a: First operand (array-like of non-negative ints, masked to
                ``N`` bits).
            b: Second operand.
            max_iterations: Cap on correction rounds; ``None`` runs to
                fixpoint (at most ``k - 1`` rounds are ever needed).

        Returns:
            ``(sum, iterations)`` where ``iterations`` is the per-element
            number of correction rounds actually applied.
        """
        a, b = self._operands(a, b)
        cfg = self.config
        if max_iterations is None:
            # A missed carry can cascade through at most the k-1
            # downstream sub-adders, one per round, so the fixpoint is
            # always reached within k-1 rounds -- the documented cap.
            max_iterations = cfg.k - 1
        sums = self._window_sums(a, b)
        shape = np.broadcast_shapes(a.shape, b.shape)
        # Track per-window injected carries (0/1) as they stabilize.
        injected = [np.zeros(shape, dtype=np.int64) for _ in range(cfg.k)]
        iterations = np.zeros(shape, dtype=np.int64)
        mask_p = (1 << cfg.p) - 1
        propagates = []
        for i in range(1, cfg.k):
            start = i * cfg.r
            if cfg.p:
                propagates.append(
                    (((a >> start) ^ (b >> start)) & mask_p) == mask_p
                )
            else:
                propagates.append(np.ones(shape, dtype=bool))
        for _ in range(max_iterations):
            # Snapshot every carry-out before applying any injection:
            # all detectors observe the same round-start state.
            couts = [(sums[i] >> cfg.l) & 1 for i in range(cfg.k - 1)]
            changed = np.zeros(shape, dtype=bool)
            for i in range(1, cfg.k):
                want = ((couts[i - 1] == 1) & propagates[i - 1]).astype(
                    np.int64
                )
                flip = want != injected[i]
                if np.any(flip):
                    delta = want - injected[i]
                    sums[i] = sums[i] + np.where(flip, delta, 0)
                    injected[i] = want
                    changed |= flip
            if not np.any(changed):
                break
            iterations = iterations + changed.astype(np.int64)
        return self._assemble(sums), iterations

    def _assemble(self, sums: List[np.ndarray]) -> np.ndarray:
        cfg = self.config
        mask_l = (1 << cfg.l) - 1
        mask_r = (1 << cfg.r) - 1
        result = sums[0] & mask_l
        for i in range(1, cfg.k):
            start = i * cfg.r
            result = result | (((sums[i] >> cfg.p) & mask_r) << (start + cfg.p))
        result = result | (((sums[-1] >> cfg.l) & 1) << cfg.n)
        return result

    # ------------------------------------------------------------------
    # physical models
    # ------------------------------------------------------------------
    @property
    def lut_count(self) -> int:
        """FPGA resource model: one 6-LUT + carry per sub-adder bit.

        A Virtex-6 carry-chain adder consumes roughly one LUT per bit, so
        a GeAr adder with k sub-adders of L bits needs ``k * L`` LUTs.
        This is the monotone area proxy used for Table IV / Fig. 4.
        """
        return self.config.k * self.config.l

    @property
    def area_ge(self) -> float:
        """ASIC area model: one accurate full adder per sub-adder bit."""
        from .fulladder import FULL_ADDERS

        return FULL_ADDERS["AccuFA"].area_ge * self.config.k * self.config.l

    @property
    def delay_ps(self) -> float:
        """Critical path: one L-bit ripple (sub-adders run in parallel)."""
        from .fulladder import FULL_ADDERS

        return FULL_ADDERS["AccuFA"].delay_ps * self.config.l

    def __repr__(self) -> str:
        return f"GeArAdder({self.config.name})"
