"""Oracle registry: every approximate component with its golden
reference and all equivalent evaluation paths.

An :class:`Oracle` bundles what differential verification needs to know
about one library component:

* a **golden** function -- the exact reference the approximation is
  measured against (plain integer arithmetic, no library code);
* two or more **paths** -- independent evaluation routes that must be
  *bit-identical* to one another (behavioural truth-table walk, the
  PR 1 LUT/segment fast path, gate-level netlist simulation, an
  independent scalar re-implementation, ...).  Any silent drift between
  the layers shows up as a pairwise path mismatch;
* the **laws** (by name, see :mod:`.metamorphic`) the component must
  obey, and an optional inclusive ``error_cap`` on ``|path - golden|``.

:func:`build_registry` enumerates the paper's component families --
Table III cells, ripple adders, GeAr/prefix adders, 2x2 and recursive
multipliers, the SAD and low-pass-filter accelerators -- so
``repro verify all`` sweeps the entire cross-layer stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..adders.fulladder import FULL_ADDER_NAMES, FULL_ADDERS, FullAdderSpec
from ..adders.gear import GeArAdder, GeArConfig
from ..adders.prefix import SpeculativePrefixAdder
from ..adders.ripple import ApproximateRippleAdder
from ..multipliers.mul2x2 import MULTIPLIER_2X2_NAMES, Mul2x2Spec, multiplier_2x2
from ..multipliers.recursive import RecursiveMultiplier
from .report import Budget

__all__ = [
    "Oracle",
    "build_registry",
    "get_oracle",
    "oracle_names",
    "resolve_components",
    "operand_space",
    "stratified_operands",
    "fa_value_paths",
    "ripple_paths",
    "mul2x2_value_paths",
    "gear_pure_python",
    "hetero_pure_python",
]

#: Families in registry (and CLI) order.
FAMILIES = ("fa", "ripple", "gear", "hetero", "mul2x2", "recmul", "sad",
            "filter")


@dataclass
class Oracle:
    """One component's verification contract.

    Attributes:
        name: Registry key, ``"<family>/<component>"``.
        family: One of :data:`FAMILIES`.
        description: What the component is.
        operand_bits: Bit width of each positional operand (used to size
            exhaustive sweeps); empty when ``input_gen`` supplies
            structured stimuli instead.
        golden: Exact reference ``golden(*operands) -> ndarray``.
        paths: Equivalent evaluation routes, name -> callable with the
            same signature as ``golden``.  All pairs must agree
            bit-for-bit on every input.
        laws: Names of :mod:`.metamorphic` laws this component obeys.
        error_cap: Inclusive bound on ``|path - golden|`` (``0`` for
            exact components, ``None`` when no closed-form cap applies).
        input_gen: Optional ``(n_samples, seed) -> tuple(arrays)``
            stimulus generator for structured inputs (pixel blocks,
            images).
        meta: Family-specific extras (e.g. the ``GeArConfig``).
    """

    name: str
    family: str
    description: str
    operand_bits: Tuple[int, ...]
    golden: Callable[..., np.ndarray]
    paths: Dict[str, Callable[..., np.ndarray]]
    laws: Tuple[str, ...] = ()
    error_cap: Optional[int] = None
    input_gen: Optional[Callable[[int, int], Tuple[np.ndarray, ...]]] = None
    meta: Dict = field(default_factory=dict)

    @property
    def n_input_bits(self) -> int:
        """Total input-space size in bits (0 for structured inputs)."""
        return sum(self.operand_bits)


# ----------------------------------------------------------------------
# stimulus generation
# ----------------------------------------------------------------------

def _exhaustive_operands(bits: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
    """Every input combination, decoded from one packed index sweep."""
    index = np.arange(1 << sum(bits), dtype=np.int64)
    operands = []
    offset = 0
    for width in bits:
        operands.append((index >> offset) & ((1 << width) - 1))
        offset += width
    return tuple(operands)


def stratified_operands(
    bits: Tuple[int, ...], n_samples: int, seed: int
) -> Tuple[np.ndarray, ...]:
    """Seeded stratified stimulus for input spaces too large to sweep.

    Strata (equal shares of the budget, deterministic given ``seed``):

    * corner vectors -- every all-zeros / all-ones operand combination;
    * ``uniform`` -- i.i.d. uniform operands;
    * ``sparse`` / ``dense`` -- few set / few cleared bits (carry-kill
      and carry-generate heavy patterns);
    * ``complement`` -- the second operand is the bitwise complement of
      the first (maximum-length propagate chains, the inputs that
      expose speculative-carry errors);
    * ``equal`` -- the second operand repeats the first (generate-heavy).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    masks = [np.int64((1 << b) - 1) for b in bits]

    columns: List[List[np.ndarray]] = [[] for _ in bits]

    def emit(values: List[np.ndarray]) -> None:
        for column, value in zip(columns, values):
            column.append(np.asarray(value, dtype=np.int64))

    # Corner vectors: all {0, max} combinations (capped for many operands).
    n_corner = min(1 << len(bits), 64)
    for combo in range(n_corner):
        emit([
            np.asarray([mask if (combo >> i) & 1 else 0], dtype=np.int64)
            for i, mask in enumerate(masks)
        ])

    remaining = max(0, n_samples - n_corner)
    shares = [remaining // 5] * 4 + [remaining - 4 * (remaining // 5)]

    def random_sparse(width: int, size: int) -> np.ndarray:
        value = np.int64(1) << rng.integers(0, max(width, 1), size=size)
        value |= np.int64(1) << rng.integers(0, max(width, 1), size=size)
        return value & np.int64((1 << width) - 1)

    for stratum, share in zip(
        ("uniform", "sparse", "dense", "complement", "equal"), shares
    ):
        if share == 0:
            continue
        values: List[np.ndarray] = [
            rng.integers(0, (1 << b), size=share, dtype=np.int64)
            for b in bits
        ]
        if stratum == "sparse":
            values = [random_sparse(b, share) for b in bits]
        elif stratum == "dense":
            values = [
                mask & ~random_sparse(b, share)
                for b, mask in zip(bits, masks)
            ]
        elif stratum == "complement" and len(bits) >= 2:
            values[1] = (~values[0]) & masks[1]
        elif stratum == "equal" and len(bits) >= 2:
            values[1] = values[0] & masks[1]
        emit(values)

    operands = tuple(
        np.concatenate(column)[:n_samples] for column in columns
    )
    return operands


def operand_space(
    oracle: Oracle, budget: Budget, seed: int
) -> Tuple[Tuple[np.ndarray, ...], bool]:
    """Stimulus for one oracle under a budget.

    Returns:
        ``(operands, exhaustive)`` -- operand arrays (one per positional
        argument of the oracle's callables) and whether they cover the
        full input space.
    """
    if oracle.input_gen is not None:
        return oracle.input_gen(budget.n_samples, seed), False
    if oracle.n_input_bits <= budget.exhaustive_bits:
        return _exhaustive_operands(oracle.operand_bits), True
    return (
        stratified_operands(oracle.operand_bits, budget.n_samples, seed),
        False,
    )


# ----------------------------------------------------------------------
# path builders (shared with the mutation smoke-tester)
# ----------------------------------------------------------------------

def _symmetric_fa_table(spec: FullAdderSpec) -> bool:
    """True when the cell's outputs are invariant under an A/B swap."""
    return all(
        spec.table[(a << 2) | (b << 1) | c] == spec.table[(b << 2) | (a << 1) | c]
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    )


def fa_value_paths(
    spec: FullAdderSpec,
    include_netlists: bool = True,
    eval_mode: Optional[str] = None,
) -> Dict[str, Callable]:
    """Evaluation paths of a 1-bit cell, as 2-bit values ``2*cout + sum``.

    Args:
        spec: Cell under verification (possibly a mutated copy).
        include_netlists: Also build the structural and two-level-SOP
            netlist simulation paths (available only for library cells).
        eval_mode: Gate-simulation engine for the netlist paths
            (``None`` -> process default, i.e. the bit-parallel
            :mod:`repro.logic.bitsim` tape).
    """

    def table_path(a, b, cin):
        s, c = spec.evaluate(a, b, cin)
        return s.astype(np.int64) | (c.astype(np.int64) << 1)

    paths: Dict[str, Callable] = {"table": table_path}
    if include_netlists:
        for path_name, netlist in (
            ("netlist", spec.netlist()),
            ("sop", spec.sop_netlist()),
        ):
            def netlist_path(a, b, cin, _nl=netlist):
                out = _nl.evaluate({
                    "a": np.asarray(a, dtype=np.uint8),
                    "b": np.asarray(b, dtype=np.uint8),
                    "cin": np.asarray(cin, dtype=np.uint8),
                }, eval_mode=eval_mode)
                return (
                    out["sum"].astype(np.int64)
                    | (out["cout"].astype(np.int64) << 1)
                )

            paths[path_name] = netlist_path
    return paths


def ripple_paths(
    width: int,
    fa: str,
    lsbs: int,
    include_netlist: bool = True,
    eval_mode: Optional[str] = None,
) -> Dict[str, Callable]:
    """LUT / bit-loop / partitioned-SIMD / netlist paths of one adder.

    ``eval_mode`` pins the gate-simulation engine of the netlist path
    (``None`` -> process default, the bit-parallel tape) -- the
    exhaustive conformance budgets sweep ``2**17`` vectors through it.
    """
    from ..adders.netlist_builder import (
        build_ripple_adder_netlist,
        evaluate_adder_netlist,
    )

    lut = ApproximateRippleAdder(
        width, approx_fa=fa, num_approx_lsbs=lsbs,
        eval_mode="lut" if lsbs else "auto",
    )
    loop = ApproximateRippleAdder(
        width, approx_fa=fa, num_approx_lsbs=lsbs, eval_mode="loop"
    )
    partsim = ApproximateRippleAdder(
        width, approx_fa=fa, num_approx_lsbs=lsbs, eval_mode="partsim"
    )
    paths: Dict[str, Callable] = {
        "lut": lambda a, b, cin: _ripple_add_cin(lut, a, b, cin),
        "loop": lambda a, b, cin: _ripple_add_cin(loop, a, b, cin),
        "partsim": lambda a, b, cin: _ripple_add_cin(partsim, a, b, cin),
    }
    if include_netlist:
        netlist = build_ripple_adder_netlist(loop)
        paths["netlist"] = (
            lambda a, b, cin: evaluate_adder_netlist(
                netlist, a, b, cin, eval_mode=eval_mode
            )
        )
    return paths


def _ripple_add_cin(
    adder: ApproximateRippleAdder, a, b, cin
) -> np.ndarray:
    """`adder.add` with a *vector* carry-in (the adder API takes scalars).

    The carry-in is a primary input of the datapath, so conformance
    sweeps it like any operand: split the batch by carry value, run each
    half natively, and stitch the results back together.
    """
    cin = np.asarray(cin, dtype=np.int64)
    if cin.ndim == 0:
        return adder.add(a, b, int(cin))
    a = np.broadcast_to(np.asarray(a, dtype=np.int64), cin.shape)
    b = np.broadcast_to(np.asarray(b, dtype=np.int64), cin.shape)
    out = np.zeros(cin.shape, dtype=np.int64)
    for value in (0, 1):
        sel = cin == value
        if np.any(sel):
            out[sel] = adder.add(a[sel], b[sel], value)
    return out


def mul2x2_value_paths(
    spec: Mul2x2Spec,
    include_netlist: bool = True,
    eval_mode: Optional[str] = None,
) -> Dict[str, Callable]:
    """Truth-table and gate-level paths of a 2x2 multiplier."""

    paths: Dict[str, Callable] = {
        "table": lambda a, b: spec.multiply(a, b)
    }
    if include_netlist:
        netlist = spec.netlist()

        def netlist_path(a, b, _nl=netlist):
            a = np.asarray(a, dtype=np.int64) & 3
            b = np.asarray(b, dtype=np.int64) & 3
            out = _nl.evaluate({
                "a1": ((a >> 1) & 1).astype(np.uint8),
                "a0": (a & 1).astype(np.uint8),
                "b1": ((b >> 1) & 1).astype(np.uint8),
                "b0": (b & 1).astype(np.uint8),
            }, eval_mode=eval_mode)
            return (
                (out["p3"].astype(np.int64) << 3)
                | (out["p2"].astype(np.int64) << 2)
                | (out["p1"].astype(np.int64) << 1)
                | out["p0"].astype(np.int64)
            )

        paths["netlist"] = netlist_path
    return paths


def gear_pure_python(config: GeArConfig) -> Callable:
    """Scalar re-implementation of the GeAr window equation.

    Written against the paper's Fig. 2 description (independent L-bit
    sub-adder windows, top R bits kept), with no code shared with
    :class:`~repro.adders.gear.GeArAdder` -- a drift in either
    implementation breaks path conformance.
    """
    n, r, p, l, k = config.n, config.r, config.p, config.l, config.k
    mask_n = (1 << n) - 1
    mask_l = (1 << l) - 1
    mask_r = (1 << r) - 1

    def path(a, b):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        shape = np.broadcast_shapes(a_arr.shape, b_arr.shape)
        a_flat = np.broadcast_to(a_arr, shape).ravel().tolist()
        b_flat = np.broadcast_to(b_arr, shape).ravel().tolist()
        out = []
        for x, y in zip(a_flat, b_flat):
            x &= mask_n
            y &= mask_n
            window = (x & mask_l) + (y & mask_l)
            result = window & mask_l
            for i in range(1, k):
                start = i * r
                window = ((x >> start) & mask_l) + ((y >> start) & mask_l)
                result |= ((window >> p) & mask_r) << (start + p)
            result |= ((window >> l) & 1) << n
            out.append(result)
        return np.asarray(out, dtype=np.int64).reshape(shape)

    return path


def hetero_pure_python(config) -> Callable:
    """Scalar re-implementation of the heterogeneous window equation.

    Written directly against the segment description (each sub-adder
    sums the ``p_i + r_i``-bit window below ``t_i + r_i`` with carry-in
    0 and keeps its top ``r_i`` bits), sharing no code with
    :class:`~repro.adders.hetero.HeteroGeArAdder` -- a drift in either
    implementation breaks path conformance.
    """
    segments = tuple(config.segments)
    n = sum(r for r, _ in segments)
    mask_n = (1 << n) - 1

    def path(a, b):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        shape = np.broadcast_shapes(a_arr.shape, b_arr.shape)
        a_flat = np.broadcast_to(a_arr, shape).ravel().tolist()
        b_flat = np.broadcast_to(b_arr, shape).ravel().tolist()
        out = []
        for x, y in zip(a_flat, b_flat):
            x &= mask_n
            y &= mask_n
            result = 0
            base = 0
            window = 0
            for r, p in segments:
                lo = base - p
                width = p + r
                mask_w = (1 << width) - 1
                window = ((x >> lo) & mask_w) + ((y >> lo) & mask_w)
                result |= ((window >> p) & ((1 << r) - 1)) << base
                base += r
            last_width = segments[-1][0] + segments[-1][1]
            result |= ((window >> last_width) & 1) << n
            out.append(result)
        return np.asarray(out, dtype=np.int64).reshape(shape)

    return path


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _golden_add(width: int) -> Callable:
    mask = (1 << width) - 1

    def golden(a, b, cin):
        return (
            (np.asarray(a, dtype=np.int64) & mask)
            + (np.asarray(b, dtype=np.int64) & mask)
            + np.asarray(cin, dtype=np.int64)
        )

    return golden


def _golden_mul(width: int) -> Callable:
    mask = (1 << width) - 1

    def golden(a, b):
        return (np.asarray(a, dtype=np.int64) & mask) * (
            np.asarray(b, dtype=np.int64) & mask
        )

    return golden


def _sad_input_gen(n_pixels: int, pixel_bits: int) -> Callable:
    hi = 1 << pixel_bits

    def gen(n_samples: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        n_blocks = max(64, n_samples // 8)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, hi, size=(n_blocks, n_pixels), dtype=np.int64)
        b = rng.integers(0, hi, size=(n_blocks, n_pixels), dtype=np.int64)
        # Structured rows: identical, extreme-difference, and
        # complementary blocks (worst-case borrow chains).
        a[0], b[0] = 0, 0
        a[1], b[1] = hi - 1, 0
        a[2], b[2] = 0, hi - 1
        a[3] = rng.integers(0, hi, size=n_pixels, dtype=np.int64)
        b[3] = a[3]
        return a, b

    return gen


def _filter_input_gen(size: int, pixel_bits: int) -> Callable:
    hi = (1 << pixel_bits) - 1

    def gen(n_samples: int, seed: int) -> Tuple[np.ndarray]:
        n_images = max(8, n_samples // 256)
        rng = np.random.default_rng(seed)
        images = rng.integers(
            0, hi + 1, size=(n_images, size, size), dtype=np.int64
        )
        # Structured images: flat fields, a gradient, a checkerboard.
        images[0] = 0
        images[1] = hi
        ramp = np.linspace(0, hi, size, dtype=np.int64)
        images[2] = np.broadcast_to(ramp, (size, size))
        yy, xx = np.mgrid[0:size, 0:size]
        images[3] = ((yy + xx) % 2) * hi
        return (images,)

    return gen


def _fa_oracles() -> List[Oracle]:
    oracles = []
    for name in FULL_ADDER_NAMES:
        spec = FULL_ADDERS[name]
        cap = max(abs(m) for m in spec.error_magnitudes())
        laws = []
        if _symmetric_fa_table(spec):
            laws.append("commutativity")
        oracles.append(Oracle(
            name=f"fa/{name}",
            family="fa",
            description=spec.description,
            operand_bits=(1, 1, 1),
            golden=_golden_add(1),
            paths=fa_value_paths(spec),
            laws=tuple(laws),
            error_cap=cap,
            meta={"spec": spec},
        ))
    return oracles


def _ripple_oracles() -> List[Oracle]:
    width = 8
    variants = [("AccuFA", 0)] + [
        (name, 4) for name in FULL_ADDER_NAMES if name != "AccuFA"
    ]
    oracles = []
    for fa, lsbs in variants:
        exact = lsbs == 0
        laws = ["zero_lsb_window"]
        if exact:
            laws += ["add_identity_zero", "shift_scaling", "commutativity"]
        else:
            laws.append("lsb_truncation_cap")
            if _symmetric_fa_table(FULL_ADDERS[fa]):
                laws.append("commutativity")
        oracles.append(Oracle(
            name=f"ripple/{fa}x{lsbs}w{width}",
            family="ripple",
            description=(
                f"{width}-bit ripple adder, {lsbs} approximate "
                f"{fa} LSBs"
            ),
            operand_bits=(width, width, 1),
            golden=_golden_add(width),
            paths=ripple_paths(width, fa, lsbs),
            laws=tuple(laws),
            # The approximate segment garbles at most the low s bits and
            # the carry into bit s: |error| < 2**(lsbs + 1).
            error_cap=0 if exact else (1 << (lsbs + 1)) - 1,
            meta={"fa": fa, "lsbs": lsbs, "width": width},
        ))
    return oracles


#: GeAr configurations under differential verification.  The N=8 row is
#: exhaustively enumerable under every budget; the R=1 rows get the
#: independent speculative-prefix path; N=16 exercises sampled sweeps.
_GEAR_VERIFY_CONFIGS = (
    (8, 2, 2),
    (11, 1, 5),
    (11, 3, 2),
    (12, 4, 4),
    (16, 1, 7),
)


def _gear_oracles() -> List[Oracle]:
    oracles = []
    for n, r, p in _GEAR_VERIFY_CONFIGS:
        config = GeArConfig(n=n, r=r, p=p)
        adder = GeArAdder(config)
        paths: Dict[str, Callable] = {
            "window": adder.add,
            "partsim": GeArAdder(config, eval_mode="partsim").add,
            "pure_python": gear_pure_python(config),
        }
        if r == 1:
            prefix = SpeculativePrefixAdder(n, lookahead=p)
            paths["prefix"] = prefix.add
        oracles.append(Oracle(
            name=f"gear/N{n}R{r}P{p}",
            family="gear",
            description=f"{config.name} behavioural adder",
            operand_bits=(n, n),
            golden=lambda a, b, _m=(1 << n) - 1: (
                (np.asarray(a, dtype=np.int64) & _m)
                + (np.asarray(b, dtype=np.int64) & _m)
            ),
            paths=paths,
            laws=("commutativity", "approx_le_exact", "low_window_exact",
                  "correction_convergence"),
            error_cap=None,
            meta={"config": config},
        ))
    return oracles


#: Heterogeneous configurations under differential verification: the
#: GeAr(8,2,2) embedding (cross-family consistency with ``gear/N8R2P2``),
#: a genuinely unequal-block N=8 design, the minimal *overestimating*
#: design (prediction deeper than the previous window -- exercises the
#: positive-error branch of the analytic engine), and an N=16 design for
#: the sampled budgets.
_HETERO_VERIFY_SEGMENTS = (
    ((4, 0), (2, 2), (2, 2)),
    ((3, 0), (3, 2), (2, 2)),
    ((2, 0), (1, 1), (2, 3)),
    ((6, 0), (4, 3), (3, 2), (3, 3)),
)


def _hetero_oracles() -> List[Oracle]:
    from ..adders.hetero import HeteroGeArAdder, HeteroGeArConfig

    oracles = []
    for segments in _HETERO_VERIFY_SEGMENTS:
        config = HeteroGeArConfig(segments)
        adder = HeteroGeArAdder(config)
        n = config.n
        laws = ["commutativity", "block0_exact"]
        if config.never_overestimates:
            laws.append("approx_le_exact")
        label = "-".join(f"{r}p{p}" for r, p in segments)
        oracles.append(Oracle(
            name=f"hetero/{label}",
            family="hetero",
            description=f"{config.name} behavioural adder",
            operand_bits=(n, n),
            golden=lambda a, b, _m=(1 << n) - 1: (
                (np.asarray(a, dtype=np.int64) & _m)
                + (np.asarray(b, dtype=np.int64) & _m)
            ),
            paths={
                "window": adder.add,
                "partsim": HeteroGeArAdder(
                    config, eval_mode="partsim"
                ).add,
                "pure_python": hetero_pure_python(config),
            },
            laws=tuple(laws),
            error_cap=None,
            meta={"config": config},
        ))
    return oracles


def _mul2x2_oracles() -> List[Oracle]:
    oracles = []
    for name in MULTIPLIER_2X2_NAMES:
        spec = multiplier_2x2(name)
        oracles.append(Oracle(
            name=f"mul2x2/{name}",
            family="mul2x2",
            description=spec.description,
            operand_bits=(2, 2),
            golden=_golden_mul(2),
            paths=mul2x2_value_paths(spec),
            laws=("commutativity", "zero_annihilates"),
            error_cap=spec.max_error_value,
            meta={"spec": spec},
        ))
    return oracles


def _recmul_oracles() -> List[Oracle]:
    variants = [
        ("Acc4", 4, "AccMul", "none", "AccuFA", 0),
        ("ApxMulOur4", 4, "ApxMulOur", "all", "AccuFA", 0),
        ("ApxMulSoA4", 4, "ApxMulSoA", "all", "AccuFA", 0),
        ("ApxMulOur8", 8, "ApxMulOur", "all", "ApxFA1", 2),
    ]
    oracles = []
    for label, width, leaf, policy, adder_fa, adder_lsbs in variants:
        exact = policy == "none" and adder_lsbs == 0

        def make(mode: str) -> Callable:
            mul = RecursiveMultiplier(
                width, leaf_mul=leaf, leaf_policy=policy,
                adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs,
                eval_mode=mode,
            )
            return mul.multiply

        # The 2x2 leaf tables are all symmetric, but an asymmetric cell
        # in the partial-product reduction adders breaks commutativity.
        laws = ["zero_annihilates"]
        if adder_lsbs == 0 or _symmetric_fa_table(FULL_ADDERS[adder_fa]):
            laws.append("commutativity")
        if exact:
            laws.append("shift_scaling")
        oracles.append(Oracle(
            name=f"recmul/{label}",
            family="recmul",
            description=(
                f"{width}x{width} recursive multiplier "
                f"({leaf} leaves, policy {policy})"
            ),
            operand_bits=(width, width),
            golden=_golden_mul(width),
            paths={
                "lut": make("lut"),
                "loop": make("loop"),
                "partsim": make("partsim"),
            },
            laws=tuple(laws),
            error_cap=0 if exact else None,
            meta={"width": width, "leaf": leaf, "policy": policy},
        ))
    return oracles


def _sad_oracles() -> List[Oracle]:
    n_pixels, pixel_bits = 8, 8
    variants = [("AccuSAD", "AccuFA", 0), ("ApxSAD2", "ApxFA2", 4),
                ("ApxSAD5", "ApxFA5", 4)]
    oracles = []
    for label, fa, lsbs in variants:
        exact = lsbs == 0

        def make(mode: str, _fa=fa, _lsbs=lsbs) -> Callable:
            from ..accelerators.sad import SADAccelerator

            acc = SADAccelerator(
                n_pixels, pixel_bits=pixel_bits, fa=_fa,
                approx_lsbs=_lsbs, eval_mode=mode,
            )
            return acc.sad

        laws = ["nonnegative_output"]
        if exact:
            laws += ["commutativity", "sad_self_zero"]
        oracles.append(Oracle(
            name=f"sad/{label}x{lsbs}",
            family="sad",
            description=(
                f"{n_pixels}-pixel SAD accelerator, {fa} cells on "
                f"{lsbs} LSBs"
            ),
            operand_bits=(),
            golden=lambda a, b: np.abs(
                np.asarray(a, dtype=np.int64)
                - np.asarray(b, dtype=np.int64)
            ).sum(axis=-1),
            paths={
                "fused": make("auto"),
                "loop": make("loop"),
                "partsim": make("partsim"),
            },
            laws=tuple(laws),
            error_cap=0 if exact else None,
            input_gen=_sad_input_gen(n_pixels, pixel_bits),
            meta={"fa": fa, "lsbs": lsbs, "n_pixels": n_pixels},
        ))
    return oracles


def _filter_oracles() -> List[Oracle]:
    size, pixel_bits = 12, 8
    variants = [("Accu", "AccuFA", 0), ("ApxFA1", "ApxFA1", 4)]
    oracles = []
    for label, fa, lsbs in variants:
        exact = lsbs == 0

        def make(mode: str, _fa=fa, _lsbs=lsbs) -> Callable:
            from ..accelerators.filters import LowPassFilterAccelerator

            acc = LowPassFilterAccelerator(
                fa=_fa, approx_lsbs=_lsbs, pixel_bits=pixel_bits,
                eval_mode=mode,
            )

            def path(images):
                return np.stack([acc.apply(img) for img in images])

            return path

        def golden(images):
            from ..accelerators.filters import gaussian3x3_exact

            return np.stack([gaussian3x3_exact(img) for img in images])

        oracles.append(Oracle(
            name=f"filter/{label}x{lsbs}",
            family="filter",
            description=(
                f"3x3 binomial low-pass filter, {fa} cells on "
                f"{lsbs} LSBs"
            ),
            operand_bits=(),
            golden=golden,
            paths={"fast": make("auto"), "loop": make("loop")},
            laws=("bounded_output",),
            error_cap=0 if exact else None,
            input_gen=_filter_input_gen(size, pixel_bits),
            meta={"fa": fa, "lsbs": lsbs, "pixel_bits": pixel_bits},
        ))
    return oracles


@lru_cache(maxsize=1)
def build_registry() -> Dict[str, Oracle]:
    """All component oracles, keyed ``"<family>/<component>"``."""
    registry: Dict[str, Oracle] = {}
    for builder in (_fa_oracles, _ripple_oracles, _gear_oracles,
                    _hetero_oracles, _mul2x2_oracles, _recmul_oracles,
                    _sad_oracles, _filter_oracles):
        for oracle in builder():
            if oracle.name in registry:
                raise ValueError(f"duplicate oracle {oracle.name!r}")
            registry[oracle.name] = oracle
    return registry


def oracle_names() -> List[str]:
    """Registry keys in family order."""
    return list(build_registry())


def get_oracle(name: str) -> Oracle:
    """Look up one oracle by registry key."""
    registry = build_registry()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(registry)
        raise KeyError(f"unknown component {name!r}; known: {known}") from None


def resolve_components(selector: str) -> List[str]:
    """Component names matching a CLI selector.

    ``"all"`` selects everything; a family name (``"gear"``) selects the
    family; otherwise the selector must be an exact registry key.
    Comma-separated selectors union their matches.
    """
    registry = build_registry()
    names: List[str] = []
    for part in selector.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            matched = list(registry)
        elif part in FAMILIES:
            matched = [n for n in registry if n.startswith(part + "/")]
        elif part in registry:
            matched = [part]
        else:
            known = ", ".join(("all",) + FAMILIES)
            raise KeyError(
                f"unknown component selector {part!r}; use {known}, or an "
                f"exact name such as {next(iter(registry))!r}"
            )
        names.extend(n for n in matched if n not in names)
    if not names:
        raise KeyError(f"selector {selector!r} matched no components")
    return names
