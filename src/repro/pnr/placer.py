"""Simulated-annealing block placement.

Blocks are placed by center coordinate on the device's site grid.  The cost
function is weighted half-perimeter wirelength (Manhattan distance between
connected block centers, weighted by net width) plus a quadratic overlap
penalty keeping footprints apart.  Moves jitter one block's center within a
temperature-scaled radius; the schedule is geometric.  Everything is seeded,
so a placement is a deterministic function of (design, device, effort,
seed) — the property result caching relies on.

Capacity legality (resource overflow, including the pin-overflow case the
boxing step exists to avoid) is checked here, where Vivado reports it.

Each annealing move evaluates the cost terms touching one block twice.
Netlists have only a handful of blocks, so those delta costs run as
scalar Python over precomputed per-block rows: numpy's per-call overhead
would dominate arrays this small.  The scalar terms are summed by
:func:`pairwise_sum`, which adds in exactly the order numpy's float64
``sum`` does, so every placement is bit-identical to the array
formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.devices import ResourceKind
from repro.errors import PlacementError, UtilizationOverflowError
from repro.synth.mapper import MappedDesign
from repro.util.rng import as_generator

__all__ = ["Placement", "pairwise_sum", "place"]

# numpy's pairwise summation: below this many terms it adds sequentially,
# up to the block size it runs eight lane accumulators, above it it halves.
_UNROLL = 8
_BLOCKSIZE = 128

# Kinds whose capacity placement enforces.
_CHECKED_KINDS = (
    ResourceKind.LUT,
    ResourceKind.FF,
    ResourceKind.BRAM,
    ResourceKind.DSP,
    ResourceKind.IO,
    ResourceKind.BUFG,
)


@dataclass
class Placement:
    """Placed block centers plus bookkeeping for routing and checkpoints."""

    coords: dict[str, tuple[float, float]]
    cost: float
    iterations: int
    seeded_from_checkpoint: bool = False

    def distance(self, a: str, b: str) -> float:
        ax, ay = self.coords[a]
        bx, by = self.coords[b]
        return abs(ax - bx) + abs(ay - by)

    def spread(self) -> float:
        """Bounding-box half-perimeter of the whole placement (grid units)."""
        if not self.coords:
            return 0.0
        xs = [c[0] for c in self.coords.values()]
        ys = [c[1] for c in self.coords.values()]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _check_capacity(design: MappedDesign) -> None:
    for kind in _CHECKED_KINDS:
        required = design.total.get(kind)
        available = design.device.capacity(kind)
        if required > available:
            raise UtilizationOverflowError(str(kind), required, available)


def _net_weight(width: int) -> float:
    return 1.0 + np.log2(width) / 4.0 if width > 1 else 1.0


def pairwise_sum(terms: Sequence[float]) -> float:
    """Sum ``terms`` bit-identically to ``float(np.asarray(terms).sum())``.

    Reproduces numpy's float64 pairwise summation order: fewer than eight
    terms add in sequence; up to 128 terms run eight lane accumulators
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` before the tail
    is added; longer inputs split into halves (rounded down to a multiple
    of eight) summed recursively.
    """
    n = len(terms)
    if n < _UNROLL:
        total = 0.0
        for term in terms:
            total += term
        return total
    if n <= _BLOCKSIZE:
        r0, r1, r2, r3, r4, r5, r6, r7 = terms[:_UNROLL]
        body = n - n % _UNROLL
        for k in range(_UNROLL, body, _UNROLL):
            r0 += terms[k]
            r1 += terms[k + 1]
            r2 += terms[k + 2]
            r3 += terms[k + 3]
            r4 += terms[k + 4]
            r5 += terms[k + 5]
            r6 += terms[k + 6]
            r7 += terms[k + 7]
        # numpy seeds the reduction with +0.0, which only matters when
        # every lane holds -0.0.
        total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for k in range(body, n):
            total += terms[k]
        return total
    half = n // 2
    half -= half % _UNROLL
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])


def place(
    design: MappedDesign,
    effort: float = 1.0,
    seed: int | np.random.Generator | None = 0,
    initial: dict[str, tuple[float, float]] | None = None,
) -> Placement:
    """Place ``design`` on its device grid.

    ``initial`` warm-starts annealing from a checkpointed placement (the
    incremental flow); warm starts take a shortened schedule.
    """
    _check_capacity(design)
    rng = as_generator(seed)
    device = design.device
    netlist = design.netlist
    names = [b.name for b in netlist.blocks()]
    n = len(names)
    if n == 0:
        raise PlacementError("cannot place an empty netlist")
    index = {name: i for i, name in enumerate(names)}

    cols, rows = device.grid_cols, device.grid_rows
    sides = np.array(
        [max(1.0, float(design.block_sites(name)) ** 0.5) for name in names]
    )

    # Initial placement: checkpoint coordinates where available, otherwise a
    # row-major strip ordered by connectivity (netlist insertion order is
    # already roughly dataflow order).
    xy = np.empty((n, 2), dtype=np.float64)
    strip_x, strip_y = 2.0, 2.0
    for i, name in enumerate(names):
        if initial is not None and name in initial:
            xy[i] = initial[name]
            continue
        xy[i] = (strip_x, strip_y)
        strip_x += sides[i] + 1.0
        if strip_x > cols - 2:
            strip_x = 2.0
            strip_y += float(sides.max()) + 1.0
            if strip_y > rows - 2:
                strip_y = 2.0
    np.clip(xy[:, 0], 1.0, cols - 1.0, out=xy[:, 0])
    np.clip(xy[:, 1], 1.0, rows - 1.0, out=xy[:, 1])

    nets = netlist.nets()
    if nets:
        src = np.array([index[net.src] for net in nets])
        dst = np.array([index[net.dst] for net in nets])
        weights = np.array([_net_weight(net.width) for net in nets])
    else:
        src = dst = np.zeros(0, dtype=int)
        weights = np.zeros(0)

    min_sep = (sides[:, None] + sides[None, :]) / 2.0

    # Scalar rows for delta-cost evaluation: each block's incident nets as
    # (src, dst, weight) in net order, and its min-separation row.
    net_rows = list(zip(src.tolist(), dst.tolist(), weights.tolist()))
    incident = [
        [row for row in net_rows if row[0] == i or row[1] == i] for i in range(n)
    ]
    sep_rows = min_sep.tolist()

    def wirelength(positions: np.ndarray) -> float:
        if src.size == 0:
            return 0.0
        d = np.abs(positions[src] - positions[dst]).sum(axis=1)
        return float((weights * d).sum())

    def overlap_penalty(positions: np.ndarray) -> float:
        if n < 2:
            return 0.0
        dx = np.abs(positions[:, 0, None] - positions[None, :, 0])
        dy = np.abs(positions[:, 1, None] - positions[None, :, 1])
        ox = np.maximum(0.0, min_sep - dx)
        oy = np.maximum(0.0, min_sep - dy)
        overlap = ox * oy
        np.fill_diagonal(overlap, 0.0)
        return float(overlap.sum()) / 2.0

    def cost(positions: np.ndarray) -> float:
        return wirelength(positions) + 2.5 * overlap_penalty(positions)

    xs: list[float] = xy[:, 0].tolist()
    ys: list[float] = xy[:, 1].tolist()

    def local_cost(i: int) -> float:
        """Cost terms involving block ``i`` only (for delta evaluation).

        Each term list is summed in numpy's order (see
        :func:`pairwise_sum`).  Overlap terms that are zero are left at
        0.0 in their lane slot: adding ``+0.0`` to a non-negative partial
        sum is exact, so only the nonzero slots matter.
        """
        total = pairwise_sum([
            w * (abs(xs[a] - xs[b]) + abs(ys[a] - ys[b])) for a, b, w in incident[i]
        ])
        if n > 1:
            xi, yi = xs[i], ys[i]
            overlaps = [0.0] * n
            for j, sep in enumerate(sep_rows[i]):
                ox = sep - abs(xs[j] - xi)
                if ox > 0.0 and j != i:
                    oy = sep - abs(ys[j] - yi)
                    if oy > 0.0:
                        overlaps[j] = ox * oy
            total += 2.5 * pairwise_sum(overlaps)
        return total

    warm = initial is not None
    schedule_scale = 0.35 if warm else 1.0
    iters = max(40, int(effort * schedule_scale * 60 * n))
    initial_cost = cost(xy)
    temperature = max(1.0, initial_cost / max(1, n)) * (0.25 if warm else 1.0)
    cooling = 0.985 if iters > 200 else 0.97
    radius = (max(cols, rows) / 4.0) * (0.3 if warm else 1.0)
    x_max, y_max = cols - 1.0, rows - 1.0

    # Pre-draw random streams for the whole schedule (cheaper than per-step).
    block_picks = rng.integers(0, n, size=iters).tolist()
    jitters = rng.normal(0.0, 1.0, size=(iters, 2)).tolist()
    accepts = rng.random(size=iters).tolist()

    for i, (jx, jy), accept in zip(block_picks, jitters, accepts):
        old_x, old_y = xs[i], ys[i]
        before = local_cost(i)
        sigma = max(0.8, radius)
        xs[i] = min(max(old_x + jx * sigma, 1.0), x_max)
        ys[i] = min(max(old_y + jy * sigma, 1.0), y_max)
        delta = local_cost(i) - before
        if not (delta <= 0 or accept < np.exp(-delta / max(temperature, 1e-9))):
            xs[i], ys[i] = old_x, old_y
        temperature *= cooling
        radius = max(1.0, radius * cooling)
    xy[:, 0] = xs
    xy[:, 1] = ys
    current_cost = cost(xy)

    coords = {name: (float(xy[i, 0]), float(xy[i, 1])) for name, i in index.items()}
    return Placement(
        coords=coords,
        cost=current_cost,
        iterations=iters,
        seeded_from_checkpoint=warm,
    )
