"""Frozen numpy reference of the simulated-annealing placer.

This is the array-based ``place`` the scalar placer in
:mod:`repro.pnr.placer` replaced.  It is kept verbatim so the
equivalence test can assert that the scalar rewrite returns exactly the
same coordinates and cost (``==``, not approximately) for every bundled
design.  Do not "improve" it: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.devices import ResourceKind
from repro.errors import PlacementError, UtilizationOverflowError
from repro.pnr.placer import Placement
from repro.synth.mapper import MappedDesign
from repro.util.rng import as_generator

__all__ = ["reference_place"]

_CHECKED_KINDS = (
    ResourceKind.LUT,
    ResourceKind.FF,
    ResourceKind.BRAM,
    ResourceKind.DSP,
    ResourceKind.IO,
    ResourceKind.BUFG,
)


def _check_capacity(design: MappedDesign) -> None:
    for kind in _CHECKED_KINDS:
        required = design.total.get(kind)
        available = design.device.capacity(kind)
        if required > available:
            raise UtilizationOverflowError(str(kind), required, available)


def _net_weight(width: int) -> float:
    return 1.0 + np.log2(width) / 4.0 if width > 1 else 1.0


def reference_place(
    design: MappedDesign,
    effort: float = 1.0,
    seed: int | np.random.Generator | None = 0,
    initial: dict[str, tuple[float, float]] | None = None,
) -> Placement:
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

    incident: list[np.ndarray] = []
    for i in range(n):
        mask = (src == i) | (dst == i)
        incident.append(np.nonzero(mask)[0])

    min_sep = (sides[:, None] + sides[None, :]) / 2.0

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

    def local_cost(i: int) -> float:
        total = 0.0
        idx = incident[i]
        if idx.size:
            d = np.abs(xy[src[idx]] - xy[dst[idx]]).sum(axis=1)
            total += float((weights[idx] * d).sum())
        if n > 1:
            dx = np.abs(xy[:, 0] - xy[i, 0])
            dy = np.abs(xy[:, 1] - xy[i, 1])
            ox = np.maximum(0.0, min_sep[i] - dx)
            oy = np.maximum(0.0, min_sep[i] - dy)
            ov = ox * oy
            ov[i] = 0.0
            total += 2.5 * float(ov.sum())
        return total

    warm = initial is not None
    schedule_scale = 0.35 if warm else 1.0
    iters = max(40, int(effort * schedule_scale * 60 * n))
    current_cost = cost(xy)
    temperature = max(1.0, current_cost / max(1, n)) * (0.25 if warm else 1.0)
    cooling = 0.985 if iters > 200 else 0.97
    radius = (max(cols, rows) / 4.0) * (0.3 if warm else 1.0)

    block_picks = rng.integers(0, n, size=iters)
    jitters = rng.normal(0.0, 1.0, size=(iters, 2))
    accepts = rng.random(size=iters)

    for step in range(iters):
        i = int(block_picks[step])
        old = xy[i].copy()
        before = local_cost(i)
        sigma = max(0.8, radius)
        xy[i, 0] = float(np.clip(old[0] + jitters[step, 0] * sigma, 1.0, cols - 1.0))
        xy[i, 1] = float(np.clip(old[1] + jitters[step, 1] * sigma, 1.0, rows - 1.0))
        delta = local_cost(i) - before
        if delta <= 0 or accepts[step] < np.exp(-delta / max(temperature, 1e-9)):
            current_cost += delta
        else:
            xy[i] = old
        temperature *= cooling
        radius = max(1.0, radius * cooling)
    current_cost = cost(xy)

    coords = {name: (float(xy[i, 0]), float(xy[i, 1])) for name, i in index.items()}
    return Placement(
        coords=coords,
        cost=current_cost,
        iterations=iters,
        seeded_from_checkpoint=warm,
    )
