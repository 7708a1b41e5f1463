"""Double-integral engine for the nonlocal symmetric difference-quotient energy.

For a field u, domain box U, exponent p and mollifier rho_eps this computes

    F(u, U) = ∫_U ∫ |<u(y) - u(x), y - x>|^p / |y - x|^{2p} rho_eps(y - x) dy dx

with y restricted to U, by a midpoint rule over outer cells and, per outer
node, an inner quadrature in h = y - x coordinates: Gauss nodes in radius on
the mollifier's support bands crossed with a sphere rule in direction, so the
singular |h| factors cancel analytically and only the angular variation is
resolved. Inner nodes leaving U are rejected (zero mask).

Both inner levels, L and 2L (the value and, from the gap, the error bar), run
in one pass: their nodes are the column blocks of one node set of K = K_c +
K_f nodes. The grid is a tensor product and the mask factors per axis, so the
engine's one mask, `_grid_mask`, is built once per call from each axis's N
midpoints. Per axis it tests each midpoint against the extremes of h_k,
which finds the edge rows, those whose x_k + h_k leaves [lo_k, hi_k] for
some node (about 2(eps N + 1) of them); it builds the rows x_k + h_k in
[lo_k, hi_k] of those alone, one all-true row that the interior rows share,
a map from each midpoint to its row, and, for the classes below, a class
key per midpoint. The work is O(N + edge rows x K) per axis, not O(N K).
Only `density_masses` forms the (N^d, d) cell points. A scattered point
is no special case: `local_density` is the one-cell grid over the point.
Where a field has `FieldSpec.kernel_classes(axes, h)` (rigid and linear
fields, and jump cells whose stencil stays on one side, have a kernel that
does not involve x; a jump whose sides share one matrix has a constant jump
vector, so its band cells' kernel involves x only through x.nu), the cells
fall into classes with identical pair rows: equal kernel ids and mask rows.
Ids that vary along one axis alone (an axis normal's) join its mask keys as
their dense rank, and the classes are ranked per axis; other ids refine them
over the N^d cells. Each class's first cell is evaluated and its mass stands
for the others, which gives the bits of evaluating every cell. Classes share
few kernel ids (the criterion-10 jump: 578 classes, 18 ids), so if the ids'
rows fit one block of `_BLOCK_PAIRS` pairs, the call builds them once, |q|^p
taken, from one cell per id into a read-only table that a class's first
cell reads its row from; a jump whose sides' matrices differ has one id per
band cell, so on large grids its classes go through `pair_blocks` one by
one. Fields whose kernel depends on x (sin, bump, sampled) evaluate every
cell. A call cuts its evaluated cells
(the class representatives in class order, or every cell) into
min(workers, count) runs of equal shares, one task each that carries its
cells (and their table rows), the mask and the node scale s = w^(1/p)/|h|^2
(the positive weights folded in, as |q s|^p = |q|^p w/|h|^(2p)); its worker
cuts the run into tiles of t cells (t x K pairs at most) and rebuilds a
tile's x, mask rows (through the maps) and runs of edge cells from the cell
indices by mixed radix. A tile runs one L2-sized block of at most
`_BLOCK_PAIRS` pairs at a time, every step written over the block: the
field's one kernel hook, `FieldSpec.pair_blocks(x, h, s, residual)`, yields
the kernel times s (less <Eu(x) h, h> s for the residual) in one buffer it
reuses, as documented per family, and |q|^p is applied in place, or the
block gathers its rows from the table; the edge runs that meet the block
have their pairs that leave U zeroed, interior cells (about 90% of the
criterion-10 grid) left alone; then one row sum per level. The value is the
pairwise total of the fine level's masses over the N^d cells, first axis
slowest, taken once, which the error bar reuses.

Determinism: a cell's x and mask row do not depend on the worker count, and
`pair_blocks` gives its row, in a fixed node order, bits that do not depend
on its tile or its block (nor, for equal kernel ids, on the cell), so its
mass is the same however the evaluated cells are cut into runs and tiles
and whether its row comes from the table. Each level's total is the one
pairwise tree of `pairwise_total` over the per-cell masses, the same
additions in the same order at any worker count. When the classes are
ranked per axis, `_rank_total` takes that tree without the per-cell
array: while the N rows of the grid halve evenly the tree adds whole rows,
whose cells repeat the classes of their columns, so those additions run
on the class masses, and only the rows left when their count is odd (5 of
320 at criterion 10, 3 of 24 in the 3-d study, all N for odd N) are
expanded per cell. Results are bitwise reproducible across reruns and
across 1, 2 or 8 workers. The default worker count is the number of CPUs
this process may run on. A pool whose worker died is rebuilt once; a
second death raises WorkerError.

The residual variant subtracts the first-order term <Eu(x) h, h>/|h|^2 before
taking absolute values; its small-eps limit isolates the singular part of the
symmetric-gradient measure.
"""

from __future__ import annotations

import atexit
from bisect import bisect_left, bisect_right
import functools
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ModelError,
    ParameterError,
    WorkerError,
)
from . import fields
from .fields import (
    _GAUSS_CAP,
    _REFERENCE_LEVEL,
    DomainBox,
    FieldSpec,
    PlanarJumpField,
    SampledField,
    _cell_integrals,
    _polar_rule,
    _refined,
    _row_blocks,
    _tensor_grid,
    ground_truth,
)
from .mollifiers import MollifierSpec, _check_rules, _is
from .symnorm import make_sphere_rule

__all__ = [
    "EnergyRequest",
    "EnergyResult",
    "energy",
    "local_density",
    "residual_energy",
    "upper_bound_rhs",
    "pairwise_total",
]

_TILE_NODE_BUDGET = 1 << 20  # outer-cells x inner-nodes per tile


def pairwise_total(values) -> float:
    """Sum with a fixed pairwise tree; depends only on the element order."""
    buf = np.array(values, dtype=np.float64).ravel()
    n = buf.size
    while n > 1:
        half = n // 2
        np.add(buf[:half], buf[half : 2 * half], out=buf[:half])
        if n & 1:
            buf[half] = buf[2 * half]
            n = half + 1
        else:
            n = half
    return float(buf[0]) if n else 0.0


@dataclass(frozen=True, eq=False)
class EnergyRequest:
    """One energy evaluation: field, domain, exponent p, mollifier and grids.

    Construction checks each value rule of a request, here and nowhere else:
    p finite and >= 1, outer_grid >= 2 with outer_grid^d < 2^63 cells (the
    engine's int64 cell index), inner_level >= 1, trunc_tol in (0, 1e-2],
    workers None or >= 1 (sizes are integers, not bools), the mollifier's eps
    above 2e-154 (inner_level + 2)^2, which keeps the engine's 1/|h|^2 finite
    at every inner node, and, unless the domain is empty, at both levels an
    inner node that keeps x + h in it for some outer midpoint x (else the
    value is an empty sum with error bar 0). A broken rule raises
    ParameterError whose `key` names the field (`eps` for the eps rule);
    unequal dimensions raise DimensionError.
    """

    field: FieldSpec
    domain: DomainBox
    p: float
    mollifier: MollifierSpec
    outer_grid: int
    inner_level: int = 16
    trunc_tol: float = 1e-10
    workers: int | None = None

    def __post_init__(self):
        real, whole = numbers.Real, numbers.Integral
        p, n, level = self.p, self.outer_grid, self.inner_level
        tol, w = self.trunc_tol, self.workers
        _check_rules(self, {
            "p": (_is(real, p) and 1 <= p < float("inf"), "a finite number >= 1"),
            "outer_grid": (_is(whole, n) and 2 <= n and n ** self.domain.dim < 2**63,
                           "an integer >= 2 with fewer than 2^63 cells"),
            "inner_level": (_is(whole, level) and level >= 1, "an integer >= 1"),
            "trunc_tol": (_is(real, tol) and 0 < tol <= 1e-2, "a number in (0, 1e-2]"),
            "workers": (w is None or (_is(whole, w) and w >= 1), "None or an integer >= 1"),
        })
        if not (self.field.dim == self.domain.dim == self.mollifier.dim):
            raise DimensionError("field, domain and mollifier dimensions must agree")
        object.__setattr__(self, "p", float(self.p))
        # every inner node has |h| >= eps / (2 (level + 2)^2), so 1/|h|^2 < 1e308
        _check_rules(self.mollifier, {"eps": (2 * (level + 2) ** 2 < 1e154 * self.mollifier.eps,
                                              "above 2e-154 (inner_level + 2)^2")})
        # the engine sums over the pairs (x, x + h) in U: each level must keep
        # a pair. Per axis fl(x_k + h_k) is nondecreasing in x_k, so h_k >= 0
        # fits from some midpoint iff from the first, h_k < 0 iff from the
        # last. One mask over both levels' nodes, tested per level's column block
        ends = _midpoints(self.domain, n, np.array([0, n - 1]))[0]
        h = [_inner_nodes(self, k)[0] for k in (level, 2 * level)]
        ok, edge, _ = _grid_mask(self.domain, ends, np.concatenate(h))
        fits = np.logical_and.reduce([o[e].any(axis=0) for o, e in zip(ok, edge)])
        _check_rules(self, {"inner_level": (self.domain.is_empty or (
            fits[: len(h[0])].any() and fits[len(h[0]) :].any()),
            "such that at it and at twice it an inner node keeps x + h in the"
            " domain for some outer midpoint x")})


@dataclass(frozen=True, eq=False)
class EnergyResult:
    value: float
    truncation_radius: float
    samples_outer: int
    samples_inner: int
    elapsed: float
    est_quadrature_error: float


def _resolve_workers(explicit: int | None) -> int:
    if explicit is not None:  # EnergyRequest has checked it
        return explicit
    env = os.environ.get("NLD_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"NLD_THREADS={env!r} is not an integer") from None
        if n < 1:
            raise ConfigError(f"NLD_THREADS={env!r} must be >= 1")
        return n
    try:
        return len(os.sched_getaffinity(0))  # the CPUs this process may run on
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools():
    for ex in _POOLS.values():
        ex.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


def _pool_map(workers: int, fn, tasks: list) -> list:
    """[fn(*task) for task in tasks] on the cached pool of `workers` processes.

    A pool with a dead worker raises BrokenProcessPool from then on, so it
    is dropped from the cache and rebuilt once; if the rebuilt pool breaks
    too, WorkerError is raised.
    """
    for _ in range(2):
        if workers not in _POOLS:
            _POOLS[workers] = ProcessPoolExecutor(max_workers=workers)
        try:
            return list(_POOLS[workers].map(fn, *zip(*tasks)))
        except BrokenProcessPool:
            _POOLS.pop(workers).shutdown(wait=False, cancel_futures=True)
    raise WorkerError(
        f"a worker of the {workers}-process pool died, and again after a rebuild"
    )


# ---------------------------------------------------------------------------
# quadrature assembly


@functools.lru_cache(maxsize=16)
def _level_nodes(family: str, eps: float, dim: int, level: int, trunc_tol: float):
    """Inner nodes H (K, d), weights W (K,), inverse square radii (K,) of one
    level, read-only and cached by value: a request's rules, its energy calls
    and its `replace`d copies build them once: the polar rule's sphere rule of
    `level` crossed with max(2, level // 4) Gauss radii per support band.

    A request takes two levels, and a sweep builds its requests, then reads
    their levels again in the same order, so the cache holds the 16 entries
    of an 8-eps sweep: an LRU cache any smaller misses on every lookup of
    such a sweep."""
    mollifier = MollifierSpec(family, eps, dim)
    h, w, r = _polar_rule(mollifier, level, max(2, level // 4), trunc_tol)
    inv_r2 = 1.0 / (r * r)
    for a in (h, w, inv_r2):
        a.flags.writeable = False
    return h, w, inv_r2


def _inner_nodes(req: EnergyRequest, level: int):
    """`_level_nodes` of the request's mollifier and tolerance."""
    m = req.mollifier
    return _level_nodes(m.family, m.eps, m.dim, level, req.trunc_tol)


def _midpoints(box: DomainBox, n: int, at: np.ndarray | None = None):
    """(axes, cellvol) of the outer grid: column k of axes (n, d) holds the
    midpoints of axis k's n cells (or of its cells `at`); the cells are their
    tensor grid."""
    at = np.arange(n) if at is None else at
    axes = box.lo + (box.hi - box.lo) * (at[:, None] + 0.5) / n
    return axes, box.volume() / n**box.dim


# ---------------------------------------------------------------------------
# outer-grid mask and tile kernel


def _grid_mask(domain: DomainBox, axes: np.ndarray, h: np.ndarray):
    """(ok, edge, key): whether x + h_j lies in the box, for the cells x of the
    tensor grid over `axes` (n, d) and offsets h (K, d), per axis k over its n
    coordinates as given.

    fl(x_k + h_k) is nondecreasing in h_k, so a row x_k passes at every node
    (an interior row) iff x_k + min h_k >= lo_k and x_k + max h_k <= hi_k;
    the other rows are the edge rows. ok[k] (1 + e_k, K) holds the all-true
    row, then lo_k <= x_k + h_k <= hi_k for each of the e_k edge rows, and
    edge[k] (n,) maps each row to its ok[k] row (0 for an interior row). A
    cell's mask row is the AND over k of ok[k][edge[k]] at its digits:
    bitwise `contains(x + h)` without the (n^d, K, d) sum. By the same order,
    the nodes of a row that pass lo_k are those with the largest h_k, and
    those that pass hi_k the smallest: the two counts fix the row (K and K
    for an interior row), and they are its class key key[k] (n,), counted
    over the edge rows alone.
    """
    ok, edge, key = [], [], []
    n, nodes = len(axes), len(h)
    for k in range(domain.dim):
        x, hk, lo, hi = axes[:, k], h[:, k], domain.lo[k], domain.hi[k]
        at = np.flatnonzero((x + np.minimum.reduce(hk, initial=np.inf) < lo)
                            | (x + np.maximum.reduce(hk, initial=-np.inf) > hi))
        y = np.add.outer(x[at], hk)
        above, below = y >= lo, y <= hi
        key.append(np.full(n, nodes * (nodes + 1) + nodes, dtype=np.int64))
        # row counts in int32: a bool row sum into int64 is ~2.5x slower
        n_above = above.sum(axis=1, dtype=np.int32).astype(np.int64)
        key[-1][at] = n_above * (nodes + 1) + below.sum(axis=1, dtype=np.int32)
        ok.append(np.concatenate([np.ones((1, nodes), dtype=bool), above & below]))
        edge.append(np.zeros(n, dtype=np.intp))
        edge[-1][at] = np.arange(1, len(at) + 1)
    return tuple(ok), tuple(edge), tuple(key)


def _radix(digits, sizes) -> np.ndarray:
    """Row-major flat indices, first axis slowest, of the tensor product of the
    per-axis index arrays `digits`, axis k of size sizes[k]."""
    out = np.zeros(1, dtype=np.int64)
    for dig, size in zip(digits, sizes):
        out = np.add.outer(out * size, dig).ravel()
    return out


def _grid_classes(keys: tuple):
    """Mask classes (ranks, first) of the tensor grid, given the per-axis class
    keys of `_grid_mask`.

    ranks[k] (n,) holds each row's dense rank among the distinct keys[k]; a
    class is a tuple of per-axis ranks, and cells with equal ranks have
    bitwise-equal mask rows. first (C_0, .., C_{d-1}), C_k the distinct
    keys[k], holds at [r_0, .., r_{d-1}] the first cell of that class."""
    starts, ranks = zip(*(np.unique(key, return_index=True, return_inverse=True)[1:]
                          for key in keys))
    return ranks, _radix(starts, [len(k) for k in keys]).reshape([len(s) for s in starts])


def _expand(masses: np.ndarray, ranks) -> np.ndarray:
    """The per-cell masses, first axis slowest, of class masses (C_0, ..,
    C_{k-1}) indexed by per-axis ranks (k index arrays), or `masses` itself
    when ranks is None (masses per cell)."""
    return masses if ranks is None else masses[np.ix_(*ranks)].ravel()


def _rank_total(masses: np.ndarray, ranks) -> float:
    """`pairwise_total(_expand(masses, ranks))`, bit for bit, without the
    per-cell array while the tree halves whole rows.

    The expanded array is R = len(ranks[0]) rows of W cells. While R is
    even, the tree's step adds row i + R/2 to row i elementwise, and a row's
    entry at column j is its class row's entry at j's class, the mixed radix
    of j's ranks on the other axes: the step runs on the (R, C_rest) class
    rows with the same additions. Once R is odd (at once for odd R), the
    R x W remainder is expanded by the column ranks and the tree finishes it.
    """
    if ranks is None:
        return pairwise_total(masses)
    rows = masses.reshape(len(masses), -1)[ranks[0]]  # a fresh (R, C_rest) copy
    n = len(rows)
    while n and n % 2 == 0:
        n //= 2
        np.add(rows[:n], rows[n : 2 * n], out=rows[:n])
    return pairwise_total(rows[:n, _radix(ranks[1:], masses.shape[1:])])


def _abs_pow(q: np.ndarray, p: float) -> np.ndarray:
    """|q|^p, written over q."""
    if p == 2.0:
        return np.multiply(q, q, out=q)
    np.abs(q, out=q)
    if p != 1.0:
        np.power(q, p, out=q)
    return q


def _pow_blocks(field, x, h, scale, residual, p):
    """The blocks of `pair_blocks`, |q|^p taken in place."""
    for rows, q in field.pair_blocks(x, h, scale, residual):
        yield rows, _abs_pow(q, p)


def _table_blocks(table, row):
    """(rows, q) blocks of table[row] over len(row) cells, in one reused
    buffer of at most `_BLOCK_PAIRS` pairs, as `pair_blocks` gives them."""
    for rows, q in _row_blocks(len(row), table.shape[1]):
        # mode="clip": the rows are in range, and "raise" copies through a temporary
        yield rows, np.take(table, row[rows], axis=0, out=q, mode="clip")


def _points(axes, digits):
    """The points (m, d) of grid cells given by their per-axis digits."""
    return np.stack([axes[i, k] for k, i in enumerate(digits)], axis=1)


def _run_masses(field, tile, cells, axes, h, scale, split, ok, edge, p, residual, cellvol,
                table=None, row=None):
    """Masses (densities times cell volume), one row per node block
    split[j]:split[j + 1], of cells (start, stop), or an index array in any
    order, of the grid over `axes` (n, d), in consecutive tiles of `tile`
    cells; (ok, edge) is the grid's `_grid_mask`, edge rows only.

    A cell's x comes from its mixed-radix digits, first axis slowest, and
    through edge its per-axis mask rows; a tile's runs of edge cells are
    its cells with an edge row on some axis. Each block of `pair_blocks`
    takes |q|^p in place (or, given a `table` of |q|^p rows, gathers cell
    i's row table[row[i]]), has the pairs that leave U zeroed in the runs
    that meet it (found by bisection), then its row sums.
    """
    idx = np.arange(*cells) if isinstance(cells, tuple) else cells
    (n, d), masses = axes.shape, np.empty((len(split) - 1, len(idx)))
    for a in range(0, len(idx), tile):
        digits = [idx[a : a + tile] // n ** (d - 1 - k) % n for k in range(d)]
        maps = [e[i] for e, i in zip(edge, digits)]  # each cell's ok[k] rows
        at_edge = np.logical_or.reduce(maps)
        flips = np.flatnonzero(np.diff(at_edge, prepend=False, append=False)).tolist()
        starts, stops = flips[::2], flips[1::2]
        blocks = (_pow_blocks(field, _points(axes, digits), h, scale, residual, p)
                  if table is None else _table_blocks(table, row[a : a + tile]))
        for rows, q in blocks:
            lo, hi = rows.start, rows.stop
            meet = slice(bisect_right(stops, lo), bisect_left(starts, hi))
            for r0, r1 in zip(starts[meet], stops[meet]):
                r0, r1 = max(r0, lo), min(r1, hi)
                inside = ok[0][maps[0][r0:r1]]
                for o, r in zip(ok[1:], maps[1:]):
                    inside &= o[r[r0:r1]]
                np.copyto(q[r0 - lo : r1 - lo], 0.0, where=np.logical_not(inside, out=inside))
            for j, m in enumerate(masses):
                q[:, split[j] : split[j + 1]].sum(axis=1, out=m[a + lo : a + hi])
        q = None  # the block buffer goes before the next tile makes its own
    return masses * cellvol


def _class_masses(req: EnergyRequest, levels: tuple, workers: int, residual: bool, grid):
    """(class masses per level, ranks, the last level's inner node count):
    mu^p(x_i) * cellvol of the cells of the (axes, cellvol) grid of
    `_midpoints`, in the form `_expand` takes: per cell (ranks None), or per
    class with each cell's class given by per-axis ranks (d arrays, when the
    kernel ids vary along at most one axis) or by one class id per cell.

    The levels' nodes are the blocks split[j]:split[j + 1] of one node set,
    whose mask, node scale w^(1/p)/|h|^2 and, with kernel classes, the grid's
    mask classes refined by the kernel ids are built once. The evaluated cells,
    each class's first cell in class order or else every cell, go in
    min(workers, count) runs of equal shares, one `_run_masses` task each, on
    the pool when there are several, with the table of the distinct kernel
    ids' |q|^p rows if they fit one block. No node's pair rows depend on the
    others, so a level has the bits of its run alone.
    """
    nodes = [_inner_nodes(req, level) for level in levels]
    split = np.cumsum([0] + [len(n[0]) for n in nodes]).tolist()
    h, w, inv_r2 = (np.concatenate(a) for a in zip(*nodes))
    axes, cellvol = grid
    tile = max(1, _TILE_NODE_BUDGET // max(1, len(h)))
    kernel = req.field.kernel_classes(axes, h)
    ok, edge, keys = _grid_mask(req.domain, axes, h)
    count = len(axes) ** axes.shape[1]
    scale = w ** (1.0 / req.p) * inv_r2
    table = row = ranks = None
    shape = (count,)
    if kernel is not None:
        grid_shape = (len(axes),) * kernel.ndim
        varies = [k for k, m in enumerate(kernel.shape) if m > 1]
        if len(varies) <= 1:  # the ids' dense rank joins the varying axis's mask keys
            _, start, rank = np.unique(kernel, return_index=True, return_inverse=True)
            keys = [key + (key.max() + 1) * rank.ravel() if [k] == varies else key
                    for k, key in enumerate(keys)]
        ranks, first = _grid_classes(keys)
        if len(varies) > 1:  # the classes refined by the ids over the cells
            ids = kernel * first.size + _radix(ranks, first.shape).reshape(grid_shape)
            _, first, ids = np.unique(ids.ravel(), return_index=True, return_inverse=True)
            ranks = (ids,)
        shape, first = first.shape, first.ravel()
        count, at = len(first), np.unravel_index(first, grid_shape)  # the classes' first cells
        # row: each class's kernel id as its rank; reps: a cell of each rank
        if len(varies) > 1:  # ranked over the classes
            _, start, row = np.unique(np.broadcast_to(kernel, grid_shape)[at],
                                      return_index=True, return_inverse=True)
            reps = tuple(i[start] for i in at)
        else:
            row = np.broadcast_to(rank.reshape(kernel.shape), grid_shape)[at]
            reps = np.unravel_index(start, kernel.shape)
        if len(start) * len(h) <= fields._BLOCK_PAIRS:
            table = np.empty((len(start), len(h)))
            for rows, q in _pow_blocks(req.field, _points(axes, reps), h, scale, residual, req.p):
                table[rows] = q
            table.flags.writeable = False
    runs = min(workers, count)
    cuts = [count * r // runs for r in range(runs + 1)]
    tasks = [(req.field, tile, (a, b) if kernel is None else first[a:b], axes, h, scale, split,
              ok, edge, req.p, residual, cellvol, table, None if table is None else row[a:b])
             for a, b in zip(cuts[:-1], cuts[1:])]
    parts = _pool_map(workers, _run_masses, tasks) if len(tasks) > 1 else [_run_masses(*tasks[0])]
    masses = np.concatenate(parts, axis=1)
    return [m.reshape(shape) for m in masses], ranks, split[-1] - split[-2]


def _all_masses(req: EnergyRequest, levels: tuple, workers: int, residual: bool, grid):
    """(masses per level, the last level's inner node count): the masses of
    `_class_masses` for every cell of the grid, first axis slowest."""
    masses, ranks, k = _class_masses(req, levels, workers, residual, grid)
    return [_expand(m, ranks) for m in masses], k


def _masses(req: EnergyRequest, residual: bool):
    """(axes of `_midpoints`, the finer level's class masses and ranks (as
    `_class_masses` gives them), inner node count, total,
    est_quadrature_error).

    Both inner levels run in one pass; the masses, the node count and the
    total (`pairwise_total` of the per-cell masses, taken on the classes by
    `_rank_total`) are the finer level's (2 x inner_level), the error
    estimate the gap between the totals of the two levels."""
    if residual:
        if req.p != 1.0:
            raise ParameterError("residual energy is defined for p = 1 only")
        if isinstance(req.field, SampledField):
            raise ModelError("residual energy needs a closed-form gradient")
    workers = _resolve_workers(req.workers)
    if req.domain.is_empty:
        return np.zeros((0, req.domain.dim)), np.zeros(0), None, 0, 0.0, 0.0
    grid = _midpoints(req.domain, req.outer_grid)
    levels = (req.inner_level, 2 * req.inner_level)
    (coarse, fine), ranks, k_fine = _class_masses(req, levels, workers, residual, grid)
    total = _rank_total(fine, ranks)
    return grid[0], fine, ranks, k_fine, total, abs(total - _rank_total(coarse, ranks))


def _evaluate(req: EnergyRequest, residual: bool) -> EnergyResult:
    t0 = time.perf_counter()
    axes, _, _, k_fine, total, est = _masses(req, residual)
    return EnergyResult(
        value=total,
        truncation_radius=req.mollifier.support_radius(req.trunc_tol),
        samples_outer=len(axes) ** req.domain.dim,
        samples_inner=k_fine,
        elapsed=time.perf_counter() - t0,
        est_quadrature_error=est,
    )


def energy(req: EnergyRequest) -> EnergyResult:
    """F(u, U) by midpoint-outer, refined-inner quadrature.

    value comes from the finer inner level (2 x inner_level);
    est_quadrature_error is the gap to the coarser level.
    """
    return _evaluate(req, residual=False)


def residual_energy(req: EnergyRequest) -> EnergyResult:
    """Same engine with the first-order term subtracted (p = 1 only)."""
    return _evaluate(req, residual=True)


def local_density(req: EnergyRequest, x) -> float:
    """mu(x): the inner integral alone at one point, p-th root applied; the
    fine level's mass of the one-cell grid over x, cell volume 1, from the
    two-level pass of `energy`."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (req.domain.dim,):
        raise DimensionError(f"point shape {x.shape} does not match the domain")
    if not bool(req.domain.contains(x)):
        raise DomainError("point lies outside the domain")
    levels = (req.inner_level, 2 * req.inner_level)
    mass = _all_masses(req, levels, 1, False, (x[None], 1.0))[0][1][0]
    return float(mass ** (1.0 / req.p))


def density_masses(req: EnergyRequest, residual: bool = False):
    """(midpoints, masses, est_quadrature_error): the measure the energy sums.

    Shares the energy pipeline so pairwise_total(masses) equals
    energy(req).value bit for bit.
    """
    axes, masses, ranks, _, _, est = _masses(req, residual)
    return _tensor_grid(axes.T), _expand(masses, ranks), est


def upper_bound_rhs(
    field: FieldSpec, box: DomainBox, radius: float, p: float, mollifier: MollifierSpec
) -> float:
    """[Eu]_p(U_R)^p + (2/R^p) ||u||_p(U)^p tail_mass(R), the a-priori bound.

    Valid for fields with an integrable symmetric gradient; jump fields are
    rejected. Both integrals use adaptive tensor Gauss quadrature. p < 1
    raises ParameterError from `ground_truth`.
    """
    if isinstance(field, PlanarJumpField):
        raise ModelError("the upper bound needs a gradient field without jumps")
    if isinstance(field, SampledField):
        raise ModelError("the upper bound needs a closed-form field")
    if not radius > 0:
        raise ParameterError("R must be positive")
    rule = make_sphere_rule(field.dim, _REFERENCE_LEVEL)
    grad_term = ground_truth(field, box.dilate(radius), p, rule).total
    tail = mollifier.tail_mass(radius)
    if tail == 0.0:
        return grad_term

    def norm_p(pts):
        u = field.eval(pts)
        return ((u * u).sum(axis=-1)) ** (0.5 * p)

    u_term = _refined(lambda g: _cell_integrals(norm_p, box, 1, g), 8, _GAUSS_CAP[box.dim], 1e-8)
    return grad_term + (2.0 / radius**p) * float(u_term[0]) * tail
