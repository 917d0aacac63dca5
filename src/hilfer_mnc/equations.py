"""Integral-equation model: nonlinearities, equations, and the operator.

The operator sends alpha to F(x, alpha(x)) + Psi(x, alpha(x)) * I(x) where
I is the fractional integral of the integrand G(t, alpha(t)). Everything is
sampled on alpha's own node set, so repeated application (Picard, Darbo) is
a map on a fixed finite-dimensional space.

The per-node integrals use the product-integration rule on the grid-induced
mesh s = nodes**rho. near_band(eq, nodes) binds an equation to one grid
once: it checks the grid, compiles f, psi and g in one walk each that
evaluates their parts in x alone on the nodes, and holds the grid's
operator with everything an application reads of it. Every application
goes through such a band, the one a loop passes it or one built for the
call, and makes one finiteness test, of its image; only a failed test
checks the parts, to name the first that is not finite. The operator is of
one of three kinds, and near_band alone chooses among them, by the grid
and a: each kind applies itself by one method, integrals(g, a, pref), so an
application makes that one call.

For a = 1 or 2 a row integrates only over panels left of it, where the
kernel (X - s)^(a-1) is the polynomial 1 or X - s, so the rule is
semiseparable of rank a + 1 (Vandebril, Van Barel & Mastronardi, Matrix
Computations and Semiseparable Matrices, JHU Press 2008): above
_INTEGER_MATRIX_MAX_NODES nodes every row combines the prefix sums of the
a moments of each panel (_PanelMoments), with no matrix, tree or band;
the sums are taken in blocks, by products with a triangle of ones.

Otherwise the rule is summed by parts: it takes the first divided
differences of (X - s)_+^(a+1) (the power slopes) against the integrand's
differences, and a boundary term against its first value
(fractional.panel_weights). For moderate grids the operator is the
lower-triangular matrix of these, cached once, column-major, and applied
as one matmul to a small batch and by lower-triangular row panels to a
large one, which skip the zeros above the diagonal (_DenseOperator);
large grids never form it. The entries within one leaf of the diagonal,
and the far blocks no level could interpolate, form the near band and are
evaluated exactly. Each band block holds the undivided panel differences
of the powers (fractional.power_differences) and depends on (nodes, rho,
a) only. Consecutive blocks of one shape, each one leaf below and right of
the last, form a run, and the band stores each run as one stack. An
application divides the integrand differences by the panel widths once
and multiplies each run with one batched matmul. A loop that applies the
operator many times on one grid (Picard in solver.solve, Darbo in
mnc.darbo_iterate) builds the band once and passes it to every
application, which then does per-row work only. Every far block is
interpolated in s at _CHEB_POINTS Chebyshev points of its column cluster
and in X at those of its row cluster, with nested bases on both sides (an
H^2-matrix: Boerm, Efficient Numerical Methods for Non-local Operators,
EMS 2010). Row i shares the cluster of panel i - 1, and the mesh is
continued past T to whole leaves of panels, so every cluster holds at
least a leaf of rows and has points of its own; the rows past T are
computed and dropped. Those factors are built once per (nodes, rho, a) and
cached; they hold O(n) floats, and one application costs near-linear
time, on graded grids too. The band is not cached: at 4097 nodes it takes
4.2 MB, more than all the factors, and near_band builds it on the calling
thread. The kernel writes each band block in place in its stack, and an
application maps the far field in one batched matmul per level and pass,
and per group of far blocks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DomainError, EvaluationError
from .expressions import Expr, _compile, _finite, evaluate, parse
from .fractional import MAX_FLOATS, FracParams, GridFunction, check_nodes, panel_weights, power_differences

_MATRIX_MAX_NODES = 2049
# for a = 1 or 2 the dense matrix serves grids up to this many nodes, and
# the prefix sums of panel moments every larger one
_INTEGER_MATRIX_MAX_NODES = 257
# rows of the dense matrix per panel of its lower-triangular product, and the
# smallest batch that takes it (_DenseOperator)
_PANEL_ROWS = 32
# above it: rows per leaf of the cluster tree, Chebyshev points per cluster,
# Gauss-Legendre points per panel, and the admissibility factor: a block is
# interpolated when neither cluster is wider than this factor times the gap
# between them
_LEAF_ROWS = 64
_CHEB_POINTS = 20
_GAUSS_POINTS = 11
_ADMISSIBLE = 1.5
# panels per block of the prefix sums (_PanelMoments.integrals), and the
# upper triangle of ones whose product with a block's moments sums them
_PREFIX_BLOCK = 64
_PREFIX_ONES = np.triu(np.ones((_PREFIX_BLOCK, _PREFIX_BLOCK)))
_PREFIX_ONES.flags.writeable = False


@dataclass(frozen=True)
class Nonlinearity:
    """An expression in (x, a) with its declared Lipschitz-in-a constant."""

    expr: Expr
    lipschitz: float

    def __post_init__(self) -> None:
        if not self.lipschitz >= 0.0:
            raise DomainError(f"lipschitz must be >= 0, got {self.lipschitz}")

    @classmethod
    def from_string(cls, src: str, lipschitz: float) -> "Nonlinearity":
        return cls(expr=parse(src), lipschitz=lipschitz)


@dataclass(frozen=True)
class EquationSpec:
    """One equation: additive term f, multiplier psi, integrand g.

    params holds the order parameters and the Gamma_k (or its override)
    that the equation's operator and certificates use.
    """

    params: FracParams
    f: Nonlinearity
    psi: Nonlinearity
    g: Nonlinearity


@dataclass(frozen=True)
class _DenseOperator:
    """The moderate-grid product rule, summed by parts, as the dense matrix c (_weight_matrix).

    The rule summed by parts is

        a (a+1) I(X) = (a+1) (X - s_0)^a g_0 + sum_j d_j(X) (g_j - g_(j+1)),

    d_j the power slopes; integrals differences each integrand, g_0 then
    g_j - g_(j+1), and multiplies the differences by c.T, which is
    C-contiguous as c is stored column-major.

    c is lower-triangular, as I is a Volterra operator: row i reads the
    differences of columns 0 .. i only. A batch of _PANEL_ROWS rows or more
    takes the product by panels of _PANEL_ROWS rows of c, r0 = 1, 1 +
    _PANEL_ROWS, ...: panel r0 .. r1 - 1 multiplies the differences'
    columns 0 .. r1 - 1 by c.T[:r1, r0:r1], so no panel reads the zeros
    above its own diagonal block, nor row 0 of c, whose column is zero.
    That is 10,368 multiply-adds a row at 129 nodes against 16,641 for the
    full square. A smaller batch takes one product dg @ c.T, which costs
    less than the panels' calls. Measured per product, full / panels, in
    us (2-core x86-64 host, one BLAS thread, taskset -c 0, best of 9
    rounds): at 129 nodes 4.8 / 18.0 at m = 1, 14.8 / 17.4 at m = 30, 27.6
    / 25.7 at m = 60 and 138 / 71 at m = 240; at 257 nodes 13.4 / 34.7 at
    m = 1 and 114 / 94 at m = 32; at 1025 nodes 360 / 297 at m = 1 and
    1580 / 1086 at m = 32. So the rule m >= _PANEL_ROWS keeps
    paper-example's one-row Picard applications and its first 30-row Darbo
    batch on the one product and sends its batches of 60 to 240 rows to
    the panels: under the CLI's heap policy (cli._keep_freed_heap) the
    integrals of a Darbo trace's 8 batches took 483-488 us against 772 us
    for the full product. At 129 nodes panels of 16 rows were slower (32
    us at m = 60, 76 at m = 240), and panels of 64 rows faster at m = 60
    (24 us) but slower at m = 240 (99 us). The panels' sums may round
    differently from the full product's, by no more than 1e-14 of |dg| @
    |c|.T: at 129 nodes only in the last column, at m = 32 and 60, and
    from 257 nodes on in many entries.
    """

    c: np.ndarray

    def integrals(self, g: np.ndarray, a: float, pref: float) -> np.ndarray:
        """pref times the integrals of the (m, n) integrands g at every node."""
        m, n = g.shape
        dg = np.empty((m, n))
        # one flat subtraction, then g_0 over column 0: 22.8 against 42.6 us
        # row by row at m = 240, n = 129 (2-core x86-64 host)
        flat = g.reshape(-1)
        np.subtract(flat[:-1], flat[1:], out=dg.reshape(-1)[1:])
        dg[:, 0] = g[:, 0]
        ct = self.c.T
        if m < _PANEL_ROWS:
            total = dg @ ct
        else:
            total = np.empty((m, n))
            total[:, 0] = 0.0
            for r0 in range(1, n, _PANEL_ROWS):
                r1 = min(r0 + _PANEL_ROWS, n)
                np.matmul(dg[:, :r1], ct[:r1, r0:r1], out=total[:, r0:r1])
        total *= pref / (a * (a + 1.0))
        return total


@lru_cache(maxsize=4)
def _weight_matrix(rho: float, a: float, nodes_bytes: bytes, n: int) -> _DenseOperator:
    """The dense operator C, lower-triangular: a (a+1) I = C @ [g_0, g_0 - g_1, g_1 - g_2, ...].

    Row j is panel_weights at X = nodes[j]**rho over the grid-induced
    s-mesh: the boundary term, then the near band's entries over the panel
    widths. Row 0 is zero. C is stored once, column-major, so that C.T,
    which every product reads, is C-contiguous. The build writes C by the
    panels of _PANEL_ROWS rows that the product reads: each panel's rows
    are computed into one row-major buffer, which is copied transposed into
    C.T[:r1, r0:r1]. Writing each row of C straight into its strided column
    of C.T took a median 92 ms against 83 ms at 2049 nodes, and 75 ms for
    a row-major C (2-core x86-64 host, 12 alternating rounds); at 129
    nodes each build takes 1.8 ms.
    """
    nodes = np.frombuffer(nodes_bytes, dtype=float)
    s = nodes**rho
    ct = np.zeros((n, n))
    rows = np.zeros((_PANEL_ROWS, n))
    work = np.empty(2 * n)
    for r0 in range(1, n, _PANEL_ROWS):
        r1 = min(r0 + _PANEL_ROWS, n)
        # row j - r0 keeps zeros past column j: an earlier panel wrote it
        # only up to column j - _PANEL_ROWS
        for j in range(r0, r1):
            rows[j - r0, : j + 1] = panel_weights(s[j], s[: j + 1], a, work)
        ct[:r1, r0:r1] = rows[: r1 - r0, :r1].T
    return _DenseOperator(ct.T)


def _chebyshev_points(lo: float, hi: float) -> np.ndarray:
    """The _CHEB_POINTS Chebyshev points of the first kind on [lo, hi]."""
    half = 0.5 * (hi - lo)
    return (lo + half) + half * np.cos((np.arange(_CHEB_POINTS) + 0.5) * (np.pi / _CHEB_POINTS))


def _lagrange_matrix(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values at x (one row each) of the Lagrange polynomials of the points (one column each).

    Barycentric form, with the weights of the rounded points themselves: the
    textbook Chebyshev weights are off by the points' rounding, which is
    large next to a narrow cluster's width. A point of x that coincides with
    one of the points gets the unit row.
    """
    gaps = (points[:, None] - points) / (points[0] - points[-1])
    np.fill_diagonal(gaps, 1.0)
    weights = 1.0 / gaps.prod(axis=1)
    diff = x[:, None] - points
    hit = diff == 0.0
    diff[hit] = 1.0
    lag = weights / diff
    lag /= lag.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    lag[exact] = hit[exact]
    return lag


def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights summing to 1 of the q-point Gauss-Legendre rule.

    Newton's method on the Legendre polynomial P_q from cosine guesses, with
    P_q and P_(q-1) from the three-term recurrence. (np.linalg.eigh by
    Golub-Welsch gives the same rule, but maps in LAPACK: 0.75 MB of memory.)
    """
    x = np.cos(np.pi * (np.arange(q) + 0.75) / (q + 0.5))
    for _ in range(8):
        prev, cur = np.ones_like(x), x
        for k in range(2, q + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        slope = q * (x * cur - prev) / (x * x - 1.0)
        x = x - cur / slope
    return 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope * slope)


def _clusters(leaves: int, lvl: int) -> int:
    """Clusters at level lvl of a tree with the given number of leaves: ceil(leaves / 2^lvl)."""
    return ((leaves - 1) >> lvl) + 1


@dataclass(frozen=True)
class _H2Operator:
    """The large-grid product rule, summed by parts, as an H^2-matrix.

    s is the mesh nodes**rho continued past T by its last panel width to
    whole leaves of _LEAF_ROWS panels, widths its panel widths diff(s), and
    boundary the column (a+1) (s - s[0])^a of the first integrand value.
    The virtual panels take a zero integrand difference, and the rows past
    T are computed and dropped. Row i > 0 takes panels 0 .. i - 1, so it
    belongs to the cluster of panel i - 1: at level l, of cluster size
    B = _LEAF_ROWS 2^l, cluster k holds panels k B .. (k + 1) B - 1 and
    rows k B + 1 .. (k + 1) B, the last cluster cut at the mesh's end, and
    one set of p = _CHEB_POINTS Chebyshev points on its interval serves
    both. With leaves = len(anterp), level l has _clusters(leaves, l)
    clusters, of which the first leaves >> l hold all their panels; every
    cluster has at least one leaf of rows. The clusters of all levels are
    numbered as one list: level l's are offsets[l] .. offsets[l + 1] - 1.

    exact lists the blocks (r0, r1, c0, c1), rows r0..r1-1 against panels
    c0..c1-1, that are evaluated through power_differences, in order: each
    leaf against itself and the previous leaf, and
    every far block that no level could interpolate, merged where they share
    their rows and meet in panels. runs partitions exact into (first,
    count): the blocks exact[first : first + count] (_runs). anterp maps a
    leaf's panel differences to its moments, and interp a leaf's local
    values to its rows. pairs[l][k] (2p, p) stacks U_2k over U_2k+1, the
    Lagrange polynomials of the points of cluster k of level l + 1 at those
    of its two children (a zero block for the missing child of a partial
    last cluster): moments go up as [M_2k, M_2k+1] @ pairs[l][k], local
    values come down as F @ pairs[l][k].T.

    The row clusters with c far blocks form one group: group g's
    targets[g] (T,) are its row clusters, sources[g] (T, c) their column
    clusters in order, and kernels[g] (T, c p, p) stacks each target's c
    kernels in that order, kernel[q, p] = -(a+1) (X_p - sigma_q)^a. No
    row cluster is in two groups.

    stacks is empty on the cached operator; near_band fills it on the
    band's copy (_band_stacks). stacks[j] holds run runs[j] = (first,
    count) as one C-contiguous (count, c1 - c0, r1 - r0) array: block
    exact[i] = (r0, r1, c0, c1) holds the panel differences of
    (X - s)_+^(a+1) of its limits s[r0:r1] against the mesh s[c0 : c1 + 1],
    in power_differences' (panels, limits) layout. integrals differences
    each integrand, with zeros on the virtual panels, and sums it by
    _h2_sums: the stacks' runs near the diagonal, the far field through the
    tree.
    """

    pairs: tuple[np.ndarray, ...]
    anterp: np.ndarray
    interp: np.ndarray
    s: np.ndarray
    widths: np.ndarray
    boundary: np.ndarray
    exact: tuple[tuple[int, int, int, int], ...]
    runs: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    targets: tuple[np.ndarray, ...]
    sources: tuple[np.ndarray, ...]
    kernels: tuple[np.ndarray, ...]
    stacks: tuple[np.ndarray, ...] = ()

    @property
    def nbytes(self) -> int:
        """Bytes of the stored factors: the arrays above, the far groups' indices included."""
        arrays = [self.anterp, self.interp, self.s, self.widths, self.boundary]
        arrays += [*self.pairs, *self.targets, *self.sources, *self.kernels]
        return sum(x.nbytes for x in arrays)

    def integrals(self, g: np.ndarray, a: float, pref: float) -> np.ndarray:
        """pref times the integrals of the (m, n) integrands g at every node; the rows past T are dropped."""
        m, n = g.shape
        dg = np.empty((m, self.s.shape[0]))
        np.subtract(g[:, :-1], g[:, 1:], out=dg[:, 1:n])
        dg[:, n:] = 0.0
        total = _h2_sums(self, dg[:, 1:], self.boundary * g[:, :1])[:, :n]
        total *= pref / (a * (a + 1.0))
        return total


def _merged(blocks: list[tuple[int, int, int, int]]) -> tuple[tuple[int, int, int, int], ...]:
    """Blocks (r0, r1, c0, c1) with every run on the same rows and adjacent panels joined."""
    out: list[tuple[int, int, int, int]] = []
    for r0, r1, c0, c1 in sorted(blocks):
        if out and out[-1][:2] == (r0, r1) and out[-1][3] == c0:
            out[-1] = (r0, r1, out[-1][2], c1)
        else:
            out.append((r0, r1, c0, c1))
    return tuple(out)


def _runs(exact: tuple[tuple[int, int, int, int], ...]) -> tuple[tuple[int, int], ...]:
    """(first, count) of each maximal run of blocks, in order, that one batched matmul can take.

    A block joins the run of the block before it when it is that block
    moved one leaf down in rows and one leaf right in panels, and has one
    leaf of rows: the run's rows then tile out[:, r0 : r0 + count * leaf],
    and its panels are windows of the integrand one leaf apart.
    """
    leaf = _LEAF_ROWS
    runs: list[tuple[int, int]] = []
    for i, (r0, r1, c0, c1) in enumerate(exact):
        if i and r1 - r0 == leaf and exact[i - 1] == (r0 - leaf, r1 - leaf, c0 - leaf, c1 - leaf):
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((i, 1))
    return tuple(runs)


@lru_cache(maxsize=4)
def _h2_operator(rho: float, a: float, nodes_bytes: bytes, n: int) -> _H2Operator:
    """Build the large-grid operator for one (nodes, rho, a).

    The tree's leaves hold _LEAF_ROWS panels and rows (see _H2Operator),
    and cluster sizes double while a level has three clusters or more. At
    size B, row cluster k meets the columns its parent could not
    interpolate and it can: cluster k - 2 for even k, k - 3 and k - 2 for
    odd k. A block whose clusters are both at most _ADMISSIBLE times as
    wide as the gap between them is interpolated on both sides (Fong &
    Darve's black-box FMM, J. Comput. Phys. 228 (2009) 8712); one that is
    not is split into its child blocks, and evaluated exactly at leaf
    level. Exact blocks on the same rows that meet in panels are merged
    into one, and the merged blocks are grouped into runs (_runs). The
    interpolated blocks are grouped by row cluster (see _H2Operator).
    """
    leaf, p = _LEAF_ROWS, _CHEB_POINTS
    leaves = -(-(n - 1) // leaf)
    end = leaves * leaf
    s = np.frombuffer(nodes_bytes, dtype=float) ** rho
    s = np.concatenate((s, s[-1] + (s[-1] - s[-2]) * np.arange(1, end - n + 2)))
    widths = np.diff(s)
    boundary = (a + 1.0) * (s - s[0]) ** a
    levels = 1
    while _clusters(leaves, levels) >= 3:
        levels += 1
    counts = [_clusters(leaves, lvl) for lvl in range(levels)]
    # where each level's clusters start in the list of all levels
    at = list(accumulate(counts, initial=0))

    def span(lvl: int, k: int) -> tuple[float, float]:
        b = leaf << lvl
        return s[k * b], s[min((k + 1) * b, end)]

    points = [
        np.array([_chebyshev_points(*span(lvl, k)) for k in range(count)]) for lvl, count in enumerate(counts)
    ]
    # each leaf's rows against the previous leaf's panels and its own
    exact = [(r0, r0 + leaf, max(r0 - 1 - leaf, 0), r0 - 1 + leaf) for r0 in range(1, end, leaf)]
    # far blocks (row cluster, column cluster)
    blocks = []

    def place(lvl: int, k: int, c: int) -> None:
        if k >= counts[lvl]:
            # the missing second child of a partial last cluster
            return
        (lo, hi), (c_lo, c_hi) = span(lvl, k), span(lvl, c)
        if max(hi - lo, c_hi - c_lo) <= _ADMISSIBLE * (lo - c_hi):
            blocks.append((at[lvl] + k, at[lvl] + c))
        elif lvl == 0:
            exact.append((k * leaf + 1, (k + 1) * leaf + 1, c * leaf, (c + 1) * leaf))
        else:
            for kk in (2 * k, 2 * k + 1):
                for cc in (2 * c, 2 * c + 1):
                    place(lvl - 1, kk, cc)

    for lvl, count in enumerate(counts):
        for k in range(2, count):
            for c in range(k - 2 - k % 2, k - 1):
                place(lvl, k, c)

    exact = _merged(exact)
    far: dict[int, list[int]] = {}
    for target, source in sorted(blocks):
        far.setdefault(target, []).append(source)
    cheb = np.concatenate(points)
    targets, sources, kernels = [], [], []
    for c in sorted({len(row) for row in far.values()}):
        targets.append(np.array([target for target, row in far.items() if len(row) == c], dtype=np.intp))
        sources.append(np.array([far[target] for target in targets[-1].tolist()], dtype=np.intp))
        kernel = cheb[targets[-1]][:, None, None, :] - cheb[sources[-1]][:, :, :, None]
        kernel **= a
        kernel *= -(a + 1.0)
        kernels.append(kernel.reshape(-1, c * p, p))
    pairs = [np.zeros((count, 2 * p, p)) for count in counts[1:]]
    for lvl, pair in enumerate(pairs):
        for k, pts in enumerate(points[lvl]):
            pair.reshape(-1, p, p)[k] = _lagrange_matrix(points[lvl + 1][k // 2], pts)

    g_nodes, g_weights = _gauss_legendre(_GAUSS_POINTS)
    anterp = np.empty((leaves, leaf, p))
    interp = np.empty((leaves, p, leaf))
    for k in range(leaves):
        mesh = s[k * leaf : (k + 1) * leaf + 1]
        x = mesh[:-1, None] + np.diff(mesh)[:, None] * g_nodes
        lag = _lagrange_matrix(points[0][k], x.ravel()).reshape(leaf, _GAUSS_POINTS, p)
        anterp[k] = np.einsum("jgq,g->jq", lag, g_weights)
        # the leaf's rows are the right ends of its panels
        interp[k] = _lagrange_matrix(points[0][k], mesh[1:]).T
    return _H2Operator(
        tuple(pairs), anterp, interp, s, widths, boundary, exact, _runs(exact), tuple(at),
        tuple(targets), tuple(sources), tuple(kernels),
    )


@dataclass(frozen=True)
class _PanelMoments:
    """The product rule for a = 1 or 2 as prefix sums of panel moments.

    Row i integrates the linear interpolant p_j of the integrand over
    panels j < i only, where the kernel (X - s)^(a-1) is 1 (a = 1) or
    X' - s' (a = 2), primes marking offsets from s0 and X = s_i. With h_j
    the panel widths, the moments

        M0_j = h_j (g_j + g_(j+1)) / 2
        M1_j = s'_j M0_j + h_j^2 (g_j / 6 + g_(j+1) / 3)

    are the integrals of p_j and s' p_j over panel j, so with P0 and P1
    their prefix sums over panels j < i the integral is P0_i at a = 1 and
    X'_i P0_i - P1_i at a = 2: no power, boundary term or summation by
    parts. offsets holds s' at the nodes and half h / 2; M1_j is taken as
    lower_j g_j + upper_j g_(j+1), with lower = h (s' / 2 + h / 6) and
    upper = h (s' / 2 + h / 3) at each panel's left end, sums of positive
    terms. All four are computed once per band from the mesh (s_j - s0 and
    each h_j are exact where s_j <= 2 s0: Sterbenz). integrals sums the
    moments in blocks of _PREFIX_BLOCK panels, each by one product with
    _PREFIX_ONES, which gives np.cumsum's bits.
    """

    offsets: np.ndarray
    half: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray) -> "_PanelMoments":
        h, mid = np.diff(s), 0.5 * (s[:-1] - s[0])
        return cls(s - s[0], 0.5 * h, h * (mid + h / 6.0), h * (mid + h / 3.0))

    def integrals(self, g: np.ndarray, a: float, pref: float) -> np.ndarray:
        """pref times the integrals of the (m, n) integrands g against (X - s)^(a-1) at every node, a = 1 or 2.

        One (a, m, width) array of tiles takes the moments, padded with
        zeros to whole blocks of _PREFIX_BLOCK panels, and past the last
        panel. Each block's first moment first takes the sum of all blocks
        before it, from the blocks' pairwise-summed totals, and then every
        block is summed along itself, so rounding grows with the block
        length, not with n: a sequential sum of all panels erred by up to
        1.3e-14 of |W||g| on smooth integrands at 16385 nodes, the blocked
        one by 3.3e-15. Each moment's blocks are summed by one matmul of
        all of them, as rows, by _PREFIX_ONES. A BLAS kernel sums each
        output over the block in order, and x * 1 + s rounds as s + x, so
        the product has the bits of np.cumsum's sums (but for the sign of a
        zero). numpy hands a single row to gemv, which sums in another
        order, so there are at least two blocks.

        The first moment's product goes one place right in a flat buffer of
        m width + 1 floats: the (m, n) view of rows width apart then has the
        sums through panel i - 1 in column i, and column 0 in the previous
        row's padding. That view is the result, set to zero in column 0 and
        combined in place, so no copy is made and it is not contiguous, as
        the large-grid result is not either. Before the product it is
        scratch for the moments; at a = 2 the second moment's product goes
        in place of the first moment's tiles, so the call takes the memory
        of the moments and of one result. One product of all tiles into a
        buffer of their size took 1164 minor page faults per 30-row call at
        4097 nodes under glibc's default malloc thresholds, against 60 for
        this layout, and 2.9 against 1.1 ms (2-core x86-64 host).
        """
        m, n = g.shape
        blocks = max((n - 1) // _PREFIX_BLOCK + 1, 2)
        width = blocks * _PREFIX_BLOCK
        tiles = np.empty((int(a), m, blocks, _PREFIX_BLOCK))
        padded = tiles.reshape(int(a), m, width)
        padded[..., n - 1 :] = 0.0
        moments = padded[..., : n - 1]
        flat = np.empty(m * width + 1)
        out = np.ndarray((m, n), flat.dtype, flat, 0, (width * flat.itemsize, flat.itemsize))
        np.add(g[:, :-1], g[:, 1:], out=moments[0])
        moments[0] *= self.half
        if a == 2.0:
            np.multiply(g[:, :-1], self.lower, out=moments[1])
            moments[1] += np.multiply(g[:, 1:], self.upper, out=out[:, 1:])
        tiles[..., 1:, 0] += np.cumsum(tiles[..., :-1, :].sum(axis=3), axis=2)
        rows = tiles.reshape(int(a), m * blocks, _PREFIX_BLOCK)
        np.matmul(rows[0], _PREFIX_ONES, out=flat[1:].reshape(-1, _PREFIX_BLOCK))
        if a == 2.0:
            # P1 in place of the first moments' tiles
            np.matmul(rows[1], _PREFIX_ONES, out=rows[0])
            out[:, 1:] *= self.offsets[1:]
            out[:, 1:] -= moments[0]
        out[:, 0] = 0.0
        out *= pref
        return out


@dataclass(frozen=True)
class NearBand:
    """One grid's operator bound to one equation and one nodes array, built by near_band.

    eq and nodes are the objects the band was built for. parts holds eq's
    f, psi and g compiled bound to nodes (expressions._compile), for every
    application to call. op is the grid's operator, of the kind near_band
    chose: a _PanelMoments, a _DenseOperator or an _H2Operator with its
    stacks. Each kind applies itself by one method, op.integrals(g, a,
    pref), which returns pref times the (m, n) fractional integrals of the
    (m, n) integrands g; no caller asks which kind it holds.
    """

    eq: EquationSpec
    nodes: np.ndarray
    op: _DenseOperator | _H2Operator | _PanelMoments
    parts: tuple[Callable, Callable, Callable]


def _band_stacks(op: _H2Operator, a: float) -> tuple[np.ndarray, ...]:
    """The panel differences of every exact block of op, one stack per run, on the calling thread.

    power_differences writes each block straight into its run's stack, in
    the (panels, rows) layout the stack keeps (see _H2Operator), with one
    buffer for the powers shared by every block.
    """
    s = op.s
    work = np.empty(max((r1 - r0) * (c1 - c0 + 1) for r0, r1, c0, c1 in op.exact))
    # the stacks are views of one allocation: with glibc's default malloc
    # thresholds, separate 64 kB blocks, one per leaf, are trimmed from the
    # heap when a band is freed and faulted in again by the next build, which
    # then took 8.0-9.1 ms against 5.5-7.5 ms at 4097 nodes (2-core x86-64 host)
    flat = np.empty(sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in op.exact))
    stacks = []
    for first, count in op.runs:
        r0, r1, c0, c1 = op.exact[first]
        rows, cols = r1 - r0, c1 - c0
        w = work[: rows * (cols + 1)].reshape(cols + 1, rows)
        stack, flat = flat[: count * rows * cols].reshape(count, cols, rows), flat[count * rows * cols :]
        for block, (r0, r1, c0, c1) in zip(stack, op.exact[first : first + count]):
            power_differences(s[r0:r1], s[c0 : c1 + 1], a, w, block)
        stacks.append(stack)
    return tuple(stacks)


def _h2_sums(op: _H2Operator, dg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row sums sum_j d_j(s[i]) * dg[:, j] at every node i of op.s, through op, added to out.

    d_j(X) = ((X - s_(j+1))_+^(a+1) - (X - s_j)_+^(a+1)) / (s_(j+1) - s_j)
    is the power slope of panel j, s = op.s is the mesh continued past T,
    and dg has one column per panel of it, zero past T. out, an (m, s.size)
    array, takes the sums and is returned.

    op.stacks holds the panel differences of op.exact, one stack per run
    of op.runs (_band_stacks). The exact blocks take the integrand
    differences divided by the panel widths, c = dg / op.widths, computed
    once. Each run of count blocks of shape (rows, cols) multiplies the
    (count, m, cols) window view of c that starts at its first block's
    panels and steps one leaf, by its (count, cols, rows) stack, in one
    matmul. The matmul writes block t's (m, rows) product to
    columns t * rows onwards of one (m, count * rows) array, which then
    adds to out[:, r0 : r0 + count * rows] as one (m, count * rows) sum:
    adding a (count, m, rows) product through a transposed view made the
    63-block run of 4097 nodes take 13.6-15.1 ms against 10.5-10.8 ms at
    m = 240 (2-core x86-64 host, one BLAS thread). A run of one block is
    the same call.

    The far field: for X beyond panel j, d_j(X) is -(a+1) times the mean
    of (X - s)^a over the panel, and interpolating (X - s)^a in s at a
    column cluster's p = op.anterp.shape[2] points sigma_q turns its
    panels into the moments M_q = sum_j <l_q>_j dg_j. The moments of all
    levels are held in one (m, clusters, p) array, numbered as in
    op.offsets, and so are the local values: each row holds a parent's two
    children side by side. The up pass maps each level's full children,
    viewed as (parents, m, 2p), by op.pairs in one matmul. Each far group
    maps its gathered (T, m, c p) source moments by its kernels in one
    matmul and assigns the products to its targets. The down pass adds
    each level's parents' local values, by the transposed pairs in one
    matmul, to their children's, and each leaf interpolates its own to its
    rows.
    """
    m = dg.shape[0]
    if m == 0:
        # an empty c is a buffer of no bytes, which holds no window at an offset
        return out
    c = dg / op.widths
    step = (_LEAF_ROWS * c.itemsize, c.strides[0], c.itemsize)
    for (first, count), stack in zip(op.runs, op.stacks):
        r0, r1, c0, c1 = op.exact[first]
        rows, cols = r1 - r0, c1 - c0
        # a view of c's buffer, bounds-checked against it: np.ndarray builds
        # it in about 1 us, np.lib.stride_tricks.as_strided in 5-20 us
        window = np.ndarray((count, m, cols), c.dtype, c, c0 * c.itemsize, step)
        prod = np.empty((m, count * rows))
        np.matmul(window, stack, out=prod.reshape(m, count, rows).transpose(1, 0, 2))
        out[:, r0 : r0 + count * rows] += prod
    leaf, p = _LEAF_ROWS, op.anterp.shape[2]
    leaves, at = op.anterp.shape[0], op.offsets
    # a partial last cluster is never a source, so its moments stay unset;
    # the (clusters, m, p) views hold one (m, p) matrix per cluster
    moments, local = np.empty((m, at[-1], p)), np.zeros((m, at[-1], p))
    cluster_moments, cluster_local = moments.transpose(1, 0, 2), local.transpose(1, 0, 2)
    np.matmul(dg.reshape(m, leaves, leaf).transpose(1, 0, 2), op.anterp, out=cluster_moments[:leaves])
    for lvl, pairs in enumerate(op.pairs):
        full = leaves >> (lvl + 1)
        children = moments[:, at[lvl] : at[lvl] + 2 * full].reshape(m, full, 2 * p).transpose(1, 0, 2)
        parents = cluster_moments[at[lvl + 1] : at[lvl + 1] + full]
        np.matmul(children, pairs[:full], out=parents)
    for targets, sources, kernels in zip(op.targets, op.sources, op.kernels):
        gathered = np.take(moments, sources, axis=1).reshape(m, targets.size, -1)
        local[:, targets] = np.matmul(gathered.transpose(1, 0, 2), kernels).transpose(1, 0, 2)
    for lvl in reversed(range(len(op.pairs))):
        pairs = op.pairs[lvl]
        down = np.empty((m, pairs.shape[0], 2 * p))
        parents = cluster_local[at[lvl + 1] : at[lvl + 2]]
        np.matmul(parents, pairs.transpose(0, 2, 1), out=down.transpose(1, 0, 2))
        local[:, at[lvl] : at[lvl + 1]] += down.reshape(m, -1, p)[:, : at[lvl + 1] - at[lvl]]
    values = np.empty((m, leaves, leaf))
    np.matmul(cluster_local[:leaves], op.interp, out=values.transpose(1, 0, 2))
    out[:, 1:] += values.reshape(m, leaves * leaf)
    return out


def near_band(eq: EquationSpec, nodes: np.ndarray) -> NearBand:
    """eq's operator bound to nodes, to pass to every application of one loop.

    Raises DomainError unless nodes is a grid on eq's domain: a 1-D float64
    np.ndarray (a list is refused: the band is checked by identity, and the
    operator cache reads the array's bytes as float64) of at least two
    nodes, starting at 1, strictly increasing (checked as by
    fractional.checked_grid) and ending at T. Then it does once what each
    application on the grid needs: it compiles f, psi and g bound to the
    nodes, one walk of each tree that evaluates its parts in x alone on
    them, and binds the grid's operator. For a = 1 or 2 above
    _INTEGER_MATRIX_MAX_NODES nodes that is the band's own _PanelMoments,
    computed from the nodes; otherwise it looks the cached operator up by
    the node bytes, and above _MATRIX_MAX_NODES it evaluates the exact
    blocks of the near band, on the calling thread. None of this emits a
    floating-point warning: an overflow shows as a non-finite image in the
    application. A caller that applies the operator many times on one grid
    passes the band to apply_operator_batch or apply_operator; an
    application given no band builds one, and the images, and any error
    raised, are bit for bit the same. The nodes array must not be written
    while the band is in use. The band is not cached: it lives as long as
    the caller keeps it. Its blocks take 4.2 MB at 4097 nodes, and its
    panel moments' coefficients 0.13 MB.
    """
    if not (isinstance(nodes, np.ndarray) and nodes.ndim == 1 and nodes.dtype == np.float64):
        got = f"{nodes.dtype} {nodes.shape}" if isinstance(nodes, np.ndarray) else type(nodes).__name__
        raise DomainError(f"nodes must be a one-dimensional float64 array, got {got}")
    check_nodes(nodes)
    if abs(nodes[-1] - eq.params.T) > 1e-12 * max(1.0, eq.params.T):
        raise DomainError(f"grid ends at {nodes[-1]}, equation domain is [1, {eq.params.T}]")
    parts = tuple(_compile(nl.expr, nodes) for nl in (eq.f, eq.psi, eq.g))
    n, rho, a = nodes.shape[0], eq.params.rho, eq.params.exponent
    if a in (1.0, 2.0) and n > _INTEGER_MATRIX_MAX_NODES:
        return NearBand(eq, nodes, _PanelMoments.of(nodes**rho), parts)
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= _MATRIX_MAX_NODES:
            return NearBand(eq, nodes, _weight_matrix(rho, a, nodes.tobytes(), n), parts)
        op = _h2_operator(rho, a, nodes.tobytes(), n)
        return NearBand(eq, nodes, replace(op, stacks=_band_stacks(op, a)), parts)


def apply_operator_batch(
    eq: EquationSpec, nodes: np.ndarray, values: np.ndarray, *, band: NearBand | None = None
) -> np.ndarray:
    """Operator images of many grid functions at once.

    values, an array or nested lists, has shape (m, n), one row per
    function on the n shared nodes; any other shape raises DomainError, as
    does an image that overflows. band is near_band(eq, nodes), built for
    this eq and this nodes array (checked by identity: any other band
    raises DomainError), or None to build it for this call alone. The image
    is f + psi * I with eq's f, psi and g and I the integral of g by one
    call of band.op.integrals, given the prefactor read now. Each part is
    evaluated once by the band's compiled parts, in the order f, psi, g,
    and the image is computed under the same np.errstate, which ignores
    every floating-point error. Each part is
    used at the shape it evaluates to: a float, the read-only (n,) array a
    part in x alone is bound to, or (m, n). g of another shape goes to the
    integral as a read-only view broadcast to (m, n); the integral only
    reads g, which may be values itself.

    One test, that the image is finite, checks a successful application. A
    part that is not finite always makes the image so: f is added, psi
    multiplies, and every operator carries g into some row, as 0 * inf is
    NaN in the matmuls, the prefix sums and the H^2 sums. The parts are
    checked (expressions._finite) only to name a failure, so the errors are
    those of checking each part as it is evaluated: a part that raises
    while it is evaluated raises EvaluationError ("expression produced a
    non-finite value") for an earlier part that is not finite, else its own
    error; an image that is not finite raises that EvaluationError for the
    first such part in f, psi, g order, else DomainError ("operator image
    is not finite").
    """
    if band is None:
        band = near_band(eq, nodes)
    elif band.eq is not eq or band.nodes is not nodes:
        raise DomainError("the near band was built for another equation or nodes array")
    try:
        shape = np.shape(values)
    except ValueError:  # nested lists of unequal lengths have no shape
        shape = None
    if shape is None or len(shape) != 2 or shape[1] != nodes.shape[0]:
        raise DomainError(f"values must be an (m, {nodes.shape[0]}) matrix on the nodes, got shape {shape}")
    av = np.asarray(values, dtype=float)
    parts = []
    with np.errstate(all="ignore"):
        try:
            for part in band.parts:
                parts.append(part(nodes, av))
        except EvaluationError:
            # an earlier part that is not finite is the first failure
            for value in parts:
                _finite(value)
            raise
        f, psi, g = parts
        if np.shape(g) != shape:
            # only when needed: np.broadcast_to takes 3-6 us a call, which made
            # a 4097-node solve of one-row applications 4.5% slower (2-core x86-64)
            g = np.broadcast_to(g, shape)
        out = band.op.integrals(g, eq.params.exponent, eq.params.prefactor)
        out *= psi
        out += f
    if not np.isfinite(out).all():
        for value in parts:
            _finite(value)
        raise DomainError("operator image is not finite")
    return out


def apply_operator(eq: EquationSpec, alpha: GridFunction, *, band: NearBand | None = None) -> GridFunction:
    """One application of the operator, sampled on alpha's node set; band as for apply_operator_batch."""
    out = apply_operator_batch(eq, alpha.nodes, alpha.values[None, :], band=band)
    return GridFunction(nodes=alpha.nodes, values=out[0])


def _safe_quotients(df: np.ndarray, du: np.ndarray, fmax: np.ndarray) -> np.ndarray:
    """Difference quotients with the evaluation rounding deducted.

    Each numerator carries up to a few ulps of absolute noise from
    evaluating the expression; subtracting 8 eps * max(|f|) before dividing
    keeps every quotient at or below its exact-arithmetic value, so the
    running max is a true lower bound on the Lipschitz constant.
    """
    allow = 8.0 * np.finfo(float).eps * fmax
    return np.maximum(np.abs(df) - allow, 0.0) / du


@lru_cache(maxsize=4)
def _lipschitz_design(r0: float, probes: int, t_end: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """estimate_lipschitz's sample design: the x column, the row of pair ends, and each pair's |right - left|.

    The arrays are read-only: certify checks f, psi and g on one design,
    which costs about 28 us to build (2-core x86-64 host).
    """
    nx = max(2, int(round(math.sqrt(probes))))
    nu = max(3, probes // nx)
    xs = np.linspace(1.0, t_end, nx)
    us = np.linspace(-r0, r0, nu)
    rng = np.random.default_rng(1905)
    pairs = min(4 * nu, 4096)
    u = rng.uniform(-r0, r0, size=pairs)
    v = rng.uniform(-r0, r0, size=pairs)
    keep = np.abs(u - v) > 1e-9 * r0
    # the left ends of every pair, then the right ends
    ends = np.concatenate((us[:-1], u[keep], us[1:], v[keep]))
    left, right = np.split(ends, 2)
    design = (xs[:, None], ends[None, :], np.abs(right - left))
    for array in design:
        array.flags.writeable = False
    return design


def estimate_lipschitz(n: Nonlinearity, r0: float, probes: int, t_end: float) -> float:
    """Empirical Lipschitz-in-a constant on x in [1, t_end], u, v in [-r0, r0].

    probes is the total sample budget, split evenly between the x and u
    axes. The pairs (u, v) form one batch: the adjacent pairs of the u
    grid, then a fixed seeded batch of random pairs, each at least 1e-9 r0
    apart. The expression is evaluated once, at both ends of every pair on
    every x, and the estimate is the max difference quotient over the
    batch; it lower-bounds the true constant and approaches it as the
    budget grows. The design is built once per (r0, probes, t_end) and
    cached (_lipschitz_design). The evaluated design holds about 2 probes
    values, so a count above MAX_FLOATS // 2 raises DomainError before
    anything is allocated.
    """
    if not r0 > 0.0:
        raise DomainError(f"r0 must be positive, got {r0}")
    if probes < 2:
        raise DomainError(f"probes must be >= 2, got {probes}")
    if probes > MAX_FLOATS // 2:
        raise DomainError(
            f"probes must be <= {MAX_FLOATS // 2}, as the sample design holds about 2 probes values, got {probes}"
        )
    xs, ends, du = _lipschitz_design(r0, probes, t_end)
    vals = np.broadcast_to(evaluate(n.expr, xs, ends), (xs.size, ends.size))
    lo, hi = np.split(vals, 2, axis=1)
    fmax = np.maximum(np.abs(lo), np.abs(hi))
    best = float(np.max(_safe_quotients(hi - lo, du, fmax)))
    # one more ulp guard for the division itself
    return best * (1.0 - 1e-14)


def check_zero_conditions(eq: EquationSpec, probes: int) -> bool:
    """True iff f, psi, and g all vanish at a = 0 on every probe x."""
    if probes < 2:
        raise DomainError(f"probes must be >= 2, got {probes}")
    xs = np.linspace(1.0, eq.params.T, probes)
    zero = np.zeros_like(xs)
    for n in (eq.f, eq.psi, eq.g):
        vals = np.asarray(evaluate(n.expr, xs, zero), dtype=float)
        if np.any(np.abs(vals) > 1e-12):
            return False
    return True
