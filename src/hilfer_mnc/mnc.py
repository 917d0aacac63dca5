"""Modulus-of-continuity measure estimation and a sampled Darbo iteration.

For a piecewise-linear grid function the modulus mu(f, delta) =
sup{|f(z1) - f(z2)| : |z1 - z2| <= delta} is computed exactly from node
geometry: between consecutive "events" (a window endpoint crossing a node)
the window max is convex in the window position and the window min concave,
so their difference is maximized at an event, i.e. with the window start in
{nodes} union {nodes - delta}. On a uniform grid whose spacing divides
delta, every event window is node-aligned, and a running max/min over the
columns of the whole ensemble matrix gives every member's modulus at once.
One sweep of growing windows serves every rung of a delta ladder: it is
read off at each rung's width on its way to the widest. Any other delta,
and every delta on a non-uniform grid, evaluates all members at all event
windows at once, with the extrema of the nodes inside each window taken
from a sparse table of running max/min. Which path each delta takes is
planned once per grid and ladder (_LadderPlan), and a Darbo trace runs one
plan on the seed and on every step's images.

The ensemble-level measure extrapolates mu(ensemble, delta) to delta -> 0
by a least-squares line through the three smallest ladder values, its
intercept in closed form and clamped at zero; half of that limit is the
ball-measure estimate. The Darbo iteration drives an ensemble, held as one
(members, nodes) matrix, through the operator in one batched call per
step, records the measure of the images, and augments them with random
convex combinations (a sampled, hence conservative, convex hull) that the
next step applies. The trace measures the images alone because the
samples cannot raise the measure: mu(conv X) = mu(X), and for the modulus
this holds at every delta, since mu(sum_i l_i u_i, delta) <= max_i mu(u_i,
delta) for convex weights l_i. In floats a sample's modulus can exceed the
images' only by the rounding of its combination, a few ulp, and then the
trace is the closer of the two to the hull's measure. On distinct images
no such excess has been seen; when all images coincide (one seed row)
each sample is the image times a weight sum of 1 +- ulp, and it occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .equations import EquationSpec, apply_operator_batch, near_band
from .errors import DomainError
from .fractional import GridFunction, checked_grid

_ALIGN_TOL = 1e-9
# window entries (rows x starts) per block of the general modulus path: its
# temporaries stay at 256 KB; on a 270 x 129 ladder one block of all rows
# (about 70k entries) measured twice as slow, 16 against 8 ms
_GENERAL_BLOCK = 2**15
_AXIOM_TOL = 1e-12


@dataclass(frozen=True)
class FunctionEnsemble:
    """A finite family of grid functions on one shared node set.

    values has shape (m, n): one member per row, sampled on the n nodes.
    The checks of GridFunction run once on the whole matrix.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes, values = checked_grid(self.nodes, self.values, rows=True)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_matrix(cls, nodes: np.ndarray, values: np.ndarray) -> "FunctionEnsemble":
        """The ensemble of the rows of values; the same as the constructor.

        Every ensemble built from a matrix goes through this name, so
        perfbench/tracer.py can time and count the construction.
        """
        return cls(nodes, values)


def _aligned_steps(h: float, delta: float) -> int | None:
    """Window width in grid steps when the uniform spacing h divides delta."""
    m = delta / h
    mi = int(round(m))
    if mi >= 1 and abs(m - mi) <= _ALIGN_TOL * max(1.0, mi):
        return mi
    return None


def _check_delta(nodes: np.ndarray, delta: float) -> None:
    if not delta > 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    span = nodes[-1] - nodes[0]
    if delta > span * (1.0 + 1e-12):
        raise DomainError(f"delta must not exceed the domain span {span}, got {delta}")


def _interp_clipped(nodes: np.ndarray, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Linear interpolation of every column of cols at each z, clipped per segment.

    cols holds one function per column, sampled at the nodes along axis 0.
    Clipping removes sub-ulp overshoot so window extrema never leave the
    convex hull of the bracketing node values. Returns shape (z.size,
    cols.shape[1]).
    """
    i = np.clip(np.searchsorted(nodes, z, side="right") - 1, 0, nodes.size - 2)
    x0, x1 = nodes[i], nodes[i + 1]
    v0, v1 = cols[i], cols[i + 1]
    t = np.clip((z - x0) / (x1 - x0), 0.0, 1.0)[:, None]
    # v0 + t * (v1 - v0) in place, then clipped into [min(v0, v1), max(v0, v1)]
    val = np.subtract(v1, v0)
    val *= t
    val += v0
    np.maximum(val, np.minimum(v0, v1), out=val)
    return np.minimum(val, np.maximum(v0, v1, out=v1), out=val)


def _modulus_general(nodes: np.ndarray, values: np.ndarray, delta: float) -> float:
    """Largest modulus over the rows of values (or of one row) at delta, on any grid.

    The windows [z, z + delta] start at every event z in nodes or nodes -
    delta, clipped to the domain, and all rows are evaluated at all starts
    at once: the two end values by clipped interpolation, the nodes strictly
    inside from a sparse table of running max/min over all rows. Level k of
    the table holds the extrema of 2^k consecutive nodes; it answers every
    window holding 2^k to 2^(k+1) - 1 inner nodes with two overlapping
    entries and is then folded into level k + 1, so only one level is held
    at a time. As in the aligned sweep, the work runs on the transpose, and
    rows go in blocks of about _GENERAL_BLOCK window entries.
    """
    rows = np.atleast_2d(values)
    last = nodes[-1]
    lo_z = nodes[0]
    hi_z = max(last - delta, lo_z)
    z1 = np.unique(np.clip(np.concatenate([nodes, nodes - delta]), lo_z, hi_z))
    z2 = np.minimum(z1 + delta, last)
    first = np.searchsorted(nodes, z1, side="right")
    count = np.searchsorted(nodes, z2, side="left") - first
    # floor(log2(count)) for count >= 1, exact for integers; -1 when empty
    level = np.where(count > 0, np.frexp(count)[1] - 1, -1)
    by_level = [np.flatnonzero(level == k) for k in range(int(level.max()) + 1)]
    block = max(1, _GENERAL_BLOCK // z1.size)
    best = 0.0
    for r in range(0, rows.shape[0], block):
        cols = rows[r : r + block].T.copy()
        a = _interp_clipped(nodes, cols, z1)
        b = _interp_clipped(nodes, cols, z2)
        wmax, wmin = np.maximum(a, b), np.minimum(a, b, out=a)
        hi = lo = cols
        for k, sel in enumerate(by_level):
            if sel.size:
                left, right = first[sel], first[sel] + count[sel] - (1 << k)
                wmax[sel] = np.maximum(wmax[sel], np.maximum(hi[left], hi[right]))
                wmin[sel] = np.minimum(wmin[sel], np.minimum(lo[left], lo[right]))
            if k + 1 < len(by_level):
                w = 1 << k
                hi = np.maximum(hi[:-w], hi[w:])
                lo = np.minimum(lo[:-w], lo[w:])
        best = max(best, float(np.subtract(wmax, wmin, out=wmax).max()))
    return best


@dataclass(frozen=True)
class _LadderPlan:
    """How the modulus ladder of one grid and one list of deltas is taken, for any rows on that grid.

    deltas holds the deltas as a float vector. On a uniform grid a delta of
    m steps is the max over windows of min(m, n - 1) + 1 consecutive
    values: widths pairs each such width, in increasing order, with the
    indices of its deltas. Every other delta, and every delta on a
    non-uniform grid, takes the exact general path: general lists their
    indices. of checks each delta against the grid (positive, within the
    span), tests the grid for uniformity and plans; moduli runs the plan on
    any rows on nodes. So a loop over ensembles on one grid (darbo_iterate)
    checks and plans once, not once per ensemble.
    """

    nodes: np.ndarray
    deltas: np.ndarray
    general: tuple[int, ...]
    widths: tuple[tuple[int, list[int]], ...]

    @classmethod
    def of(cls, nodes: np.ndarray, deltas: Sequence[float]) -> "_LadderPlan":
        for delta in deltas:
            _check_delta(nodes, delta)
        n = nodes.size
        diffs = nodes[1:] - nodes[:-1]
        h = diffs[0]
        uniform = np.abs(diffs - h).max() <= 1e-12 * abs(h)
        d = np.asarray(deltas, dtype=float)
        general = []
        widths: dict[int, list[int]] = {}
        for i, delta in enumerate(d.tolist()):
            m = _aligned_steps(h, delta) if uniform else None
            if m is None:
                general.append(i)
            else:
                widths.setdefault(min(m, n - 1) + 1, []).append(i)
        return cls(nodes, d, tuple(general), tuple(sorted(widths.items())))

    def moduli(self, values: np.ndarray) -> np.ndarray:
        """Largest modulus over the rows of values (or of one row) at each delta, in delta order.

        hi[j] and lo[j] hold, for every row, the max and min of the window
        of w values starting at node j; combining each with its copy
        shifted by s <= w nodes widens the window to w + s. One pair of
        running matrices grows through the sorted widths and is read off at
        each, so every aligned rung together costs about log2 of the widest
        window in passes. The sweep runs on a contiguous copy of the
        transpose, so each shifted slice is one block of memory; on a
        60 x 129 ensemble that measured about twice as fast as slicing
        columns. Max and min are exact, so overlapping windows change no
        bit. Each general delta is one _modulus_general call for all rows.
        """
        rows = np.atleast_2d(values)
        out = np.empty(self.deltas.size)
        for i in self.general:
            out[i] = _modulus_general(self.nodes, rows, float(self.deltas[i]))
        hi = lo = rows.T.copy()
        w = 1
        for target, at in self.widths:
            while w < target:
                s = min(w, target - w)
                hi = np.maximum(hi[:-s], hi[s:])
                lo = np.minimum(lo[:-s], lo[s:])
                w += s
            out[at] = (hi - lo).max()
        return out

    def estimate(self, values: np.ndarray) -> "MncEstimate":
        """mnc_estimate of the rows of values, on deltas that _checked_ladder has passed."""
        d = self.deltas
        moduli = self.moduli(values)
        mu0 = max(0.0, _fit_intercept(d[-3:].tolist(), moduli[-3:].tolist()))
        return MncEstimate(deltas=d, moduli=moduli, mu0=mu0)


def _modulus_ladder(nodes: np.ndarray, values: np.ndarray, deltas: Sequence[float]) -> np.ndarray:
    """Largest modulus over the rows of values at each delta, in delta order.

    Checks each delta against the grid and plans the ladder for this call
    alone (_LadderPlan); the aligned rungs share one sweep of growing
    windows, every other delta takes the exact general path.
    """
    return _LadderPlan.of(nodes, deltas).moduli(values)


def modulus_of_continuity(f: GridFunction, delta: float) -> float:
    """Exact modulus of continuity of a piecewise-linear grid function."""
    return float(_modulus_ladder(f.nodes, f.values, [delta])[0])


def ensemble_modulus(e: FunctionEnsemble, delta: float) -> float:
    """Largest member modulus at the given delta."""
    return float(_modulus_ladder(e.nodes, e.values, [delta])[0])


def _fit_intercept(x: Sequence[float], y: Sequence[float]) -> float:
    """Intercept of the least-squares line through the points (x, y)."""
    xm = sum(x) / len(x)
    ym = sum(y) / len(y)
    sxx = sum((xi - xm) * (xi - xm) for xi in x)
    sxy = sum((xi - xm) * (yi - ym) for xi, yi in zip(x, y))
    return ym - sxy / sxx * xm


@dataclass(frozen=True)
class MncEstimate:
    """Modulus ladder with its delta -> 0 extrapolation."""

    deltas: np.ndarray
    moduli: np.ndarray
    mu0: float

    @property
    def hausdorff(self) -> float:
        """The ball-measure estimate, half of mu0."""
        return 0.5 * self.mu0

    def __post_init__(self) -> None:
        d = np.asarray(self.deltas, dtype=float)
        m = np.asarray(self.moduli, dtype=float)
        object.__setattr__(self, "deltas", d)
        object.__setattr__(self, "moduli", m)
        if d.shape != m.shape or d.ndim != 1:
            raise DomainError("deltas and moduli must be matching vectors")
        # the ladders are short: Python floats make np.diff's subtraction
        # at a fraction of its call cost, and NaN still fails every test
        ds, ms = d.tolist(), m.tolist()
        if not all(b - a < 0.0 for a, b in zip(ds, ds[1:])):
            raise DomainError("deltas must be strictly decreasing")
        # shrinking delta cannot increase the modulus (ulp slack for the
        # interpolated general path)
        if not all(b - a <= 1e-12 for a, b in zip(ms, ms[1:])):
            raise DomainError("moduli must be nonincreasing along the ladder")
        if not self.mu0 >= 0.0:
            raise DomainError("mu0 must be >= 0")


def _checked_ladder(deltas: Sequence[float]) -> np.ndarray:
    """deltas as a float vector; raises DomainError unless it has 3 or more strictly decreasing entries."""
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise DomainError("deltas needs at least 3 entries")
    if not (np.diff(d) < 0.0).all():
        raise DomainError("deltas must be strictly decreasing")
    return d


def mnc_estimate(e: FunctionEnsemble, deltas: Sequence[float]) -> MncEstimate:
    """Evaluate the modulus ladder and extrapolate to delta -> 0.

    One sweep gives every rung. The limit is the intercept of the
    least-squares line through the three smallest ladder points, clamped at
    zero; half of it estimates the ball measure.
    """
    return _LadderPlan.of(e.nodes, _checked_ladder(deltas)).estimate(e.values)


@dataclass(frozen=True)
class AxiomReport:
    """Estimator-level checks of the monotonicity and convexity axioms.

    Slacks are the largest per-rung violation (<= 0 means the inequality
    held on every rung). Monotonicity is only asserted when e1 really is a
    sub-list of e2.
    """

    monotonicity_applicable: bool
    monotonicity_pass: bool
    monotonicity_slack: float
    convexity_pass: bool
    convexity_slack: float


def _is_sublist(e1: FunctionEnsemble, e2: FunctionEnsemble) -> bool:
    """True when every row of e1 equals some row of e2."""
    same = e1.values[:, None, :] == e2.values[None, :, :]
    return bool(same.all(axis=2).any(axis=1).all())


def mnc_axiom_checks(
    e1: FunctionEnsemble,
    e2: FunctionEnsemble,
    L: float,
    deltas: Sequence[float],
) -> AxiomReport:
    """Per-rung monotonicity (sub-list) and convexity checks.

    Convexity combines the ensembles memberwise over all pairs with weight
    L and compares the combination's modulus against the convex combination
    of the members' moduli, rung by rung.
    """
    if not 0.0 <= L <= 1.0:
        raise DomainError(f"L must lie in [0, 1], got {L}")
    if not np.array_equal(e1.nodes, e2.nodes):
        raise DomainError("ensembles must share one node set")
    d = np.asarray(deltas, dtype=float)
    if d.size < 1:
        raise DomainError("deltas must be nonempty")
    v1, v2 = e1.values, e2.values
    combined = (L * v1[:, None, :] + (1.0 - L) * v2[None, :, :]).reshape(-1, v1.shape[1])
    comb = FunctionEnsemble.from_matrix(e1.nodes, combined)
    plan = _LadderPlan.of(e1.nodes, d)
    m1, m2, mc = (plan.moduli(v) for v in (v1, v2, comb.values))
    mono_slack = float((m1 - m2).max())
    conv_slack = float((mc - (L * m1 + (1.0 - L) * m2)).max())
    applicable = _is_sublist(e1, e2)
    return AxiomReport(
        monotonicity_applicable=applicable,
        monotonicity_pass=(mono_slack <= _AXIOM_TOL) if applicable else True,
        monotonicity_slack=mono_slack,
        convexity_pass=conv_slack <= _AXIOM_TOL,
        convexity_slack=conv_slack,
    )


def darbo_iterate(
    op: EquationSpec,
    seed: FunctionEnsemble,
    p_max: int,
    convex_samples: int,
    deltas: Sequence[float],
    rng_seed: int = 0,
) -> list[MncEstimate]:
    """Measure trace of the sampled Darbo scheme, seed ensemble included.

    Each step replaces the ensemble with the operator images of every
    member, computed in one batched operator call, plus convex_samples
    Dirichlet-weighted convex combinations of those images. Sampling the
    convex hull can only under-estimate its modulus, so a decaying trace is
    evidence in the conservative direction. An image that is not finite
    raises DomainError.

    A step's estimate is taken on its images alone, right after the
    batched call: a convex combination sum_i l_i u_i has modulus at most
    max_i mu(u_i, delta) at every delta (mu(conv X) = mu(X)), so the
    samples cannot raise any rung of the ladder, and the estimate is that
    of the whole ensemble, up to the rounding of the combinations (see the
    module docstring). The samples are drawn and stacked only when a later
    step applies them, so the last step draws none; the operator sees m0,
    m0 + convex_samples, ..., m0 + (p_max - 1) * convex_samples rows.

    The seed is validated as it is built, and the deltas once per trace,
    before any operator application: as mnc_estimate checks them, then each
    against the seed's grid. The modulus ladder is planned once for the
    trace (_LadderPlan: the grid's uniformity test, the aligned window
    widths, the deltas of the general path), and the plan is run on the
    seed and on every step's images, which gives mnc_estimate's bits.
    Every later ensemble is a plain matrix on the seed's nodes, whose
    finiteness the operator call has already checked. The operator bound
    to op and the seed's nodes (equations.near_band) is built once for the
    call, on the calling thread, and passed to every step: f, psi and g
    compiled with their parts in x alone evaluated on the nodes, and the
    grid's operator (near_band describes which operator a grid takes).
    """
    if p_max < 1:
        raise DomainError(f"p_max must be >= 1, got {p_max}")
    if convex_samples < 0:
        raise DomainError(f"convex_samples must be >= 0, got {convex_samples}")
    rng = np.random.default_rng(rng_seed)
    nodes, values = seed.nodes, seed.values
    plan = _LadderPlan.of(nodes, _checked_ladder(deltas))
    trace = [plan.estimate(values)]
    band = near_band(op, nodes)
    for step in range(p_max):
        values = apply_operator_batch(op, nodes, values, band=band)
        trace.append(plan.estimate(values))
        if convex_samples > 0 and step + 1 < p_max:
            weights = rng.dirichlet(np.ones(values.shape[0]), size=convex_samples)
            values = np.vstack([values, weights @ values])
    return trace


@dataclass(frozen=True)
class ContractionCertificate:
    """Comparison functions for the generalized contraction inequality.

    h combines a measure with its phi-transform, upsilon halves (the
    built-in), gamma_cmp is the strictly positive comparison gain, phi is a
    nondecreasing transform (identity by default).
    """

    h: Callable[[float, float], float]
    upsilon: Callable[[float], float]
    gamma_cmp: Callable[[float], float]
    phi: Callable[[float], float]


def default_certificate(gain: float, phi: Callable[[float], float] | None = None) -> ContractionCertificate:
    """Built-ins: h = sum, upsilon = half, gamma_cmp = gain * x."""
    if not 0.0 < gain < 1.0:
        raise DomainError(f"gain must lie in (0, 1), got {gain}")
    return ContractionCertificate(
        h=lambda z1, z2: z1 + z2,
        upsilon=lambda v: 0.5 * v,
        gamma_cmp=lambda v: gain * v,
        phi=(lambda v: v) if phi is None else phi,
    )


def check_certificate_classes(cert: ContractionCertificate, samples: int = 100, seed: int = 7) -> bool:
    """Sampled membership checks for h, upsilon, and gamma_cmp.

    h must dominate max and be subadditive pairwise; upsilon must vanish at
    0 and be nondecreasing; gamma_cmp must vanish at 0 and be positive
    elsewhere. True when every sampled inequality holds.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 10.0, size=(samples, 4))
    for z1, z2, x1, x2 in z:
        if cert.h(z1, z2) < max(z1, z2) - _AXIOM_TOL:
            return False
        if cert.h(z1 + z2, x1 + x2) > cert.h(z1, x1) + cert.h(z2, x2) + _AXIOM_TOL:
            return False
    if abs(cert.upsilon(0.0)) > _AXIOM_TOL:
        return False
    pts = np.sort(rng.uniform(0.0, 10.0, size=samples))
    ups = [cert.upsilon(float(p)) for p in pts]
    if any(b < a - _AXIOM_TOL for a, b in zip(ups, ups[1:])):
        return False
    if abs(cert.gamma_cmp(0.0)) > _AXIOM_TOL:
        return False
    if any(cert.gamma_cmp(float(p)) <= 0.0 for p in pts if p > 0.0):
        return False
    return True


@dataclass(frozen=True)
class StepCheck:
    p: int
    lhs: float
    rhs: float
    allowed_slack: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport:
    gain: float
    factor: float
    steps: tuple[StepCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(s.passed for s in self.steps)


def certificate_inequality_check(
    cert: ContractionCertificate,
    trace: Sequence[MncEstimate],
    factor: float,
    slack: float = 0.05,
) -> InequalityReport:
    """Check h(Q_{p+1}, phi(Q_{p+1})) <= (1 - 2*gain) * h(Q_p, phi(Q_p)).

    gain = (1 - factor)/2, so the right side contracts by exactly the
    certified factor. Each step may overshoot by slack * Q_p to absorb
    grid and extrapolation noise.
    """
    if not 0.0 < factor < 1.0:
        raise DomainError(f"factor must lie in (0, 1), got {factor}")
    if len(trace) < 2:
        raise DomainError("trace needs at least 2 estimates")
    gain = 0.5 * (1.0 - factor)
    m = 1.0 - 2.0 * gain
    steps = []
    for p in range(len(trace) - 1):
        qp = trace[p].hausdorff
        qn = trace[p + 1].hausdorff
        lhs = cert.h(qn, cert.phi(qn))
        rhs = m * cert.h(qp, cert.phi(qp))
        allowed = slack * qp
        steps.append(
            StepCheck(p=p, lhs=lhs, rhs=rhs, allowed_slack=allowed, passed=lhs <= rhs + allowed)
        )
    return InequalityReport(gain=gain, factor=factor, steps=tuple(steps))
