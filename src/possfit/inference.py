"""Consumers of possibility contours: upper/lower probabilities of
hypotheses, marginal contours for features of the parameter, and Choquet
upper expectations of loss functions.

Everything here is an optimization of the contour.  Closed-form Gaussian
contours admit exact answers for box and half-space hypotheses and for
linear features (projections of a quadratic form), read off the family the
contour carries (``contour.family``); everything else goes through a common
sampling-plus-refinement search whose budget is carried on the result, since
the search supremum is approximate.  The search draws its candidates from a
proposal family: the ``family=`` argument, by default the contour's own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ._rng import THETA_TAG, theta_key
from .contours import AxisSpec, ContourGrid, PossibilityContour, ordered_map
from .contours import ConfigError, config_float, config_floats, config_int, config_keys
from .families import chi2_sf, gaussian_cov_matrix, gaussian_info_matrix, sample

__all__ = [
    "NoComplementError",
    "SearchBudget",
    "Hypothesis",
    "ProbabilityResult",
    "ChoquetSpec",
    "ChoquetResult",
    "upper_probability",
    "lower_probability",
    "marginal_contour",
    "choquet_upper_expectation",
]

_FIBER_TOL = 1e-8  # slack allowed on g(theta) = phi in the penalty search
_LOSS_GUARD = 1e12  # inner suprema beyond this are treated as unbounded


class NoComplementError(ValueError):
    """Raised when a hypothesis has no representable complement."""


@dataclass(frozen=True)
class SearchBudget:
    """Search effort for approximate suprema: candidate draws from the
    proposal family plus derivative-free refinement iterations."""

    candidates: int = 2000
    refine: int = 100

    def __post_init__(self):
        if self.candidates < 1 or self.refine < 0:
            raise ValueError("budget must allow at least one candidate")


@dataclass(frozen=True)
class Hypothesis:
    """A subset of the parameter space.

    Supported shapes: axis-aligned box (closed, possibly unbounded or
    degenerate), open half-space {a . theta > b}, the complement of a box,
    a finite point set, and a black-box predicate.  Box and half-space
    hypotheses have representable complements; finite sets and predicates do
    not (their complements are reported as "no-complement").
    """

    kind: str  # "box" | "box-complement" | "half-space" | "finite" | "predicate"
    dim: int
    bounds: Optional[np.ndarray] = None  # (d, 2) for box forms
    a: Optional[np.ndarray] = None  # half-space normal
    b: float = 0.0  # half-space offset
    points: Optional[np.ndarray] = None  # (k, d) for finite sets
    fn: Optional[Callable[[np.ndarray], bool]] = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def box(bounds) -> "Hypothesis":
        arr = np.asarray(bounds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("box bounds must be a (d, 2) array of [lo, hi]")
        if np.any(arr[:, 0] > arr[:, 1]):
            raise ValueError("box bounds require lo <= hi on every axis")
        return Hypothesis(kind="box", dim=arr.shape[0], bounds=arr)

    @staticmethod
    def whole_space(dim: int) -> "Hypothesis":
        return Hypothesis.box([[-np.inf, np.inf]] * dim)

    @staticmethod
    def half_space(a, b: float) -> "Hypothesis":
        a = np.asarray(a, dtype=float)
        if a.ndim != 1 or not np.any(a != 0.0):
            raise ValueError("half-space requires a nonzero normal vector")
        return Hypothesis(kind="half-space", dim=a.size, a=a, b=float(b))

    @staticmethod
    def finite_set(points) -> "Hypothesis":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("finite hypothesis needs at least one point")
        return Hypothesis(kind="finite", dim=pts.shape[1], points=pts)

    @staticmethod
    def predicate(fn: Callable[[np.ndarray], bool], dim: int) -> "Hypothesis":
        if not callable(fn):
            raise ValueError("predicate hypothesis requires a callable")
        return Hypothesis(kind="predicate", dim=int(dim), fn=fn)

    @staticmethod
    def from_dict(doc) -> "Hypothesis":
        """The hypothesis a run config's object describes: a half-space (a, b),
        box or box-complement (bounds; null is unbounded), whole-space (dim)
        or finite-set (points); a ConfigError names what is wrong, a key
        its kind does not read too."""
        kind = doc.get("kind") if isinstance(doc, dict) else None
        try:
            if kind == "half-space":
                config_keys(doc, ("kind", "a", "b"))
                return Hypothesis.half_space(
                    config_floats(doc["a"], "a"), config_float(doc["b"], "b"))
            if kind in ("box", "box-complement"):
                config_keys(doc, ("kind", "bounds"))
                h = Hypothesis.box(config_floats(
                    [[-np.inf if lo is None else lo, np.inf if hi is None else hi]
                     for lo, hi in doc["bounds"]], "bounds"))
                return h.complement() if kind == "box-complement" else h
            if kind == "whole-space":
                config_keys(doc, ("kind", "dim"))
                return Hypothesis.whole_space(config_int(doc.get("dim"), "dim"))
            if kind == "finite-set":
                config_keys(doc, ("kind", "points"))
                return Hypothesis.finite_set(config_floats(doc["points"], "points"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {kind} hypothesis: {exc}") from None
        raise ConfigError(
            f"unknown hypothesis kind {kind!r}; expected half-space, box, "
            "box-complement, whole-space, or finite-set"
        )

    # -- set operations ------------------------------------------------------

    def contains(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized membership for a (k, d) array of points."""
        pts = np.atleast_2d(np.asarray(theta, dtype=float))
        if self.kind == "box":
            return np.all(
                (pts >= self.bounds[:, 0]) & (pts <= self.bounds[:, 1]), axis=1
            )
        if self.kind == "box-complement":
            inner = np.all(
                (pts >= self.bounds[:, 0]) & (pts <= self.bounds[:, 1]), axis=1
            )
            return ~inner
        if self.kind == "half-space":
            return pts @ self.a > self.b
        if self.kind == "finite":
            return np.any(
                np.all(pts[:, None, :] == self.points[None, :, :], axis=2), axis=1
            )
        return np.fromiter((bool(self.fn(p)) for p in pts), dtype=bool,
                           count=pts.shape[0])

    def complement(self) -> "Hypothesis":
        """The complementary hypothesis.

        Half-space complements drop the boundary hyperplane; for continuous
        contours the supremum is unaffected.
        """
        if self.kind == "box":
            return Hypothesis(kind="box-complement", dim=self.dim,
                              bounds=self.bounds)
        if self.kind == "box-complement":
            return Hypothesis(kind="box", dim=self.dim, bounds=self.bounds)
        if self.kind == "half-space":
            return Hypothesis.half_space(-self.a, -self.b)
        raise NoComplementError(
            f"no-complement: {self.kind} hypotheses have no representable "
            "complement"
        )

    def describe(self) -> str:
        """One line naming the hypothesis, as reports print it."""
        if self.kind == "half-space":
            return (f"half-space a.theta > b with a={[float(x) for x in self.a]}, "
                    f"b={float(self.b)}")
        if self.kind in ("box", "box-complement"):
            return f"{self.kind} bounds={self.bounds.tolist()}"
        if self.kind == "finite":
            return f"finite set of {self.points.shape[0]} points"
        return "predicate"


@dataclass(frozen=True)
class ProbabilityResult:
    """An upper or lower probability with provenance.

    ``method`` records which path produced the number (exact projection,
    finite enumeration, degenerate fiber, or search); searches are
    approximate, so the budget travels with the value.
    """

    value: float
    method: str
    flags: Tuple[str, ...] = ()
    budget: Optional[SearchBudget] = None

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _family_center(family) -> np.ndarray:
    if hasattr(family, "theta_hat"):
        return np.asarray(family.theta_hat, dtype=float)
    return np.asarray(family.mean, dtype=float)


def _proposal_pool(contour: PossibilityContour, family, size: int, rng) -> np.ndarray:
    """The family's center and ``size`` draws from it, one per row, cut to the
    contour's coordinates: a Dirichlet contour reads the first K-1 of the K
    simplex coordinates its family draws."""
    pool = np.vstack(
        [_family_center(family)[None, :], np.atleast_2d(sample(family, size, rng))]
    )
    return pool if contour.dim is None else pool[:, : contour.dim]


def _contour_values(contour: PossibilityContour, pts: np.ndarray) -> np.ndarray:
    """``[contour(p) for p in pts]`` as one keyed batch; a deterministic
    contour needs no keys."""
    pts = np.atleast_2d(pts)
    if contour.seed is None:
        return contour.evaluate_keyed(pts, [()] * len(pts))
    return contour.evaluate_keyed(pts, [(THETA_TAG, *theta_key(p)) for p in pts])


# ---------------------------------------------------------------------------
# exact Gaussian projections
# ---------------------------------------------------------------------------


def _qf_min_box(J: np.ndarray, center: np.ndarray, bounds: np.ndarray) -> float:
    lo, hi = bounds[:, 0], bounds[:, 1]
    if np.all((center >= lo) & (center <= hi)):
        return 0.0
    x0 = np.clip(center, lo, hi)
    if center.size == 1:
        # in one dimension the projection onto the interval is the minimizer
        e = x0 - center
        return float(e @ J @ e)
    from scipy.optimize import Bounds, minimize

    def fun(th):
        e = th - center
        return float(e @ J @ e), 2.0 * (J @ e)

    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=Bounds(lo, hi),
        options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
    )
    e = res.x - center
    return float(e @ J @ e)


def _exact_gaussian_upper(family, hypothesis: Hypothesis) -> ProbabilityResult:
    J = gaussian_info_matrix(family)
    Sigma = gaussian_cov_matrix(family)
    center = _family_center(family)
    d = center.size
    if hypothesis.kind == "half-space":
        a, b = hypothesis.a, hypothesis.b
        gap = b - float(a @ center)
        q = 0.0 if gap <= 0 else gap**2 / float(a @ Sigma @ a)
        return ProbabilityResult(float(chi2_sf(q, d)), "exact-half-space")
    if hypothesis.kind == "box":
        q = _qf_min_box(J, center, hypothesis.bounds)
        return ProbabilityResult(float(chi2_sf(q, d)), "exact-box")
    # box-complement
    lo, hi = hypothesis.bounds[:, 0], hypothesis.bounds[:, 1]
    if not np.all((center >= lo) & (center <= hi)):
        return ProbabilityResult(1.0, "exact-box-complement")
    qs = []
    for s in range(d):
        for bound in (lo[s], hi[s]):
            if np.isfinite(bound):
                qs.append((bound - center[s]) ** 2 / Sigma[s, s])
    if not qs:
        return ProbabilityResult(0.0, "exact-box-complement",
                                 flags=("empty-hypothesis",))
    return ProbabilityResult(float(chi2_sf(min(qs), d)), "exact-box-complement")


# ---------------------------------------------------------------------------
# sampling + refinement search
# ---------------------------------------------------------------------------


def _seed_points(hypothesis: Hypothesis, center: np.ndarray) -> list:
    seeds = [center]
    if hypothesis.kind == "box":
        seeds.append(
            np.clip(center, hypothesis.bounds[:, 0], hypothesis.bounds[:, 1])
        )
    elif hypothesis.kind == "half-space":
        a, b = hypothesis.a, hypothesis.b
        gap = b - float(a @ center)
        if gap >= 0:
            delta = 1e-9 * (1.0 + abs(b))
            seeds.append(center + (gap + delta) / float(a @ a) * a)
    elif hypothesis.kind == "box-complement":
        lo, hi = hypothesis.bounds[:, 0], hypothesis.bounds[:, 1]
        for s in range(hypothesis.dim):
            for bound, sign in ((lo[s], -1.0), (hi[s], +1.0)):
                if np.isfinite(bound):
                    p = center.copy()
                    p[s] = bound + sign * 1e-9 * (1.0 + abs(bound))
                    seeds.append(p)
    return seeds


def _nm_refine(score, x0: np.ndarray, feasible, maxiter: int,
               fixed_mask=None) -> float:
    """Nelder-Mead ascent of ``score`` inside the feasible region, started at
    a feasible point; infeasible proposals score -inf.  Coordinates pinned by
    ``fixed_mask`` (degenerate box axes) stay at x0, and the search runs over
    the free ones."""
    from scipy.optimize import minimize

    x0 = np.asarray(x0, dtype=float)
    free = np.ones(x0.size, dtype=bool) if fixed_mask is None else ~fixed_mask
    if not free.any():
        return score(x0)

    def neg(z):
        th = x0.copy()
        th[free] = z
        if not feasible(th):
            return np.inf
        return -score(th)

    res = minimize(
        neg,
        x0[free],
        method="Nelder-Mead",
        options={"maxiter": maxiter, "fatol": 1e-12, "xatol": 1e-10},
    )
    best = -neg(res.x)
    return best if np.isfinite(best) else -np.inf


def _search_upper(
    contour: PossibilityContour,
    hypothesis: Hypothesis,
    family,
    budget: SearchBudget,
    seed: int,
) -> ProbabilityResult:
    if family is None:
        raise ValueError(
            "search-based upper_probability needs a proposal family: pass "
            "family=... or use a contour that carries one"
        )
    pool = _proposal_pool(contour, family, budget.candidates, np.random.default_rng(seed))
    center, pool = pool[0], pool[1:]
    cand = [p for p in _seed_points(hypothesis, center) if hypothesis.contains(p)[0]]
    cand = np.vstack(cand + [pool[hypothesis.contains(pool)]]) if cand else pool[
        hypothesis.contains(pool)
    ]
    cand = np.atleast_2d(cand)
    if cand.shape[0] == 0:
        return ProbabilityResult(0.0, "search", flags=("empty-search",),
                                 budget=budget)
    vals = _contour_values(contour, cand)
    best = int(np.argmax(vals))
    score = lambda th: float(contour(th))
    feasible = lambda th: bool(hypothesis.contains(th[None, :])[0])
    fixed = None
    if hypothesis.kind == "box":
        fixed = hypothesis.bounds[:, 0] == hypothesis.bounds[:, 1]
    refined = _nm_refine(score, cand[best], feasible, budget.refine,
                         fixed_mask=fixed)
    value = float(np.clip(max(vals[best], refined), 0.0, 1.0))
    return ProbabilityResult(value, "search", budget=budget)


# ---------------------------------------------------------------------------
# upper / lower probability
# ---------------------------------------------------------------------------


def upper_probability(
    contour: PossibilityContour,
    hypothesis: Hypothesis,
    *,
    family=None,
    budget: Optional[SearchBudget] = None,
    seed: int = 0,
) -> ProbabilityResult:
    """sup of the contour over the hypothesis.

    Exact for box/half-space/box-complement hypotheses on closed-form
    Gaussian contours (from the contour's own family, whatever ``family``
    is) and for finite point sets; otherwise a candidate search (draws from
    the proposal ``family``, by default ``contour.family``, restricted to
    the hypothesis) followed by a local derivative-free refinement.
    """
    budget = budget or SearchBudget()
    if contour.dim is not None and hypothesis.dim != contour.dim:
        raise ValueError(
            f"hypothesis dimension {hypothesis.dim} does not match contour "
            f"dimension {contour.dim}"
        )
    if hypothesis.kind == "finite":
        vals = _contour_values(contour, hypothesis.points)
        return ProbabilityResult(float(np.max(vals)), "finite")
    if contour.kind == "closed-form-gaussian" and hypothesis.kind in (
        "box",
        "half-space",
        "box-complement",
    ):
        return _exact_gaussian_upper(contour.family, hypothesis)
    if hypothesis.kind == "box" and np.all(
        hypothesis.bounds[:, 0] == hypothesis.bounds[:, 1]
    ):
        value = float(contour(hypothesis.bounds[:, 0]))
        return ProbabilityResult(value, "degenerate-fiber")
    return _search_upper(contour, hypothesis, family or contour.family, budget, seed)


def lower_probability(
    contour: PossibilityContour,
    hypothesis: Hypothesis,
    *,
    family=None,
    budget: Optional[SearchBudget] = None,
    seed: int = 0,
) -> ProbabilityResult:
    """1 minus the upper probability of the complement (conjugacy)."""
    comp = hypothesis.complement()
    up = upper_probability(contour, comp, family=family, budget=budget, seed=seed)
    return ProbabilityResult(
        1.0 - up.value, f"conjugate:{up.method}", flags=up.flags, budget=up.budget
    )


# ---------------------------------------------------------------------------
# marginal contours
# ---------------------------------------------------------------------------


def _as_linear_feature(g, dim: Optional[int]):
    """int -> coordinate projection, vector -> linear functional, else None;
    a ValueError for a coordinate or vector that does not fit ``dim``."""
    if isinstance(g, (int, np.integer)):
        if dim is None:
            raise ValueError("coordinate feature needs a contour of known dim")
        if not 0 <= g < dim:
            raise ValueError(f"coordinate {g} is outside [0, {dim})")
        a = np.zeros(dim)
        a[int(g)] = 1.0
        return a
    if isinstance(g, (list, tuple, np.ndarray)) and not callable(g):
        a = np.asarray(g, dtype=float)
        if dim is not None and a.shape != (dim,):
            raise ValueError(f"linear feature has shape {a.shape}, expected ({dim},)")
        return a
    return None


def marginal_contour(
    contour: PossibilityContour,
    g,
    phi_axis: AxisSpec,
    *,
    family=None,
    budget: Optional[SearchBudget] = None,
    seed: int = 0,
    parallelism: int = 1,
) -> ContourGrid:
    """Contour of the feature Phi = g(Theta) on a one-dimensional grid.

    Linear features of a closed-form Gaussian contour are exact: the marginal
    is the one-dimensional Gaussian contour with mean g(theta_hat) and
    variance g' J(xi)^{-1} g (the delta-method projection of the contour's
    family).
    Anything else is the literal supremum over the fiber {g(theta) = phi},
    found by a penalty search seeded at the candidate closest to the fiber;
    unreachable phi values get contour 0 and are listed in meta["infeasible"].
    """
    budget = budget or SearchBudget()
    a = _as_linear_feature(g, contour.dim)
    axis = (
        dataclasses.replace(phi_axis, name="phi") if phi_axis.name is None
        else phi_axis
    )
    phis = axis.points()

    if a is not None and contour.kind == "closed-form-gaussian":
        center = float(a @ _family_center(contour.family))
        v = float(a @ gaussian_cov_matrix(contour.family) @ a)
        values = chi2_sf((phis - center) ** 2 / v, 1)
        return ContourGrid(
            axes=(axis,),
            values=values,
            kind="marginal",
            meta={"method": "exact-linear", "center": center, "variance": v},
        )

    fam = family or contour.family
    if fam is None:
        raise ValueError(
            "marginal_contour over a general fiber needs a proposal family: "
            "pass family=..."
        )
    from scipy.optimize import minimize

    gf = (lambda th: float(th @ a)) if a is not None else (
        lambda th: float(g(np.asarray(th, dtype=float)))
    )
    pool = _proposal_pool(contour, fam, budget.candidates, np.random.default_rng(seed))
    g_pool = np.array([gf(p) for p in pool])

    def solve(phi: float):
        x = pool[int(np.argmin(np.abs(g_pool - phi)))]
        for mu in (1e2, 1e4, 1e6, 1e8):
            res = minimize(
                lambda th: -float(contour(th))
                + mu * max(0.0, abs(gf(th) - phi) - _FIBER_TOL) ** 2,
                x,
                method="Nelder-Mead",
                options={
                    "maxiter": budget.refine,
                    "fatol": 1e-12,
                    "xatol": 1e-12,
                },
            )
            x = res.x
        if abs(gf(x) - phi) > 1e-5:
            return 0.0, True
        return float(np.clip(contour(x), 0.0, 1.0)), False

    solved = ordered_map(solve, phis, parallelism)
    values = np.array([v for v, _ in solved])
    infeasible = [i for i, (_, bad) in enumerate(solved) if bad]
    return ContourGrid(
        axes=(axis,),
        values=values,
        kind="marginal",
        meta={
            "method": "penalty-search",
            "infeasible": infeasible,
            "budget": {"candidates": budget.candidates, "refine": budget.refine},
        },
    )


# ---------------------------------------------------------------------------
# Choquet upper expectation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoquetSpec:
    """Loss and discretization for the Choquet upper expectation."""

    loss: Callable[[np.ndarray], float]
    resolution: int = 200
    budget: SearchBudget = field(default_factory=SearchBudget)

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("Choquet resolution must be at least 2")
        if not callable(self.loss):
            raise ValueError("Choquet loss must be callable")

    @classmethod
    def from_dict(cls, doc) -> "ChoquetSpec":
        """The spec a run config's ``choquet`` object describes: a ``loss`` of
        kind constant (value), linear (a . theta + b; b = 0) or indicator (of
        a hypothesis; inside = 1, outside = 0), and a ``resolution`` (200); a
        ConfigError names what is wrong, a key neither reads too."""
        loss = doc.get("loss") if isinstance(doc, dict) else None
        kind = loss.get("kind") if isinstance(loss, dict) else None
        if kind not in ("constant", "linear", "indicator"):
            raise ConfigError("the choquet block needs a loss of kind constant, "
                              f"linear, or indicator, got {kind!r}")
        try:
            config_keys(doc, ("loss", "resolution"))
            if kind == "constant":
                config_keys(loss, ("kind", "value"))
                value = config_float(loss["value"], "value")
                fn = lambda theta: value
            elif kind == "linear":
                config_keys(loss, ("kind", "a", "b"))
                a, b = config_floats(loss["a"], "a"), config_float(loss.get("b", 0.0), "b")
                fn = lambda theta: float(
                    np.dot(a, np.atleast_1d(np.asarray(theta, dtype=float))) + b)
            else:
                config_keys(loss, ("kind", "hypothesis", "inside", "outside"))
                h = Hypothesis.from_dict(loss["hypothesis"])
                inside = config_float(loss.get("inside", 1.0), "inside")
                outside = config_float(loss.get("outside", 0.0), "outside")
                fn = lambda theta: inside if h.contains(np.atleast_2d(theta))[0] else outside
            return cls(loss=fn, resolution=config_int(doc.get("resolution", 200), "resolution"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid choquet block: {exc}") from None


@dataclass(frozen=True)
class ChoquetResult:
    value: float
    levels: np.ndarray
    sups: np.ndarray
    flags: Tuple[str, ...] = ()

    def __float__(self) -> float:
        return self.value


def choquet_upper_expectation(
    contour: PossibilityContour,
    spec: ChoquetSpec,
    *,
    family=None,
    seed: int = 0,
) -> ChoquetResult:
    """Midpoint Riemann sum over s of sup{loss(theta) : contour(theta) > s}.

    The integrand is nonincreasing in s, so the midpoint error is bounded by
    the integrand's total variation divided by the resolution.  Each inner
    supremum reuses one candidate pool (the family's draws plus its center)
    and is sharpened by a Nelder-Mead climb constrained to the s-cut.  A
    supremum beyond 1e12 aborts the integral: the loss is effectively
    unbounded on the contour's support.
    """
    fam = family or contour.family
    if fam is None:
        raise ValueError(
            "choquet_upper_expectation needs a proposal family: pass family=..."
        )
    pool = _proposal_pool(contour, fam, spec.budget.candidates, np.random.default_rng(seed))
    pi_pool = _contour_values(contour, pool)
    loss_pool = np.array([float(spec.loss(p)) for p in pool])
    levels = (np.arange(spec.resolution) + 0.5) / spec.resolution
    sups = np.empty(spec.resolution)
    flags = set()
    for i, s in enumerate(levels):
        feas = pi_pool > s
        if not feas.any():
            flags.add("empty-level")
            sups[i] = 0.0
            continue
        masked = np.where(feas, loss_pool, -np.inf)
        best = int(np.argmax(masked))
        refined = _nm_refine(
            lambda th: float(spec.loss(th)),
            pool[best],
            lambda th: float(contour(th)) > s,
            spec.budget.refine,
        )
        val = max(float(loss_pool[best]), refined)
        if not np.isfinite(val) or abs(val) > _LOSS_GUARD:
            raise ValueError(
                f"unbounded loss: inner supremum at level s={s:.4f} exceeded "
                f"{_LOSS_GUARD:.0e}"
            )
        sups[i] = val
    return ChoquetResult(
        value=float(np.mean(sups)),
        levels=levels,
        sups=sups,
        flags=tuple(sorted(flags)),
    )
