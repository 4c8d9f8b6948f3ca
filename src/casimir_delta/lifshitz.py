"""Full finite-temperature Lifshitz engine.

Evaluates the Matsubara sum numerically. Each order's integral over the
transverse wavevector uses one fixed 129-node exp-sinh double-exponential
rule, checked against its nested 65-node sum; whole blocks of orders are
evaluated as one numpy array. A cold
sum, which the tail rule would stop only after hundreds to tens of thousands
of orders, is summed explicitly for a 64-order head and closed with the
Euler-Maclaurin formula, whose integral over the continuous order runs on
the same exp-sinh rule; every sum thus ends. This is the independent oracle
every closed-form perturbative expression is checked against, so its default
tolerances are set far below the acceptance bands (1e-9 vs 0.5-5%). The
zero-frequency TE sphere term cross-checks the engine's n = 0 TE term on an
independent fixed Gauss-Legendre rule, to the same quadrature tolerance.
Each public function runs its whole force, prefactor included, through one
check: a force that is not finite is a ValueError that names the inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dielectric import ApproachVariant, IdealMetal, Plasma, fresnel_coefficients
from .quantities import CODATA2018, finite, positive

_log = logging.getLogger(__name__)


class QuadratureError(RuntimeError):
    """A wavevector integral did not meet the quadrature tolerance."""


def _require_tolerance(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be finite and in (0, 1), got {value!r}")


@dataclass(frozen=True)
class MatsubaraSpec:
    """Truncation control for the sum over xi_n = 2*pi*k_B*T*n/hbar.

    The n = 0 term carries weight 1/2. The sum stops once a geometric tail
    estimate drops below relative_tail_tolerance times the partial sum. A
    sum that would run past 256 orders is instead closed analytically after
    64 (and one still running at 256 is closed there), which leaves far less
    error than the tail tolerance.
    """

    relative_tail_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        _require_tolerance("relative_tail_tolerance", self.relative_tail_tolerance)


@dataclass(frozen=True)
class QuadratureSpec:
    """Control for the semi-infinite transverse-wavevector integrals.

    The integration variable is the dimensionless y = 2*a*q; the integrand
    decays like exp(-y). relative_tolerance bounds, for each Matsubara order
    and for the zero-frequency TE term, the integral's error relative to the
    integral, estimated from its change against the rule at twice the step.
    The orders' exp-sinh rule, whose error about squares when its step is
    halved, takes the square of that relative change; a tolerance below the
    rounding of its sums, 129 x eps ~ 2.9e-14, is a QuadratureError. The
    zero-frequency TE term takes the relative change itself. Either also
    passes when the change is at most ABSOLUTE_FLOOR.
    """

    relative_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        _require_tolerance("relative_tolerance", self.relative_tolerance)


ABSOLUTE_FLOOR = 1e-300  # absolute quadrature tolerance; see QuadratureSpec


@dataclass(frozen=True)
class ParallelPlates:
    """Tag for scenarios.sweep_separation's plate columns; no engine function takes a tag."""


@dataclass(frozen=True)
class SpherePlate:
    """Tag for the sweep's sphere columns, per unit radius: R is checked, never read.
    Both tags stay because perfbench/reference_figures.py builds them."""

    R: float  # m

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", positive("sphere radius", self.R))


# Exp-sinh rule (Takahasi & Mori, Publ. RIMS Kyoto Univ. 9, 721 (1974)) for
# the integral of order n over [y_n, inf): y = y_n + s, s = exp(pi/2 sinh t),
# one trapezoid sum in t over [-4.5, 2] at 128 steps. The ends hold s ~ 2e-31
# and s ~ 300, where the integrands are negligible.
_STEP = 6.5 / 128
_T = -4.5 + np.arange(129) * _STEP
_NODES = np.exp(0.5 * math.pi * np.sinh(_T))  # s
_WEIGHTS = 0.5 * math.pi * np.cosh(_T) * _NODES  # ds/dt
# With r^2 <= 1 both integrands keep one sign, so a sum's rounding is at most
# nodes x eps of it: no quadrature tolerance below this can be met.
_ROUNDING = _NODES.size * np.finfo(float).eps
_MAX_BLOCK = 64  # orders per block
# A sum not stopped within this many orders is closed analytically.
_CLOSE_AFTER = 4 * _MAX_BLOCK


def _order_integrals(values: np.ndarray, quadrature: QuadratureSpec, label: str) -> np.ndarray:
    """The rule's sum for each row of values, an (orders x nodes) block.

    Each row's sum at step h is checked against the nested sum at 2h on every
    other node. Halving a double-exponential step about squares the rule's
    relative error (Mori & Sugihara, J. Comput. Appl. Math. 127, 287 (2001)),
    so a row passes when its change squared is at most the quadrature
    tolerance times its sum squared, or the change is at most ABSOLUTE_FLOOR.
    A row that fails is a QuadratureError, as is a tolerance below the sums'
    rounding; a value that is not finite fails, and is a FloatingPointError.
    """
    tol = quadrature.relative_tolerance
    if tol < _ROUNDING:
        raise QuadratureError(f"{label}: quadrature tolerance {tol:.2e} is below the rule's "
                              f"rounding, {_ROUNDING:.2e}")
    # the sums over nodes are einsum, not @: a BLAS dgemv rounds differently
    # on each CPU kernel OpenBLAS picks, and the engine's values must not
    # depend on the machine
    result = _STEP * np.einsum("ij,j->i", values, _WEIGHTS)
    change = np.abs(result - 2.0 * _STEP * np.einsum("ij,j->i", values[:, ::2], _WEIGHTS[::2]))
    # change^2 <= tol result^2 as change <= sqrt(tol) |result|, which no square
    # underflows; written so that a NaN counts as unmet
    unmet = ~(change <= np.maximum(math.sqrt(tol) * np.abs(result), ABSOLUTE_FLOOR))
    if unmet.any():
        if not np.isfinite(result[unmet]).all():
            raise FloatingPointError(f"{label}: an order integral is not finite")
        i = unmet.argmax()
        raise QuadratureError(f"{label}: not converged (value={result[i]:.6e}, "
                              f"change on halving the step={change[i]:.2e})")
    return result


def _matsubara_sum(
    a: float,
    T: float,
    model: IdealMetal | Plasma,
    approach: ApproachVariant,
    matsubara: MatsubaraSpec,
    quadrature: QuadratureSpec,
    integrand: Callable[[np.ndarray, tuple[np.ndarray, ...]], np.ndarray],
    label: str,
) -> float:
    """Sum' over n of Int_{y_n}^inf integrand(y, rsq) dy, unchecked.

    Orders are taken in blocks, all nodes of a block in one array. The sum
    stops at the first n > 0 whose term is at most the tail tolerance times
    the partial sum through n times (1 - exp(-y1)). A sum that this rule is
    expected to stop only past _CLOSE_AFTER orders sums one block and closes
    the rest with the Euler-Maclaurin formula; any other sum that has not
    stopped by _CLOSE_AFTER orders is closed there. Order 0, with its 1/2
    weight and the modified-TE zero, is always in the explicit head. That
    zero is the prescription, applied here alone: r_TE^2 of row n = 0 is 0;
    under the plasma one that row's r_TE^2 is clamped at 1, as p^2 can round an
    ulp below w^2 at the rule's smallest s, and a log of 1 - r_TE^2 e^-y < 0 is NaN.
    grid alone shapes rsq: (r_TM^2, r_TE^2), or the ideal metal's (1.0,) without that zero.
    """
    # y_n = 2*a*xi_n/c is the lower integration limit of order n and also the
    # decay scale distinguishing successive terms.
    y1 = 4.0 * math.pi * a * CODATA2018.k_B * T / (CODATA2018.hbar * CODATA2018.c)
    decay = 1.0 - math.exp(-y1)
    tail = matsubara.relative_tail_tolerance
    # terms fall off like y_n^2 exp(-y_n), so the sum stops near
    # y_n = L + 2 ln L with L = ln(1/tail): one block holds that many orders,
    # up to the element cap. ln L is clamped at 0, so that a loose tail
    # (L < 1) cannot make the estimate negative and the blocks one order long
    span = math.log(1.0 / tail)
    estimate = (span + 2.0 * max(0.0, math.log(span))) / y1
    stop = math.ceil(estimate) + 1
    block = min(_MAX_BLOCK, stop)
    head = _MAX_BLOCK if estimate > _CLOSE_AFTER else _CLOSE_AFTER
    # blocks of `block` orders, save that the one that would pass `stop`
    # ends there: a sum that stops by the estimate evaluates no order past it
    bounds = [*range(0, min(stop, head), block), *range(stop, head, block), head]
    ideal = isinstance(model, IdealMetal)

    def grid(lower: np.ndarray) -> np.ndarray:
        """The integrand at the rule's nodes past each lower limit (a column)."""
        y = lower + _NODES
        r_tm, r_te = fresnel_coefficients(model, lower, y, 2.0 * a)
        r_tm *= r_tm  # squared in place; the ideal metal's floats rebind
        r_te *= r_te
        # only a block's first row can be n = 0; written, not masked: 0 x NaN is NaN
        if approach is ApproachVariant.MODIFIED_TE and lower[0, 0] == 0.0:
            if ideal:
                r_te = np.full(lower.shape, r_te)  # the ideal metal's 1.0, as a column
            r_te[0] = 0.0
        elif ideal:
            return integrand(y, (r_tm,))  # both r^2 are 1.0: one part, added to itself
        elif lower[0, 0] == 0.0:
            np.minimum(r_te[0], 1.0, out=r_te[0])
        return integrand(y, (r_tm, r_te))

    def orders(u: np.ndarray) -> np.ndarray:
        """The order integral at each lower limit in u, in blocks of _MAX_BLOCK limits."""
        if u.size <= _MAX_BLOCK:
            return _order_integrals(grid(u[:, None]), quadrature, label)
        return np.concatenate([_order_integrals(grid(u[i:i + _MAX_BLOCK, None]), quadrature, label)
                               for i in range(0, u.size, _MAX_BLOCK)])

    total, last = 0.0, np.empty(0)
    for start, end in zip(bounds, bounds[1:]):
        terms = orders(np.arange(start, end) * y1)
        if start == 0:
            terms[0] *= 0.5
        partial = np.cumsum(np.concatenate(([total], terms)))[1:]
        # terms fall off at least like exp(-y1) once n*y1 >> 1; the geometric
        # tail bound |term|/(1 - exp(-y1)) is conservative for all n >= 1
        done = np.abs(terms) <= tail * np.abs(partial) * decay
        if start == 0:
            done[0] = False
        i = done.argmax()
        if done[i]:
            return float(partial[i])
        total = float(partial[-1])
        last = np.concatenate((last, terms))[-2:]

    # Euler-Maclaurin (Abramowitz & Stegun 23.1.30) for f(x) = F(x y1), F the
    # order integral at a continuous lower limit: sum_{n>=N} f(n) =
    # (1/y1) Int_{N y1}^inf F(u) du + f(N)/2 - f'(N)/12 + f'''(N)/720, the
    # derivatives by central differences over orders N-2..N+2. One orders()
    # pass evaluates f(N), f(N+1), f(N+2) and F at the outer rule's limits
    # edge + s, edge = N y1, whose sum is the outer integral. The rule's
    # smallest s (from 2e-31 up) lie below half an ulp of the edge, so the
    # first dozen or so limits round to the edge itself: they take f(N) and
    # are not passed.
    edge = head * y1
    limits = edge + _NODES
    same = int(np.searchsorted(limits, edge, side="right"))
    first = orders(np.concatenate((np.arange(head, head + 3) * y1, limits[same:])))
    f = np.concatenate((last, first[:3])).tolist()
    d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / 12.0
    d3 = (-f[0] + 2.0 * f[1] - 2.0 * f[3] + f[4]) / 2.0
    values = np.concatenate((np.full(same, first[0]), first[3:]))[None, :]
    integral = float(_order_integrals(values, quadrature, f"{label} tail")[0])
    last_correction = d3 / 720.0
    total += integral / y1 + f[2] / 2.0 - d1 / 12.0 + last_correction
    _log.debug(
        "%s: closed after %d explicit orders, last Euler-Maclaurin correction %.2e of the sum",
        label, head, abs(last_correction / total),
    )
    return total


def _pressure_integrand(y: np.ndarray, rsq: tuple[np.ndarray, ...]) -> np.ndarray:
    """y^2 sum_p r_p^2 e^-y / (1 - r_p^2 e^-y), p over rsq's one or two r^2;
    a lone r^2 stands for both polarizations and its part is added to itself.

    1 - r^2 e^-y is taken as (1 - r^2) + r^2 (1 - e^-y), a sum of
    non-negative parts, so it stays accurate as y -> 0 with r^2 -> 1. The
    block is built in place in four arrays of y's shape; r^2 broadcasts."""
    e = -y
    em1 = np.expm1(e)  # -(1 - e^-y), so den -= r^2 em1 adds r^2 (1 - e^-y)
    np.exp(e, out=e)
    total, den = np.empty_like(y), np.empty_like(y)
    # the second polarization's part goes into em1, which it reads last
    for r2, part in zip(rsq, (total, em1)):
        np.subtract(1.0, r2, out=den)
        np.multiply(r2, em1, out=part)
        den -= part
        np.multiply(r2, e, out=part)
        part /= den
    total += em1 if len(rsq) == 2 else total
    np.multiply(y, y, out=den)
    total *= den
    return total


def _free_energy_integrand(y: np.ndarray, rsq: tuple[np.ndarray, ...]) -> np.ndarray:
    """y sum_p ln(1 - r_p^2 e^-y), p over rsq's one or two r^2; a lone r^2
    stands for both polarizations and its part is added to itself.

    log1p(-x) keeps small x = r^2 e^-y exact; where x > 1/2 the logarithm is
    taken of (1 - r^2) + r^2 (1 - e^-y) instead, which stays finite and
    accurate at nodes where e^-y rounds to 1. Row 0 of every head has such
    nodes (r_TM = 1 at n = 0). With r^2 <= 1 they need y < ln 2, and a row's
    nodes ascend, so they lie in rows [:k] alone, k - 1 the last row whose
    first y is below 1 (1, not ln 2, leaves room for an r^2 an ulp past 1; the
    last row, not a count, as the close puts orders N..N+2 before its limits).
    Only those rows take both branches and 1 - e^-y; the rest, and blocks
    without such a node, run log1p unmasked. The block is built in place in arrays of
    y's shape; r^2 broadcasts."""
    e = -y
    np.exp(e, out=e)
    below = y[:, 0] < 1.0
    k = below.size - int(below[::-1].argmax())  # one past the last row below 1
    if not below[k - 1]:
        k = 0
    one_minus_e = None
    total, logs = np.zeros_like(y), np.empty_like(y)
    low, rest = logs[:k], logs[k:]
    for r2 in rsq:
        np.multiply(r2, e, out=logs)
        near_one = low > 0.5 if k else None
        np.negative(logs, out=logs)
        if near_one is None or not near_one.any():
            np.log1p(logs, out=logs)
        else:
            if one_minus_e is None:
                one_minus_e = -np.expm1(-y[:k])
            if rest.size:
                np.log1p(rest, out=rest)
                r2 = r2[:k] if np.ndim(r2) else r2
            np.log1p(low, out=low, where=~near_one)
            np.log((1.0 - r2) + r2 * one_minus_e, out=low, where=near_one)
        total += logs
    if len(rsq) == 1:
        total += total
    total *= y
    return total


def _checked(what: str, force: Callable[..., float], a: float, T: float, R: float | None,
             lambda_p: float | None) -> float:
    """force(a, T, R) inside one quantities.finite naming a, T, R and lambda_p
    where not None, once positive has checked a, T and R in that order."""
    a, T = positive("separation", a), positive("temperature", T)
    inputs = {"separation": a, "temperature": T}
    if R is not None:
        inputs["sphere radius"] = R = positive("sphere radius", R)
    if lambda_p is not None:
        inputs["plasma wavelength"] = lambda_p
    return finite(what, inputs, force, a, T, R)


def plate_free_energy_per_area(
    a: float,
    T: float,
    model: IdealMetal | Plasma,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    matsubara: MatsubaraSpec = MatsubaraSpec(),
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Matsubara free energy per unit area, J/m^2 (negative for attraction)."""
    return _checked("free energy", lambda a, T, R: CODATA2018.k_B * T / (8.0 * math.pi * a * a) * (
        _matsubara_sum(a, T, model, approach, matsubara, quadrature, _free_energy_integrand,
                       "free energy")), a, T, None, getattr(model, "lambda_p", None))


def plate_pressure(
    a: float,
    T: float,
    model: IdealMetal | Plasma,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    matsubara: MatsubaraSpec = MatsubaraSpec(),
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Force per unit area between the plates, N/m^2 (negative = attraction).

    Own Matsubara sum of the pressure-form integrand, not a numerical
    derivative of the free energy; the thermodynamic-identity test covers
    consistency between the two.
    """
    return _checked("pressure", lambda a, T, R: -CODATA2018.k_B * T / (8.0 * math.pi * a ** 3) * (
        _matsubara_sum(a, T, model, approach, matsubara, quadrature, _pressure_integrand,
                       "pressure")), a, T, None, getattr(model, "lambda_p", None))


def sphere_plate_force_pfa(
    a: float,
    T: float,
    R: float,
    model: IdealMetal | Plasma,
    approach: ApproachVariant = ApproachVariant.PLASMA_ZERO_FREQUENCY,
    matsubara: MatsubaraSpec = MatsubaraSpec(),
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Sphere-plate force via the proximity force theorem, N.

    Exactly 2*pi*R times the plate free energy per area; the mapping itself
    carries a relative error of order a/R, negligible for mm-scale spheres.
    """
    return _checked("sphere-plate force", lambda a, T, R: 2.0 * math.pi * R * (
        CODATA2018.k_B * T / (8.0 * math.pi * a * a) * _matsubara_sum(
            a, T, model, approach, matsubara, quadrature, _free_energy_integrand, "free energy")
    ), a, T, R, getattr(model, "lambda_p", None))


# The 10-point Gauss-Legendre rule on [-1, 1] (Abramowitz & Stegun 25.4.29): the positive
# half of numpy.polynomial.legendre.leggauss(10), bit for bit; its other half is the mirror
_GL_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                  0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                  0.1494513491505804, 0.06667134430868814])


def _gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 10-point rule on each panel between successive edges."""
    x, w = np.r_[-_GL_X[::-1], _GL_X], np.r_[_GL_W[::-1], _GL_W]
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


# The rule on the dyadic panels [0, 2^-20], [2^-20, 2^-19], ..., [32, 64] and
# on each one halved, whose edges these are: they resolve the zero-frequency TE
# integrand's y ln y at 0 and its y e^-y decay, and past y = 64 it is below
# 1e-26 of its integral.
_TE0_EDGES = np.interp(np.arange(55) / 2, np.arange(28), np.r_[0, 2.0 ** np.arange(-20, 7)])
_TE0_RULES = (_gauss_legendre(_TE0_EDGES[::2]), _gauss_legendre(_TE0_EDGES))


def quad(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Int_0^64 f(y) dy on the halved panels, and its change from the rule on
    the whole panels. The sums are einsum, as in _order_integrals."""
    coarse, fine = (float(np.einsum("i,i->", f(y), w)) for y, w in _TE0_RULES)
    return fine, abs(fine - coarse)


def te_zero_frequency_sphere_term(
    a: float,
    T: float,
    R: float,
    lambda_p: float,
    quadrature: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Zero-frequency TE contribution to the sphere-plate force, N.

    (k_B*T*R)/(8*a^2) * Int_0^inf y dy ln[1 - r_TE(y)^2 exp(-y)], with r_TE
    from fresnel_coefficients at zero frequency and L = 2a, on quad's rule.
    Negative (attractive); vanishing lambda_p recovers -k_B*T*zeta(3)*R/(8*a^2).
    """
    def term(a: float, T: float, R: float) -> float:
        model = Plasma(lambda_p)  # checks lambda_p after a, T and R
        integral, change = quad(lambda y: y * np.log1p(
            -fresnel_coefficients(model, 0.0, y, 2.0 * a)[1] ** 2 * np.exp(-y)))
        # a NaN fails both tests and is left to finite
        if change > quadrature.relative_tolerance * abs(integral) and change > ABSOLUTE_FLOOR:
            raise QuadratureError(f"zero-frequency TE term: not converged (value={integral:.6e}, "
                                  f"change on halving the panels={change:.2e})")
        return CODATA2018.k_B * T * R / (8.0 * a * a) * integral

    return _checked("zero-frequency TE term", term, a, T, R, lambda_p)
