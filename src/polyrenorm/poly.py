"""Monic polynomial dynamics: iteration, escape, critical points, cycles, potential."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import NonConvergence

MONIC_TOL = 1e-12
CYCLE_RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-7
# Candidates this close to a lower-period orbit are attributed to it: near a
# parabolic point the cancellation noise floor of P^n(z) - z leaves Newton
# stranded on a shell of radius about (eps/|c|)^(1/3), well inside this.
LOWER_PERIOD_TOL = 2e-5
KIND_TOL = 1e-6
MAX_UNITY_ORDER = 64
MAX_CENSUS_POINTS = 10**5  # find_cycles' bound on d^max_period
# critical_cycles: iterates before looking for a cycle, and the longest lag
CRITICAL_ORBIT_STEPS = 2000
CRITICAL_ORBIT_MAX_LAG = 64


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _horner_array(cs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    """Horner's rule in place on one complex buffer: the operations of
    `w = w * z + c` in the same order, with one allocation."""
    w = np.full(z.shape, cs[-1], dtype=np.result_type(z, complex))
    for c in reversed(cs[:-1]):
        w *= z
        w += c
    return w


@dataclass(frozen=True)
class Polynomial:
    """A monic polynomial, coefficients stored constant term first.

    Degree must be at least 2 and the leading coefficient exactly 1 (callers
    normalize by affine conjugation beforehand).  `escape_radius` is a
    Cauchy-type bound: |P(z)| > |z| whenever |z| exceeds it.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        cs = tuple(complex(c) for c in self.coeffs)
        if len(cs) < 3:
            raise ValueError("degree must be at least 2")
        if abs(cs[-1] - 1.0) > MONIC_TOL:
            raise ValueError("polynomial must be monic (leading coefficient 1)")
        for c in cs:
            if not _finite(c):
                raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        # derivative coefficients, constant term first; not a dataclass field
        object.__setattr__(self, "deriv_coeffs",
                           tuple(k * c for k, c in enumerate(cs))[1:])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def escape_radius(self) -> float:
        return max(2.0, 1.0 + sum(abs(c) for c in self.coeffs[:-1]))

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            return _horner_array(self.coeffs, z)
        w = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            w = w * z + c
        return w

    def deriv(self, z):
        dcs = self.deriv_coeffs
        if isinstance(z, np.ndarray):
            return _horner_array(dcs, z)
        w = dcs[-1]
        for c in reversed(dcs[:-1]):
            w = w * z + c
        return w

    def taylor(self, z0: complex) -> list[complex]:
        """Taylor coefficients of w -> P(z0 + w), constant term first, by
        repeated synthetic division."""
        a = list(self.coeffs)
        out = []
        while a:
            # a(w) mod (w): value at z0, then deflate
            acc = 0j
            for c in reversed(a):
                acc = acc * z0 + c
            out.append(acc)
            new = []
            carry = 0j
            for c in reversed(a[1:]):
                carry = carry * z0 + c
                new.append(carry)
            a = new[::-1]
        return out

    def iterate(self, z: complex, n: int) -> complex:
        for _ in range(n):
            z = self(z)
        return z

    def iterate_with_deriv(self, z: complex, n: int) -> tuple[complex, complex]:
        """(P^n(z), (P^n)'(z)) by the chain rule."""
        dz = 1.0 + 0.0j
        for _ in range(n):
            dz *= self.deriv(z)
            z = self(z)
        return z, dz

    def preimages(self, w: complex) -> np.ndarray:
        """All d solutions of P(z) = w, as companion-matrix roots."""
        arr = np.array(self.coeffs[::-1], dtype=complex)
        arr[-1] -= w
        return np.roots(arr)

    def preimage_near(self, w: complex, seed: complex) -> complex:
        """The solution of P(z) = w that Newton reaches from seed."""
        z = seed
        for _ in range(40):
            dz = self.deriv(z)
            if dz == 0:
                break
            step = (self(z) - w) / dz
            z = z - step
            if abs(step) <= 1e-14 * max(1.0, abs(z)):
                return z
        # Newton degenerates when the preimage sits near a critical point; the
        # companion matrix solves the full fiber and the seed picks the branch.
        roots = self.preimages(w)
        if not np.all(np.isfinite(roots)):
            raise NonConvergence(f"preimage solve failed for target {w:.6g}")
        return complex(roots[int(np.argmin(np.abs(roots - seed)))])


class EscapeResult(NamedTuple):
    escaped: bool
    steps: int
    final: complex


def escape_time(P: Polynomial, z: complex, max_iter: int) -> EscapeResult:
    """Iterate z and report whether some iterate left the escape radius.

    The overflow guard retires orbits once |z| > 10 R; by then escape is
    already certain.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    R = P.escape_radius
    for k in range(1, max_iter + 1):
        z = P(z)
        if abs(z) > R:
            return EscapeResult(True, k, z)
    return EscapeResult(False, max_iter, z)


def _newton_polish(f, df, z: complex, max_iter: int = 60, tol: float = 1e-14) -> complex:
    for _ in range(max_iter):
        d = df(z)
        if d == 0:
            break
        step = f(z) / d
        z = z - step
        if abs(step) <= tol * max(1.0, abs(z)):
            break
    return z


def critical_points(P: Polynomial) -> list[complex]:
    """The d-1 roots of P', with multiplicity.

    Companion-matrix roots polished by Newton; multiple roots keep the
    companion value (Newton stalls there but the cluster is already accurate).
    """
    dcs = P.deriv_coeffs
    arr = np.array(dcs[::-1], dtype=complex)  # highest degree first
    roots = np.roots(arr)
    out = []
    for r in roots:
        r = complex(r)
        polished = _newton_polish(P.deriv, lambda z: _second_deriv(P, z), r)
        if abs(P.deriv(polished)) <= abs(P.deriv(r)):
            r = polished
        out.append(r)
    out.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    bad = [r for r in out if abs(P.deriv(r)) >= 1e-8]
    if bad:
        res = ", ".join(f"{r:.3g} (|P'|={abs(P.deriv(r)):.2e})" for r in bad)
        raise ArithmeticError(f"critical point polish failed: {res}")
    return out


def _second_deriv(P: Polynomial, z: complex) -> complex:
    cs = P.coeffs
    w = 0.0 + 0.0j
    for k in range(len(cs) - 1, 1, -1):
        w = w * z + k * (k - 1) * cs[k]
    return w


@dataclass(frozen=True)
class Cycle:
    """One full periodic orbit with its multiplier and stability type."""

    points: tuple[complex, ...]
    period: int
    multiplier: complex
    kind: str  # attracting | repelling | parabolic | neutral-irrational

    def contains(self, z: complex, tol: float = DEDUP_TOL) -> bool:
        return any(abs(z - p) <= tol for p in self.points)


def unity_order(lam: complex) -> Optional[int]:
    """The least order q <= MAX_UNITY_ORDER of a root of unity within
    KIND_TOL of lam, or None."""
    arg = cmath.phase(lam) / (2 * math.pi)
    for q in range(1, MAX_UNITY_ORDER + 1):
        if abs(lam - cmath.exp(2j * math.pi * round(arg * q) / q)) < KIND_TOL:
            return q
    return None


def classify_multiplier(lam: complex) -> str:
    m = abs(lam)
    if m < 1.0 - KIND_TOL:
        return "attracting"
    if m > 1.0 + KIND_TOL:
        return "repelling"
    return "neutral-irrational" if unity_order(lam) is None else "parabolic"


def _compose_coeffs(P: Polynomial, n: int) -> np.ndarray:
    """Coefficients of P^n, highest degree first (for companion-matrix seeds)."""
    cur = np.array(P.coeffs[::-1], dtype=complex)
    for _ in range(n - 1):
        acc = np.zeros(1, dtype=complex)
        for c in cur:
            acc = np.polymul(acc, np.array(P.coeffs[::-1], dtype=complex))
            acc[-1] += c
        cur = acc
    return cur


def _default_seeds(P: Polynomial, n_grid: int = 24) -> list[complex]:
    R = P.escape_radius
    half = min(R, 1.0 + max(abs(c) for c in P.coeffs[:-1]) + 2.0)
    xs = np.linspace(-half, half, n_grid)
    return [complex(x, y) for x in xs for y in xs]


def find_cycles(P: Polynomial, max_period: int) -> list[Cycle]:
    """All distinct cycles of period <= max_period.

    Damped Newton on P^n(z) - z from a seed grid; when d^n is small the
    companion-matrix roots of the composed polynomial are added as extra seeds
    so the census is complete at desk scale.  Orbits deduplicated to 1e-7.
    """
    if P.degree**max_period > MAX_CENSUS_POINTS:
        raise ValueError("d^max_period too large")
    cycles: list[Cycle] = []

    def known(z: complex) -> bool:
        return any(c.contains(z) for c in cycles)

    for n in range(1, max_period + 1):
        pool = _default_seeds(P)
        if P.degree**n <= 256:
            pool.extend(complex(r) for r in np.roots(_subtract_z(_compose_coeffs(P, n))))
        for s in pool:
            z = _newton_cycle_point(P, n, s)
            if z is None or known(z):
                continue
            orbit = [z]
            for _ in range(n - 1):
                orbit.append(P(orbit[-1]))
            # minimal period among divisors of n; cycles of smaller diameter
            # than the parabolic noise shell go to the lower period
            minimal = n
            for k in range(1, n):
                if n % k == 0 and abs(P.iterate(z, k) - z) < LOWER_PERIOD_TOL:
                    minimal = k
                    break
            if minimal != n:
                continue
            zn, dz = P.iterate_with_deriv(z, n)
            if abs(zn - z) > CYCLE_RESIDUAL_TOL:
                continue
            lam = dz
            cycles.append(Cycle(tuple(orbit), n, lam, classify_multiplier(lam)))
    cycles.sort(key=lambda c: (c.period, round(min(p.real for p in c.points), 9),
                               round(min(p.imag for p in c.points), 9)))
    return cycles


def critical_cycles(P: Polynomial) -> list[Cycle]:
    """The attracting and parabolic cycles, found from the critical orbits.

    By Fatou's theorem each such cycle attracts a critical point, so no cycle
    census is needed.  After CRITICAL_ORBIT_STEPS iterates a bounded critical
    orbit that has settled near a cycle nearly repeats with some lag
    k <= CRITICAL_ORBIT_MAX_LAG (the period, times the rotation order of the
    multiplier at a parabolic cycle); Newton on P^n(z) - z from the last
    iterate, over the divisors n of k, then finds a cycle point.  Neutral
    cycles with an irrational rotation are left out.
    """
    R = P.escape_radius
    found: list[Cycle] = []
    for c in critical_points(P):
        orbit = [c]
        for _ in range(CRITICAL_ORBIT_STEPS):
            orbit.append(P(orbit[-1]))
            if not abs(orbit[-1]) <= R:
                break
        z = orbit[-1]
        if not abs(z) <= R or any(cyc.contains(z, 1e-2) for cyc in found):
            continue  # escaped, or settled near a cycle already found
        lag = next((k for k in range(1, CRITICAL_ORBIT_MAX_LAG + 1)
                    if abs(z - orbit[-1 - k]) < 1e-3 * max(1.0, abs(z))), 0)
        for n in (n for n in range(1, lag + 1) if lag % n == 0):
            p = _newton_cycle_point(P, n, z)
            if p is None:
                continue
            _, lam = P.iterate_with_deriv(p, n)
            kind = classify_multiplier(lam)
            if kind in ("attracting", "parabolic"):
                points = [p]
                for _ in range(n - 1):
                    points.append(P(points[-1]))
                found.append(Cycle(tuple(points), n, lam, kind))
                break
    return found


def _subtract_z(coeffs_high_first: np.ndarray) -> np.ndarray:
    out = coeffs_high_first.copy()
    out[-2] -= 1.0
    return out


def _newton_cycle_point(P: Polynomial, n: int, z: complex, max_outer: int = 200) -> complex | None:
    """Damped Newton on P^n(z) - z; returns None on divergence.

    Iterates to a step-size fixed point rather than a residual threshold:
    near a parabolic point the residual is tiny on a whole shell, and only
    full polishing slides such candidates into the actual periodic point
    (where the minimal-period filter then discards them).
    """
    bail = 3.0 * P.escape_radius
    zn, dz = P.iterate_with_deriv(z, n)
    f = zn - z
    if not _finite(f):
        return None
    for _ in range(max_outer):
        af = abs(f)
        if af == 0:
            break
        df = dz - 1.0
        if df == 0:
            break
        step = f / df
        t = 1.0
        for _ in range(12):
            znew = z - t * step
            zn2, dz2 = P.iterate_with_deriv(znew, n)
            f2 = zn2 - znew
            if _finite(f2) and abs(f2) <= af * (1.0 - 0.25 * t) + 1e-16:
                break
            t *= 0.5
        else:
            break
        z, f, dz = znew, f2, dz2
        if abs(z) > bail:
            return None
        if abs(t * step) < 1e-15 * max(1.0, abs(z)):
            break
    zn, _ = P.iterate_with_deriv(z, n)
    return z if abs(zn - z) < CYCLE_RESIDUAL_TOL else None


def green_potential(P: Polynomial, z: complex, max_iter: int = 4096) -> float:
    """Green potential G of the basin of infinity; 0 on bounded orbits.

    For escaping z the limit log|P^n z| / d^n is refined until two successive
    estimates agree to 1e-13 (well under the documented 1e-12 contract).
    """
    R = P.escape_radius
    d = P.degree
    z = complex(z)
    scale = 1.0  # d^n
    est = None
    for _ in range(max_iter):
        if abs(z) > R:
            cur = math.log(abs(z)) / scale
            if est is not None and abs(cur - est) < 1e-13:
                return cur
            est = cur
            if abs(z) > 1e80:
                return cur
        z = P(z)
        scale *= d
    return 0.0 if est is None else est
