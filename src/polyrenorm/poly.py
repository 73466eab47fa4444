"""Monic polynomial dynamics: iteration, escape, critical points, cycles, potential."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

MONIC_TOL = 1e-12
CYCLE_RESIDUAL_TOL = 1e-9
DEDUP_TOL = 1e-7
# Candidates this close to a lower-period orbit are attributed to it: near a
# parabolic point the cancellation noise floor of P^n(z) - z leaves Newton
# stranded on a shell of radius about (eps/|c|)^(1/3), well inside this.
LOWER_PERIOD_TOL = 2e-5
KIND_TOL = 1e-6
MAX_UNITY_ORDER = 64


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


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
            w = np.full_like(z, self.coeffs[-1])
            for c in reversed(self.coeffs[:-1]):
                w = w * z + c
            return w
        w = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            w = w * z + c
        return w

    def deriv(self, z):
        dcs = self.deriv_coeffs
        if isinstance(z, np.ndarray):
            w = np.full_like(z, dcs[-1])
            for c in reversed(dcs[:-1]):
                w = w * z + c
            return w
        w = dcs[-1]
        for c in reversed(dcs[:-1]):
            w = w * z + c
        return w

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

    def to_json_coeffs(self) -> list[list[float]]:
        return [[c.real, c.imag] for c in self.coeffs]

    @classmethod
    def from_json_coeffs(cls, data: Sequence[Sequence[float]]) -> "Polynomial":
        return cls(tuple(complex(re, im) for re, im in data))


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


def classify_multiplier(lam: complex) -> str:
    m = abs(lam)
    if m < 1.0 - KIND_TOL:
        return "attracting"
    if m > 1.0 + KIND_TOL:
        return "repelling"
    arg = cmath.phase(lam) / (2 * math.pi)
    for q in range(1, MAX_UNITY_ORDER + 1):
        p = round(arg * q)
        root = cmath.exp(2j * math.pi * p / q)
        if abs(lam - root) < KIND_TOL:
            return "parabolic"
    return "neutral-irrational"


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


def find_cycles(
    P: Polynomial,
    max_period: int,
    seeds: Sequence[complex] | None = None,
) -> list[Cycle]:
    """All distinct cycles of period <= max_period.

    Damped Newton on P^n(z) - z from a seed grid; when d^n is small the
    companion-matrix roots of the composed polynomial are added as extra seeds
    so the census is complete at desk scale.  Orbits deduplicated to 1e-7.
    """
    if P.degree**max_period > 10**5:
        raise ValueError("d^max_period too large")
    cycles: list[Cycle] = []

    def known(z: complex) -> bool:
        return any(c.contains(z) for c in cycles)

    for n in range(1, max_period + 1):
        pool = list(seeds) if seeds is not None else _default_seeds(P)
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
