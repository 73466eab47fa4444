"""Many equipotential legs below the direct floor, walked together on
arrays, bit for bit as the scalar walk (`bottcher._walk`) would.

A leg is a pullback chain walked over nodes at one potential, each node's
chain seeded by the one before (`bottcher._chain_solve`).  Level j of node
i needs level j+1 of node i (its parent) and level j of node i-1 (its
predecessor, whose tangent seeds it and whose spacing tests it for a branch
jump), both on the anti-diagonal before its own, so all legs advance one
anti-diagonal i-1 + m-1-j at a time, one numpy pass each.  Every element
takes the scalar walk's steps in its order: the tangent predictor,
`preimage_near`'s Newton steps and stop rule, `_pullback`'s branch test,
the tangent division and the spacing.  numpy's own complex product and
quotient may round differently from CPython's, so the complex arithmetic
is CPython's formulas on real arrays (`poly.complex_mul`,
`poly.complex_div`, `np.hypot` for abs).

Only `bottcher.Spine.sweeps` imports this module, for many-row sweeps, so
the scalar paths neither compile it nor load numpy for it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bottcher import EPS, SAFETY
from .poly import Polynomial, complex_div, complex_mul


def chain_tops(P: Polynomial, frac: Fraction,
               legs: Sequence[tuple[float, int, Sequence[float]]]):
    """The top levels (point, tangent) of `bottcher._chain_solve` at (t, off)
    for the offsets `offs` of each (t, m, offs) of legs, m the top level at
    t, as real and imaginary arrays in that order."""
    d, q = P.degree, frac.denominator
    ws, gs, scale = [], [], []
    for t, m, offs in legs:
        num = frac.numerator % q
        for _ in range(m):
            num = num * d % q
        r = math.exp(t * d**m)
        ws += [cmath.rect(r, 2.0 * math.pi * (num / q + off * d**m)) for off in offs]
        gs += [t * d**m] * len(offs)
        scale += [float(d**m)] * len(offs)
    (pr, pi), (tr, ti) = P.inverse_bottcher.with_tangents(np.array(ws, dtype=complex), gs)
    return pr, pi, *complex_mul(tr, ti, np.array(scale), 0.0)


def preimages_near(P: Polynomial, wr, wi, zr, zi):
    """`Polynomial.preimage_near` for the targets w from the seeds z on
    arrays, step for step: (z, |z|, P'(z), ok), ok False where Newton met
    P' = 0 or used all its steps (the cases `preimage_near` hands to the
    companion matrix)."""
    top, dtop, c0 = P.coeffs[-1], P.deriv_coeffs[-1], P.coeffs[0]
    pairs = P.horner_pairs
    n = wr.size
    outr, outi, absz = np.zeros(n), np.zeros(n), np.zeros(n)
    ok = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for _ in range(40):
        pr, pi, dr, di = top.real, top.imag, dtop.real, dtop.imag
        for c, dc in pairs:
            pr, pi = complex_mul(pr, pi, zr, zi)
            dr, di = complex_mul(dr, di, zr, zi)
            pr, pi, dr, di = pr + c.real, pi + c.imag, dr + dc.real, di + dc.imag
        pr, pi = complex_mul(pr, pi, zr, zi)
        sr, si = complex_div(pr + c0.real - wr, pi + c0.imag - wi, dr, di)
        zr, zi = zr - sr, zi - si
        az = np.hypot(zr, zi)
        # fmax(x, 1.0) is Python's max(1.0, x), NaN included
        done = np.hypot(sr, si) <= 1e-14 * np.fmax(az, 1.0)
        more = (dr != 0) | (di != 0)
        done &= more
        if done.all():
            outr[live], outi[live], absz[live], ok[live] = zr, zi, az, True
            break
        more &= ~done
        if not more.all():
            idx = live[done]
            outr[idx], outi[idx], absz[idx], ok[idx] = zr[done], zi[done], az[done], True
            live, wr, wi, zr, zi = live[more], wr[more], wi[more], zr[more], zi[more]
            if live.size == 0:
                break
    # P'(z) at the accepted z, one more pass
    dr, di = dtop.real, dtop.imag
    for _, dc in pairs:
        dr, di = complex_mul(dr, di, outr, outi)
        dr, di = dr + dc.real, di + dc.imag
    return outr, outi, absz, dr, di, ok


def walk_legs(P: Polynomial, frac: Fraction, legs: Sequence[tuple]
              ) -> list[Optional[list[complex]]]:
    """The points at the requested nodes of every (start chain, nodes) of
    `legs`, bit for bit those of `bottcher._walk(P, frac, nodes, start)`,
    the (potential, offset, requested) nodes of a leg at the potential of
    its start chain; None for a leg that met what the arrays do not handle
    (a branch jump, a vanishing P', Newton out of steps), which the caller
    walks again from its start chain."""
    # a leg's chains share its start's potential and so its top level m;
    # slot k*w + j holds the latest point solved at level j of leg k (at
    # first its start chain's), and slot k*w + m the top of the node whose
    # level m-1 is solved next
    m = np.array([len(start.points) - 1 for start, _ in legs])
    n = np.array([len(nodes) for _, nodes in legs])
    w = int(m.max()) + 1
    PR, PI, AB, TR, TI, SP = (np.zeros(len(legs) * w) for _ in range(6))
    starts = np.repeat(np.arange(len(legs)) * w - np.cumsum(m + 1) + m + 1, m + 1)
    starts += np.arange(starts.size)
    pts = np.array([z for s, _ in legs for z in s.points])
    tans = np.array([z for s, _ in legs for z in s.tangents])
    PR[starts], PI[starts], TR[starts], TI[starts] = pts.real, pts.imag, tans.real, tans.imag
    SP[starts] = [x for s, _ in legs for x in s.spacings]
    # the nodes, leg after leg: their tops, the step from the node before
    # and its growth
    first = np.cumsum(n) - n
    top_r, top_i, tan_r, tan_i = chain_tops(
        P, frac, [(s.t, len(s.points) - 1, [off for _, off, _ in nodes]) for s, nodes in legs])
    top_abs = np.hypot(top_r, top_i)
    zeta = np.array([(t, off) for s, nodes in legs for t, off, _ in [(s.t, s.off, False), *nodes]])
    is_start = np.zeros(len(zeta), dtype=bool)
    is_start[first + np.arange(len(legs))] = True
    step_t, step_off = (zeta[1:] - zeta[:-1])[~is_start[1:]].T
    step_off = 2.0 * math.pi * step_off
    dz = np.empty(len(zeta))
    dz[is_start] = [s.dzeta for s, _ in legs]
    dz[~is_start] = np.hypot(step_t, step_off)
    with np.errstate(divide="ignore", invalid="ignore"):
        grow = np.where(dz[:-1] > 0, np.fmax(dz[1:] / dz[:-1], 1.0), 1.0)[~is_start[1:]]
    out_r, out_i = np.empty(n.sum()), np.empty(n.sum())
    alive = np.ones(len(legs), dtype=bool)
    with np.errstate(all="ignore"):  # overflow and P' = 0 only fail their leg
        for diag in range(int((n + m - 1).max())):
            lg = np.flatnonzero(alive & (diag < n))
            k, nd = lg * w + m[lg], first[lg] + diag
            PR[k], PI[k], AB[k], TR[k], TI[k] = (a[nd] for a in (top_r, top_i, top_abs,
                                                                 tan_r, tan_i))
            # nodes i from max(1, diag+2-m) to min(n, diag+1) on this diagonal
            lo = np.maximum(1, diag + 2 - m)
            cnt = np.where(alive, np.maximum(np.minimum(n, diag + 1) - lo + 1, 0), 0)
            lg = np.repeat(np.arange(len(legs)), cnt)
            i = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(lg.size)
            j = i - 1 + m[lg] - 1 - diag
            nd, slot = first[lg] + i - 1, lg * w + j
            par = slot + 1
            wr, wi = PR[par], PI[par]
            refr, refi = PR[slot], PI[slot]
            seedr, seedi = complex_mul(TR[slot], TI[slot], step_t[nd], step_off[nd])
            zr, zi, az, dr, di, ok = preimages_near(P, wr, wi, refr + seedr, refi + seedi)
            # `_pullback`'s branch test; its noise-level retry only ever widens
            # the floor, so the retry alone decides
            spacing = grow[nd] * SP[slot]
            floor = (1e-9 * np.fmax(az, 1.0)
                     + 4.0 * EPS * np.fmax(AB[par], 1.0) / np.hypot(dr, di))
            step = np.hypot(zr - refr, zi - refi)
            jump = (spacing > floor) & (step > SAFETY * spacing + floor)
            ok &= ((dr != 0) | (di != 0)) & ~jump
            alive[lg[~ok]] = False
            PR[slot], PI[slot], AB[slot], SP[slot] = zr, zi, az, step
            TR[slot], TI[slot] = complex_div(TR[par], TI[par], dr, di)
            bottom = j == 0
            out_r[nd[bottom]], out_i[nd[bottom]] = zr[bottom], zi[bottom]
    out: list[Optional[list[complex]]] = []
    for k, (_, nodes) in enumerate(legs):
        nd = first[k] + np.flatnonzero([req for _, _, req in nodes])
        z = np.empty(nd.size, dtype=complex)
        z.real, z.imag = out_r[nd], out_i[nd]
        out.append(z.tolist() if alive[k] else None)
    return out
