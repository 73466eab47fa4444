"""Scene-driven command line front end.

Exit codes: 0 when all verdicts pass, 2 when a check fails, 1 on errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Optional

from . import render
from .avoiding import (EscapeAnalysis, compare_masks, connected_components, escape_analysis,
                       wedge_raster)
from .bottcher import RayPolyline, land_ray
from .carrots import Carrot, build_carrots, carrot_geometry
from .cuts import CutFamily, build_family, check_admissible, check_legal
from .errors import RenormError, SceneError
from .grid import GridSpec, Mask, PixelRaster, save_mask_raw
from .poly import MAX_CENSUS_POINTS, Polynomial
from .scene import Scene, figure1_scene, integer_field, load_scene, override, parse_angle
from .surgery import (T0, build_surgery, dilatation_report, nonescaping_mask,
                      visit_count_experiment)
from .verify import ConjugacyReport, conjugacy_report

# (name, ok, detail): one checked statement of a stage
Verdict = tuple[str, bool, str]
# conjugacy evidence covers cycles up to this period unless asked otherwise
MAX_PERIOD = 3


def _resolve_threads(value: Optional[int]) -> int:
    """--threads, else RENORM_THREADS, else 1; 0 means one per core."""
    path = "--threads"
    if value is None:
        path, value = "RENORM_THREADS", os.environ.get("RENORM_THREADS") or "1"
        try:
            value = int(value)
        except ValueError:
            pass  # rejected below
    value = integer_field(value, path, 0, "expected a non-negative integer (0 = one per core)")
    return value or os.cpu_count() or 1


def _load(args) -> Scene:
    if getattr(args, "scene", None):
        scene = load_scene(args.scene)
    else:
        scene = figure1_scene()
    return override(scene, resolution=args.resolution, max_iter=args.max_iter)


def _seeds(args) -> int:
    return integer_field(args.seeds, "--seeds", 1, "expected a positive integer")


def _max_period(scene: Scene, value: int) -> int:
    """--max-period, with d^n of P and candidate_q within find_cycles' bound."""
    d = max(q.degree for q in (scene.polynomial, scene.candidate_q) if q is not None)
    hi = max(n for n in range(64) if d**n <= MAX_CENSUS_POINTS)
    return integer_field(value, "--max-period", 1, f"expected an integer in [1, {hi}]", hi)


def _write_rows(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _family_from_scene(scene: Scene):
    return build_family(scene.polynomial, scene.cuts, g0=scene.g0)


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _finish(verdicts: list[Verdict]) -> int:
    """Print one line per verdict; exit code 0 when all pass, else 2."""
    for name, ok, detail in verdicts:
        print(f"[{_pass(ok)}] {name}: {detail}")
    return 0 if all(ok for _, ok, _ in verdicts) else 2


# Stage writers: each writes its artifacts into `out` and returns its verdicts.

def _write_rays(out: str, rays: list[RayPolyline]) -> list[Verdict]:
    rows = [[ray.angle.num, ray.angle.den, repr(float(t)),
             repr(float(z.real)), repr(float(z.imag))]
            for ray in rays for t, z in zip(ray.potentials, ray.points)]
    _write_rows(os.path.join(out, "rays.csv"),
                ["angle_num", "angle_den", "potential", "re", "im"], rows)
    return [(f"ray {ray.angle}", ray.landing.converged,
             f"{'lands' if ray.landing.converged else 'does not certifiably land'} "
             f"at {ray.landing.point:.9g} ({ray.landing.method})") for ray in rays]


def _write_checks(out: str, P: Polynomial, family: CutFamily) -> list[Verdict]:
    reports = {"admissible": check_admissible(P, family),
               "legal": check_legal(P, family)}
    _write_rows(os.path.join(out, "checks.csv"),
                ["check", "subject", "verdict", "detail"],
                [[r.check, r.subject, _pass(r.ok), r.detail]
                 for rep in reports.values() for r in rep.rows])
    return [(name, rep.ok, f"{len(rep.rows)} checks"
             + "".join(f"; {r.check} {r.subject} failed" for r in rep.failures()))
            for name, rep in reports.items()]


def _write_avoiding(out: str, res: EscapeAnalysis) -> list[Verdict]:
    save_mask_raw(res.avoiding, os.path.join(out, "avoiding_mask.raw"))
    count = connected_components(res.avoiding)
    subset = bool((res.avoiding.bits <= res.kp.bits).all()
                  and res.avoiding.count() < res.kp.count())
    return [("avoiding-strict-subset", subset,
             f"{res.avoiding.count()} of {res.kp.count()} pixels"),
            ("avoiding-connected", count == 1, f"{count} component(s) after closing")]


def _write_geometry(out: str, P: Polynomial, carrots: list[Carrot]) -> list[Verdict]:
    rows = []
    for i, c in enumerate(carrots):
        est = carrot_geometry(P, c)
        rows.append([i, str(c.cut.theta_r), str(c.cut.theta_l),
                     repr(est.quasi_arc_C), repr(est.transversality_gap),
                     repr(est.weak_qs_kappa), est.sample_count])
    _write_rows(os.path.join(out, "geometry.csv"),
                ["carrot", "theta_r", "theta_l", "quasi_arc_C",
                 "transversality_gap", "weak_qs_kappa", "samples"], rows)
    return []  # sampled estimates, not verdicts


def _write_surgery(out: str, scene: Scene, family: CutFamily, carrots: list[Carrot],
                   avoiding: Mask, n_seeds: int, threads: int) -> list[Verdict]:
    """Build the surgery on `carrots` and compare its non-escaping mask with
    `avoiding`, on the grid of `avoiding`."""
    try:
        S = build_surgery(scene.polynomial, family, scene.rho, carrots)
    except RenormError as exc:
        return [("surgery-degree", False, str(exc))]
    visits = visit_count_experiment(S, n_seeds, scene.max_iter,
                                    window=scene.grid, seed=scene.seed)
    fmask = nonescaping_mask(S, avoiding.grid, scene.max_iter, threads=threads)
    cmp_ = compare_masks(fmask, avoiding, band=2)
    dil = dilatation_report(S, n=32)
    save_mask_raw(fmask, os.path.join(out, "nonescaping_mask.raw"))
    render.write_ppm(os.path.join(out, "nonescaping.ppm"), render.render_mask(fmask))
    _write_rows(os.path.join(out, "surgery.csv"), ["key", "value"], [
        ["degree", S.P.degree],
        ["degree_dc", S.d_c],
        ["t_cr", visits.t_cr],
        ["t0", T0],
        ["max_visits_critical", visits.max_visits_crit],
        ["max_visits_blend", visits.max_visits_blend],
        ["max_visits_total", visits.max_visits_total],
        ["rng_seed", visits.seed],
        ["side_agreement_max", repr(S.side_agreement_max)],
        ["continuity_max_gap", repr(S.continuity_max_gap)],
        ["dilatation_max", repr(dil.max_ratio)],
        ["dilatation_flagged", dil.flagged],
        ["mask_agreement", repr(cmp_.agreement)],
        ["mask_agreement_outside_band", repr(cmp_.agreement_outside_band)],
    ])
    return [("surgery-degree", True, f"d_c = {S.d_c} by formula and preimage count"),
            ("visit-bound", visits.within_bounds,
             f"max critical-carrot visits {visits.max_visits_crit} <= T_cr = {visits.t_cr}"),
            ("nonescaping-agreement", cmp_.agreement_outside_band >= 0.97,
             f"{cmp_.agreement_outside_band:.4f} outside 2-pixel band")]


def _write_conjugacy(out: str, rep: ConjugacyReport) -> list[Verdict]:
    _write_rows(os.path.join(out, "conjugacy.csv"),
                ["period", "count_restricted", "count_candidate",
                 "counts", "multipliers", "nonrep_restricted", "nonrep_candidate"],
                [[r.period, r.count_restricted, r.count_candidate,
                  _pass(r.counts_match), _pass(r.multipliers_match),
                  ";".join(f"{m:.9g}" for m in r.nonrep_restricted),
                  ";".join(f"{m:.9g}" for m in r.nonrep_candidate)]
                 for r in rep.rows])
    return [("conjugacy", rep.verdict, "cycle counts and non-repelling multipliers match")]


def _conjugacy(scene: Scene, family: CutFamily, max_period: int) -> ConjugacyReport:
    if scene.candidate_q is None:
        raise SceneError("candidate_q", "missing; conjugacy evidence needs a candidate polynomial")
    return conjugacy_report(scene.polynomial, family, scene.candidate_q, max_period)


# Subcommands

def cmd_julia(args) -> int:
    scene = _load(args)
    threads = _resolve_threads(args.threads)
    res = escape_analysis(scene.polynomial, None, scene.grid, scene.max_iter,
                          threads=threads, supersample=args.supersample)
    os.makedirs(args.out, exist_ok=True)
    render.write_ppm(os.path.join(args.out, "julia.ppm"),
                     render.render_mask(res.kp, res.esc_steps))
    save_mask_raw(res.kp, os.path.join(args.out, "julia_mask.raw"))
    print(f"filled Julia mask: {res.kp.count()} pixels, "
          f"{connected_components(res.kp)} component(s) after closing")
    return 0


def cmd_ray(args) -> int:
    scene = _load(args)
    angles = [parse_angle(a, "--angle") for a in args.angle] or [tr for tr, _ in scene.cuts]
    rays = [land_ray(scene.polynomial, theta) for theta in angles]
    os.makedirs(args.out, exist_ok=True)
    verdicts = _write_rays(args.out, rays)
    for name, _, detail in verdicts:
        print(f"{name}: {detail}")
    return 0 if all(ok for _, ok, _ in verdicts) else 2


def cmd_cuts_check(args) -> int:
    scene = _load(args)
    family = _family_from_scene(scene)
    os.makedirs(args.out, exist_ok=True)
    return _finish(_write_checks(args.out, scene.polynomial, family))


def cmd_avoid(args) -> int:
    scene = _load(args)
    family = _family_from_scene(scene)
    res = escape_analysis(scene.polynomial, family, scene.grid, scene.max_iter,
                          threads=_resolve_threads(args.threads),
                          supersample=args.supersample)
    os.makedirs(args.out, exist_ok=True)
    render.write_ppm(os.path.join(args.out, "avoiding.ppm"),
                     render.render_scene_image(res.kp, res.avoiding, res.esc_steps))
    return _finish(_write_avoiding(args.out, res))


def cmd_carrot(args) -> int:
    scene = _load(args)
    carrots = build_carrots(scene.polynomial, _family_from_scene(scene), scene.rho)
    os.makedirs(args.out, exist_ok=True)
    _write_rows(os.path.join(args.out, "carrot_boundaries.csv"), ["carrot", "re", "im"],
                [[i, repr(float(z.real)), repr(float(z.imag))]
                 for i, c in enumerate(carrots) for z in c.boundary()])
    return _finish(_write_geometry(args.out, scene.polynomial, carrots))


def cmd_surgery(args) -> int:
    scene = _load(args)
    seeds = _seeds(args)
    threads = _resolve_threads(args.threads)
    family = _family_from_scene(scene)
    avoiding = escape_analysis(scene.polynomial, family, scene.grid, scene.max_iter,
                               threads=threads).avoiding
    carrots = build_carrots(scene.polynomial, family, scene.rho)
    os.makedirs(args.out, exist_ok=True)
    return _finish(_write_surgery(args.out, scene, family, carrots, avoiding,
                                  seeds, threads))


def cmd_verify(args) -> int:
    scene = _load(args)
    max_period = _max_period(scene, args.max_period)
    rep = _conjugacy(scene, _family_from_scene(scene), max_period)
    os.makedirs(args.out, exist_ok=True)
    lines = [f"conjugacy evidence: {_pass(rep.verdict)} "
             f"(candidate degree {rep.degree}, {len(rep.ambiguous)} ambiguous cycle(s))"]
    for r in rep.rows:
        lines.append(
            f"  period {r.period}: {r.count_restricted} restricted vs "
            f"{r.count_candidate} candidate cycles "
            f"[counts {'ok' if r.counts_match else 'MISMATCH'}, "
            f"non-repelling multipliers {'ok' if r.multipliers_match else 'MISMATCH'}]")
    with open(os.path.join(args.out, "conjugacy.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return _finish(_write_conjugacy(args.out, rep))


def cmd_figure1(args) -> int:
    """Every stage writer on one scene, plus the composite image and summary.

    The surgery's mask comparison runs on a grid capped at 512 pixels,
    without supersampling.
    """
    scene = _load(args)
    seeds = _seeds(args)
    threads = _resolve_threads(args.threads)
    P = scene.polynomial
    out = args.out
    os.makedirs(out, exist_ok=True)
    family = _family_from_scene(scene)
    verdicts = _write_checks(out, P, family)
    rays = [ray for cut in family.cuts
            for ray in ((cut.ray_r,) if cut.degenerate else (cut.ray_r, cut.ray_l))]
    _write_rays(out, rays)  # all pass: build_cut raises for a ray that does not land
    raster = wedge_raster(P, family)
    res = escape_analysis(P, family, scene.grid, scene.max_iter, threads=threads,
                          supersample=args.supersample, raster=raster)
    fgrid = GridSpec(scene.grid.center, scene.grid.width, min(scene.grid.resolution, 512))
    plain = fgrid == scene.grid and args.supersample == 1  # the mask `surgery` compares
    avoiding = res.avoiding if plain else escape_analysis(
        P, family, fgrid, scene.max_iter, threads=threads, raster=raster).avoiding
    del raster  # 16 MB; the surgery builds rasters of its own
    verdicts += _write_avoiding(out, res)
    carrots = build_carrots(P, family, scene.rho)
    verdicts += _write_geometry(out, P, carrots)
    verdicts += _write_surgery(out, scene, family, carrots, avoiding, seeds, threads)
    verdicts += _write_conjugacy(out, _conjugacy(scene, family, MAX_PERIOD))

    wedges = PixelRaster(scene.grid, [w.boundary for w in family.wedges
                                      if w.boundary is not None])
    img = render.render_scene_image(res.kp, res.avoiding, res.esc_steps, wedges.bits)
    for ray in rays:
        render.draw_polyline(img, scene.grid, ray.points, render.COLOR_RAY)
    for c in carrots:
        render.draw_polyline(img, scene.grid, c.boundary(), render.COLOR_CARROT)
    render.write_ppm(os.path.join(out, "figure1.ppm"), img)
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("".join(f"[{_pass(ok)}] {name}: {detail}\n" for name, ok, detail in verdicts))
    return _finish(verdicts)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polyrenorm",
                                description="Julia sets, external rays, cuts, "
                                            "carrots and carrot surgery")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scene_required=True, supersample=False):
        sp.add_argument("--scene", help="scene JSON path", default=None,
                        required=scene_required)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--resolution", type=int, default=None)
        sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        sp.add_argument("--threads", type=int, default=None,
                        help="0 = auto; RENORM_THREADS as fallback")
        if supersample:
            sp.add_argument("--supersample", type=int, choices=(1, 2), default=1)

    sp = sub.add_parser("julia", help="filled Julia set image")
    common(sp, supersample=True)
    sp.set_defaults(fn=cmd_julia)

    sp = sub.add_parser("ray", help="trace external rays to CSV")
    common(sp)
    sp.add_argument("--angle", action="append", default=[],
                    help="angle as p/q; repeatable")
    sp.set_defaults(fn=cmd_ray)

    sp = sub.add_parser("cuts-check", help="admissibility and legality report")
    common(sp)
    sp.set_defaults(fn=cmd_cuts_check)

    sp = sub.add_parser("avoid", help="avoiding-set image and connectivity")
    common(sp, supersample=True)
    sp.set_defaults(fn=cmd_avoid)

    sp = sub.add_parser("carrot", help="carrot boundaries and geometry estimates")
    common(sp)
    sp.set_defaults(fn=cmd_carrot)

    sp = sub.add_parser("surgery", help="carrot modification and experiments")
    common(sp)
    sp.add_argument("--seeds", type=int, default=10000)
    sp.set_defaults(fn=cmd_surgery)

    sp = sub.add_parser("verify", help="conjugacy evidence against candidate_q")
    common(sp)
    sp.add_argument("--max-period", type=int, default=MAX_PERIOD, dest="max_period")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("figure1", help="every stage on one scene (default: built-in)")
    common(sp, scene_required=False, supersample=True)
    sp.add_argument("--seeds", type=int, default=10000)
    sp.set_defaults(fn=cmd_figure1)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 1
    except RenormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
