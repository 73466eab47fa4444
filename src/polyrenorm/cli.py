"""Scene-driven command line front end.

Every subcommand is one entry of `COMMANDS`: its help text, its flags beyond
the common ones, and the stage writers it runs in order on one `Run`.

At import this module loads only the numpy-free scalar path (scene, poly,
bottcher); each writer and `Run` stage imports the array modules it calls
where it runs, so `ray` and `--help` never load numpy.

Exit codes: 0 when all verdicts pass, 2 when a check fails, 1 on errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .bottcher import RayPolyline, land_rays
from .errors import RenormError, SceneError
from .poly import MAX_CENSUS_POINTS
from .scene import GridSpec, Scene, figure1_scene, integer_field, load_scene, override, parse_angle

if TYPE_CHECKING:
    from .avoiding import EscapeAnalysis, InteriorTrap
    from .carrots import Carrot
    from .cuts import CutFamily
    from .grid import Mask, PixelRaster
    from .verify import ConjugacyReport

# (name, ok, detail): one checked statement of a stage
Verdict = tuple[str, bool, str]
# conjugacy evidence covers cycles up to this period unless asked otherwise
MAX_PERIOD = 3
# figure1 compares the surgery's mask with the avoiding set on at most this
# many pixels a side
COMPARE_CAP = 512


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


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _tagged(name: str, ok: bool, detail: str) -> str:
    return f"[{_pass(ok)}] {name}: {detail}"


class Run:
    """One invocation: the scene with its overrides, the validated options,
    and each stage computed on first use and kept.  Every option is checked
    here, before any stage runs and before the output directory exists."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.command = args.command
        self.out = args.out
        scene = load_scene(args.scene) if args.scene else figure1_scene()
        self.scene = override(scene, resolution=args.resolution, max_iter=args.max_iter)
        self.supersample = getattr(args, "supersample", 1)
        if hasattr(args, "seeds"):
            self.seeds = integer_field(args.seeds, "--seeds", 1, "expected a positive integer")
        self.threads = _resolve_threads(args.threads)  # read by the pixel sweeps
        self.angles = None  # None: the rays of the cut family
        if hasattr(args, "angle"):
            self.angles = ([parse_angle(a, "--angle") for a in args.angle]
                           or [tr for tr, _ in self.scene.cuts])
            if not self.angles:
                raise SceneError("--angle", "no angles: give --angle or a scene with cuts")
        self.max_period = (_max_period(self.scene, args.max_period)
                           if hasattr(args, "max_period") else MAX_PERIOD)
        if _write_conjugacy in COMMANDS[args.command].writers and self.scene.candidate_q is None:
            raise SceneError(f"{args.scene or 'scene'}.candidate_q",
                             "missing; conjugacy evidence needs a candidate polynomial")
        self.verdicts: list[Verdict] = []

    def path(self, name: str) -> str:
        """`name` in the output directory, which is made on the first write."""
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, name)

    @cached_property
    def family(self) -> CutFamily:
        from .cuts import build_family
        return build_family(self.scene.polynomial, self.scene.cuts, g0=self.scene.g0)

    @cached_property
    def raster(self) -> PixelRaster:
        """The wedge raster the sweeps below read (at most 16 MB), released after the last."""
        from .avoiding import wedge_raster
        return wedge_raster(self.scene.polynomial, self.family)

    @cached_property
    def trap(self) -> InteriorTrap:
        """The interior trap of the sweeps below, certified once for them all."""
        from .avoiding import interior_trap
        return interior_trap(self.scene.polynomial, self.scene.max_iter, self.raster, avoid=1)

    def _sweep(self, grid: GridSpec, supersample: int) -> EscapeAnalysis:
        from .avoiding import escape_analysis
        return escape_analysis(self.scene.polynomial, grid, self.scene.max_iter,
                               raster=self.raster, trap=self.trap, threads=self.threads,
                               supersample=supersample)

    @cached_property
    def sweep(self) -> EscapeAnalysis:
        res = self._sweep(self.scene.grid, self.supersample)
        if _write_surgery not in COMMANDS[self.command].writers:
            del self.raster  # no comparison sweep follows
        return res

    @cached_property
    def compare_mask(self) -> Mask:
        """The plain avoiding mask the surgery's mask is compared with, on
        the scene grid (capped at COMPARE_CAP pixels in figure1).  The last
        sweep that reads the raster, so the raster is released here."""
        grid = self.scene.grid
        if self.command == "figure1":
            grid = GridSpec(grid.center, grid.width, min(grid.resolution, COMPARE_CAP))
        plain = grid == self.scene.grid and self.supersample == 1
        mask = self.sweep.avoiding if plain else self._sweep(grid, 1).avoiding
        del self.raster
        return mask

    @cached_property
    def rays(self) -> list[RayPolyline]:
        """The landed rays of the angles, else those of the cut family."""
        if self.angles is not None:
            return land_rays(self.scene.polynomial, self.angles)
        return [ray for cut in self.family.cuts
                for ray in ((cut.ray_r,) if cut.degenerate else (cut.ray_r, cut.ray_l))]

    @cached_property
    def carrots(self) -> list[Carrot]:
        from .carrots import build_carrots
        return build_carrots(self.scene.polynomial, self.family.cuts, self.scene.rho)

    @cached_property
    def conjugacy(self) -> ConjugacyReport:
        from .verify import conjugacy_report
        return conjugacy_report(self.scene.polynomial, self.family, self.scene.candidate_q,
                                self.max_period)


# Stage writers: each writes its artifacts for a run and returns its verdicts.
Writer = Callable[[Run], list[Verdict]]


def _write_julia(run: Run) -> list[Verdict]:
    from . import avoiding, grid, render
    scene = run.scene
    res = avoiding.escape_analysis(scene.polynomial, scene.grid, scene.max_iter,
                                   threads=run.threads, supersample=run.supersample)
    render.write_ppm(run.path("julia.ppm"),
                     render.render_scene_image(res.kp, res.kp, res.esc_steps))
    grid.save_mask_raw(res.kp, run.path("julia_mask.raw"))
    return [("filled Julia mask", True, f"{res.kp.count()} pixels, "
             f"{avoiding.connected_components(res.kp)} component(s) after closing")]


def _write_rays(run: Run) -> list[Verdict]:
    rows = [[ray.angle.num, ray.angle.den, repr(float(t)),
             repr(float(z.real)), repr(float(z.imag))]
            for ray in run.rays for t, z in zip(ray.potentials, ray.points)]
    _write_rows(run.path("rays.csv"), ["angle_num", "angle_den", "potential", "re", "im"], rows)
    return []  # `_landings` reports them: figure1's all land, as build_cut raises otherwise


def _landings(run: Run) -> list[Verdict]:
    return [(f"ray {ray.angle}", ray.landing.converged,
             f"{'lands' if ray.landing.converged else 'does not certifiably land'} "
             f"at {ray.landing.point:.9g} ({ray.landing.method})") for ray in run.rays]


def _write_checks(run: Run) -> list[Verdict]:
    from .cuts import check_admissible, check_legal
    P, family = run.scene.polynomial, run.family
    reports = {"admissible": check_admissible(P, family),
               "legal": check_legal(P, family)}
    _write_rows(run.path("checks.csv"), ["check", "subject", "verdict", "detail"],
                [[r.check, r.subject, _pass(r.ok), r.detail]
                 for rep in reports.values() for r in rep.rows])
    return [(name, rep.ok, f"{len(rep.rows)} checks"
             + "".join(f"; {r.check} {r.subject} failed" for r in rep.failures()))
            for name, rep in reports.items()]


def _write_avoiding_image(run: Run) -> list[Verdict]:
    from . import render
    res = run.sweep
    render.write_ppm(run.path("avoiding.ppm"),
                     render.render_scene_image(res.kp, res.avoiding, res.esc_steps))
    return []


def _write_avoiding(run: Run) -> list[Verdict]:
    from . import avoiding, grid
    res = run.sweep
    grid.save_mask_raw(res.avoiding, run.path("avoiding_mask.raw"))
    count = avoiding.connected_components(res.avoiding)
    subset = bool((res.avoiding.bits <= res.kp.bits).all()
                  and res.avoiding.count() < res.kp.count())
    return [("avoiding-strict-subset", subset,
             f"{res.avoiding.count()} of {res.kp.count()} pixels"),
            ("avoiding-connected", count == 1, f"{count} component(s) after closing")]


def _write_boundaries(run: Run) -> list[Verdict]:
    _write_rows(run.path("carrot_boundaries.csv"), ["carrot", "re", "im"],
                [[i, repr(float(z.real)), repr(float(z.imag))]
                 for i, c in enumerate(run.carrots) for z in c.boundary])
    return []


def _write_geometry(run: Run) -> list[Verdict]:
    from .carrots import carrot_geometry
    rows = []
    for i, c in enumerate(run.carrots):
        est = carrot_geometry(run.scene.polynomial, c)
        rows.append([i, str(c.cut.theta_r), str(c.cut.theta_l),
                     repr(est.quasi_arc_C), repr(est.transversality_gap),
                     repr(est.weak_qs_kappa), est.sample_count])
    _write_rows(run.path("geometry.csv"),
                ["carrot", "theta_r", "theta_l", "quasi_arc_C",
                 "transversality_gap", "weak_qs_kappa", "samples"], rows)
    return []  # sampled estimates, not verdicts


def _write_surgery(run: Run) -> list[Verdict]:
    """Build the surgery on the run's carrots and compare its non-escaping
    mask with the run's comparison mask, on the grid of that mask."""
    from . import avoiding, grid, render, surgery
    scene, plain, carrots = run.scene, run.compare_mask, run.carrots
    try:
        S = surgery.build_surgery(scene.polynomial, run.family, scene.rho, carrots)
    except RenormError as exc:
        return [("surgery-degree", False, str(exc))]
    visits = surgery.visit_count_experiment(S, run.seeds, scene.max_iter,
                                            window=scene.grid, seed=scene.seed)
    fmask = surgery.nonescaping_mask(S, plain.grid, scene.max_iter, threads=run.threads)
    cmp_ = avoiding.compare_masks(fmask, plain, band=2)
    dil = surgery.dilatation_report(S, n=32)
    grid.save_mask_raw(fmask, run.path("nonescaping_mask.raw"))
    render.write_ppm(run.path("nonescaping.ppm"), render.render_scene_image(fmask, fmask))
    _write_rows(run.path("surgery.csv"), ["key", "value"], [
        ["degree", S.P.degree],
        ["degree_dc", S.d_c],
        ["t_cr", visits.t_cr],
        ["t0", surgery.T0],
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


def _write_conjugacy_text(run: Run) -> list[Verdict]:
    rep = run.conjugacy
    lines = [f"conjugacy evidence: {_pass(rep.verdict)} "
             f"(candidate degree {rep.degree}, {len(rep.ambiguous)} ambiguous cycle(s))"]
    for r in rep.rows:
        lines.append(
            f"  period {r.period}: {r.count_restricted} restricted vs "
            f"{r.count_candidate} candidate cycles "
            f"[counts {'ok' if r.counts_match else 'MISMATCH'}, "
            f"non-repelling multipliers {'ok' if r.multipliers_match else 'MISMATCH'}]")
    with open(run.path("conjugacy.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return []


def _write_conjugacy(run: Run) -> list[Verdict]:
    rep = run.conjugacy
    _write_rows(run.path("conjugacy.csv"),
                ["period", "count_restricted", "count_candidate",
                 "counts", "multipliers", "nonrep_restricted", "nonrep_candidate"],
                [[r.period, r.count_restricted, r.count_candidate,
                  _pass(r.counts_match), _pass(r.multipliers_match),
                  ";".join(f"{m:.9g}" for m in r.nonrep_restricted),
                  ";".join(f"{m:.9g}" for m in r.nonrep_candidate)]
                 for r in rep.rows])
    return [("conjugacy", rep.verdict, "cycle counts and non-repelling multipliers match")]


def _write_figure1(run: Run) -> list[Verdict]:
    """The composite image and the summary of every verdict so far."""
    from . import grid, render
    scene, res = run.scene, run.sweep
    wedges = grid.PixelRaster(scene.grid, [run.family.walls]).layer(1)
    img = render.render_scene_image(res.kp, res.avoiding, res.esc_steps, wedges)
    for ray in run.rays:
        render.draw_polyline(img, scene.grid, ray.points, render.COLOR_RAY)
    for c in run.carrots:
        render.draw_polyline(img, scene.grid, c.boundary, render.COLOR_CARROT)
    render.write_ppm(run.path("figure1.ppm"), img)
    with open(run.path("summary.txt"), "w") as fh:
        fh.write("".join(_tagged(*v) + "\n" for v in run.verdicts))
    return []


class Command(NamedTuple):
    help: str
    flags: tuple[str, ...]  # beyond the common ones, in --help order
    writers: tuple[Writer, ...]
    tagged: bool = True  # print verdicts as [PASS]/[FAIL] lines


COMMANDS = {
    "julia": Command("filled Julia set image", ("--supersample",), (_write_julia,), False),
    "ray": Command("trace external rays to CSV", ("--angle",), (_write_rays, _landings), False),
    "cuts-check": Command("admissibility and legality report", (), (_write_checks,)),
    "avoid": Command("avoiding-set image and connectivity", ("--supersample",),
                     (_write_avoiding_image, _write_avoiding)),
    "carrot": Command("carrot boundaries and geometry estimates", (),
                      (_write_boundaries, _write_geometry)),
    "surgery": Command("carrot modification and experiments", ("--seeds",), (_write_surgery,)),
    "verify": Command("conjugacy evidence against candidate_q", ("--max-period",),
                      (_write_conjugacy_text, _write_conjugacy)),
    "figure1": Command("every stage on one scene (default: built-in)",
                       ("--supersample", "--seeds"),
                       (_write_checks, _write_rays, _write_avoiding, _write_geometry,
                        _write_surgery, _write_conjugacy, _write_figure1)),
}
FLAGS = {
    "--supersample": dict(type=int, choices=(1, 2), default=1),
    "--angle": dict(action="append", default=[], help="angle as p/q; repeatable"),
    "--seeds": dict(type=int, default=10000),
    "--max-period": dict(type=int, default=MAX_PERIOD, dest="max_period"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polyrenorm",
                                description="Julia sets, external rays, cuts, "
                                            "carrots and carrot surgery")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--scene", help="scene JSON path", default=None,
                        required=name != "figure1")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--resolution", type=int, default=None)
        sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        sp.add_argument("--threads", type=int, default=None,
                        help="0 = auto; RENORM_THREADS as fallback")
        for flag in cmd.flags:
            sp.add_argument(flag, **FLAGS[flag])
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        run = Run(args)
        for write in cmd.writers:
            run.verdicts += write(run)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 1
    except RenormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, ok, detail in run.verdicts:
        print(_tagged(name, ok, detail) if cmd.tagged else f"{name}: {detail}")
    return 0 if all(ok for _, ok, _ in run.verdicts) else 2


if __name__ == "__main__":
    sys.exit(main())
