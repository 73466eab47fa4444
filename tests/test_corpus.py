"""Every subcommand on each scene of a small checked-in corpus, pinned by its
exit code and the first line it prints: its first verdict, or its error.

The scenes in tests/scenes run at 64 pixels and 64 iterations:
- figure1_64: the figure1 scene, where every verdict passes;
- z2_empty: z^2 with no cuts, so the avoiding set is the whole filled set
  and `ray` has nothing to trace;
- rabbit: the Douady rabbit with the three cuts at its alpha fixed point,
  which are periodic and nondegenerate, so illegal;
- basilica: z^2 - z with the cut (1/3, 2/3) at its parabolic fixed point;
- figure1_rho_near_one: figure1's cuts at rho = 1 - 1e-9, so g0 = 1e-9.
  `julia` and `ray` need no carrot or wedge and pass; every other
  subcommand ends at once in the wedge's equipotential sweep, which would
  need billions of nodes;
- z2_minus_5_4: z^2 - 5/4 with no cuts.  Its parabolic 2-cycle gets no
  trap, so each bounded pixel iterates for the whole budget;
- cubic_escaping: z^3 - 3z + 3 with no cuts.  Its critical point -1 escapes
  (g_max = 0.525), so the Julia set is disconnected and the inverse
  Boettcher series converges only above g_max: the surgery's exterior cap
  is evaluated there.  Its model degree is d_c = 3, so the quadratic
  candidate is refused.

Each `ray` line prints the exact landing point and the kind of its terminal
cycle; `tests/test_rays.py` checks those points against mpmath.
"""

from pathlib import Path

import pytest

from polyrenorm.cli import main

SCENES = Path(__file__).parent / "scenes"
CARROT_CROSS = ("error: carrot sides of cut (1/7,2/7) cross before reaching the "
                "equipotential: need g0 < 0.07143, got 0.125")
SPIRAL = "error: right side spiral of cut (1/3,2/3) ends 0.126 from the root"
SWEEP = ("error: equipotential sweep at potential 1e-09 over an angle span of 0.333 "
         "needs 6666666877 nodes, more than 100000")
CONJUGACY = "conjugacy: cycle counts and non-repelling multipliers match"
DEGREE = "[PASS] surgery-degree: d_c = 2 by formula and preimage count"
CANDIDATE = "error: candidate degree 2 != expected d_c 3"
EXPECTED = {
    "figure1_64": {
        "julia": (0, "filled Julia mask: 214 pixels, 1 component(s) after closing"),
        "ray": (0, "ray 1/3: lands at -2+0j (repelling)"),
        "cuts-check": (0, "[PASS] admissible: 3 checks"),
        "avoid": (0, "[PASS] avoiding-strict-subset: 184 of 214 pixels"),
        "carrot": (0, ""),
        "surgery": (0, DEGREE),
        "verify": (0, "[PASS] " + CONJUGACY),
        "figure1": (0, "[PASS] admissible: 3 checks"),
    },
    "z2_empty": {
        "julia": (0, "filled Julia mask: 812 pixels, 1 component(s) after closing"),
        "ray": (1, "scene error: --angle: no angles: give --angle or a scene with cuts"),
        "cuts-check": (0, "[PASS] admissible: 1 checks"),
        "avoid": (2, "[FAIL] avoiding-strict-subset: 812 of 812 pixels"),
        "carrot": (0, ""),
        "surgery": (0, DEGREE),
        "verify": (0, "[PASS] " + CONJUGACY),
        "figure1": (2, "[PASS] admissible: 1 checks"),
    },
    "rabbit": {
        "julia": (0, "filled Julia mask: 522 pixels, 1 component(s) after closing"),
        "ray": (0, "ray 1/7: lands at -0.276337624+0.479727984j (repelling)"),
        "cuts-check": (2, "[PASS] admissible: 9 checks"),
        "avoid": (2, "[PASS] avoiding-strict-subset: 0 of 522 pixels"),
        "carrot": (1, CARROT_CROSS),
        "surgery": (1, CARROT_CROSS),
        "verify": (2, "[FAIL] " + CONJUGACY),
        "figure1": (1, CARROT_CROSS),
    },
    "basilica": {
        "julia": (0, "filled Julia mask: 536 pixels, 1 component(s) after closing"),
        "ray": (0, "ray 1/3: lands at 0+0j (parabolic)"),
        "cuts-check": (2, "[FAIL] admissible: 1 checks; forward-invariance cut0(1/3,2/3) failed"),
        "avoid": (2, "[PASS] avoiding-strict-subset: 0 of 536 pixels"),
        "carrot": (1, SPIRAL),
        "surgery": (1, SPIRAL),
        "verify": (2, "[FAIL] " + CONJUGACY),
        "figure1": (1, SPIRAL),
    },
    "figure1_rho_near_one": {
        "julia": (0, "filled Julia mask: 214 pixels, 1 component(s) after closing"),
        "ray": (0, "ray 1/3: lands at -2+0j (repelling)"),
        "cuts-check": (1, SWEEP),
        "avoid": (1, SWEEP),
        "carrot": (1, SWEEP),
        "surgery": (1, SWEEP),
        "verify": (1, SWEEP),
        "figure1": (1, SWEEP),
    },
    "z2_minus_5_4": {
        "julia": (0, "filled Julia mask: 164 pixels, 5 component(s) after closing"),
        "ray": (1, "scene error: --angle: no angles: give --angle or a scene with cuts"),
        "cuts-check": (0, "[PASS] admissible: 1 checks"),
        "avoid": (2, "[FAIL] avoiding-strict-subset: 164 of 164 pixels"),
        "carrot": (0, ""),
        "surgery": (0, DEGREE),
        "verify": (0, "[PASS] " + CONJUGACY),
        "figure1": (2, "[PASS] admissible: 1 checks"),
    },
    "cubic_escaping": {
        "julia": (0, "filled Julia mask: 86 pixels, 1 component(s) after closing"),
        "ray": (1, "scene error: --angle: no angles: give --angle or a scene with cuts"),
        "cuts-check": (0, "[PASS] admissible: 1 checks"),
        "avoid": (2, "[FAIL] avoiding-strict-subset: 86 of 86 pixels"),
        "carrot": (0, ""),
        "surgery": (0, "[PASS] surgery-degree: d_c = 3 by formula and preimage count"),
        "verify": (1, CANDIDATE),
        "figure1": (1, CANDIDATE),
    },
}


@pytest.mark.parametrize("scene, cmd", [(s, c) for s, runs in EXPECTED.items() for c in runs])
def test_corpus(tmp_path, capsys, scene, cmd):
    argv = [cmd, "--scene", str(SCENES / f"{scene}.json"), "--out", str(tmp_path / "out")]
    if cmd in ("surgery", "figure1"):
        argv += ["--seeds", "200"]
    code = main(argv)
    cap = capsys.readouterr()
    lines = (cap.out or cap.err).splitlines()
    assert (code, lines[0] if lines else "") == EXPECTED[scene][cmd]
