"""tools/shot_census.py on a fixed subset of its grid."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "shot_census.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("shot_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_subset_tally():
    # 28 states, 56 shots (about 1 s): N = 4 at M = 1, 2 and 3, alpha in
    # {1, 9/4}, beta in {-3, 9/4}.  A change to the search or the integrator
    # moves this tally: the secant search read confirmed 51, off 4,
    # unconverged 1 here, and Newton on DOP853 steps 50, 1 and 5
    census = load_tool()
    found, skipped = census.states(("1", "2.25"), ("-3", "2.25"), ((1, 4), (2, 4), (3, 4)))
    assert (len(found), skipped) == (28, [])
    shots = census.census(found)
    assert len(shots) == 56
    assert census.tally(shots) == {"confirmed": 54, "off": 0, "far": 0, "unconverged": 2,
                                   "pole": 0, "failure": 0}
    # no shot converges away from its exact energy.  On DOP853 steps,
    # (9/4, -3, 1, 4) shot from E = +0.05 converged at -1.6e-7, and Taylor
    # steps whose last terms of y took all of atol + rtol |y| (shooting's
    # share_y 1) converged four beta = -3, M = 1 shots at -2.2e-7 to -2.9e-7
    assert [(str(spec.alpha), str(spec.beta), spec.big_m, guess, result.energy)
            for category, spec, _, guess, result in shots if category in ("off", "far")] == []
