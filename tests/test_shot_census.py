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
    # 28 states, 56 shots (about 2 s): N = 4 at M = 1, 2 and 3, alpha in
    # {1, 9/4}, beta in {-3, 9/4}.  A change to the search moves this tally;
    # the secant search read confirmed 51, off 4, unconverged 1 here
    census = load_tool()
    found, skipped = census.states(("1", "2.25"), ("-3", "2.25"), ((1, 4), (2, 4), (3, 4)))
    assert (len(found), skipped) == (28, [])
    shots = census.census(found)
    assert len(shots) == 56
    assert census.tally(shots) == {"confirmed": 50, "off": 1, "far": 0, "unconverged": 5,
                                   "pole": 0, "failure": 0}
