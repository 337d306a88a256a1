import os
import subprocess
import sys
from pathlib import Path

import decadic
from decadic import model, polynomial, recurrence, shooting, solvers, verify, wedges

MODULES = (model, polynomial, recurrence, shooting, solvers, verify, wedges)


def test_package_exports_exactly_its_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(decadic.__all__) == len(set(decadic.__all__))
    assert len(names) == len(set(names))
    assert set(decadic.__all__) == {"__version__", *names}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(decadic, name) is getattr(module, name), (module.__name__, name)


def test_sturmian_multiplet_is_a_solvers_export():
    assert "sturmian_multiplet" in solvers.__all__


def test_import_loads_no_scipy():
    # the tests import scipy in this process, so a fresh interpreter asks
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, decadic, decadic.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
