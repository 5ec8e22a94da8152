"""The program's entry points load nothing beyond Python and numpy.

Every simulated deployment of a sweep or a benchmark runs in its own
process, so each third-party package an import pulls in costs start-up
time and memory in every one of them, and is a dependency that
``pyproject.toml`` has to declare.
"""

import os
import subprocess
import sys

import repro

ENTRY_POINTS = [
    "repro.verify",
    "repro.harness",
    "repro.experiments",
    "repro.fuzz",
    "repro.obs.cli",
    "repro.trace",
]

TOP_LEVEL_MODULES = (
    "import importlib, sys\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print('\\n'.join(sorted({m.partition('.')[0] for m in sys.modules})))\n"
)


def top_level_modules(*imports):
    """Top-level module names loaded by a fresh interpreter after
    importing ``imports``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", TOP_LEVEL_MODULES, *imports],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return set(out.split())


def test_entry_points_load_only_stdlib_numpy_and_repro():
    allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
    allowed |= top_level_modules("numpy", "numpy.random")
    assert sorted(top_level_modules(*ENTRY_POINTS) - allowed) == []
