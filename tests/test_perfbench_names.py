"""The names the benchmark rebinds or reads in `mudk` still exist.

`perfbench/tracing.py` rebinds each (module, attribute) of its
`_CLI_CALLS` to a timing wrapper, and `perfbench/worker.py` reads a few
more names; a rename or an inlined function would crash every traced
benchmark run while the package's own tests pass.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

import mudk.cli
import mudk.hilbert
from mudk.discretize import StepQuantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    """perfbench/tracing.py as a module, with nothing installed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [
    *[(module, attr) for module, attr, _ in _tracing()._CLI_CALLS],
    (mudk.hilbert, "pole_levels"), (mudk.cli, "load_samples_csv"),
    (StepQuantile, "widths"),
], ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None))
def test_benchmark_names_exist_and_are_callable(module, attr):
    assert callable(getattr(module, attr, None))


def test_worker_import_line_runs_in_a_fresh_process():
    """`perfbench/worker.py` imports submodules through the lazy package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", "from mudk import cli, discretize, hilbert"],
                   check=True, env=env)
