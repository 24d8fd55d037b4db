"""Every name the benchmark tracer patches still exists in dyngof.

perfbench/tracer.py patches the functions in its TRACED table by name. It
is loaded from its file here, not edited, so that deleting or renaming a
traced name fails this suite rather than only the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TRACED)


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"dyngof.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))
