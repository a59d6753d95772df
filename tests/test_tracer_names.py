"""The names the benchmark tracer (benchmarks/tracing.py) wraps stay where it
looks for them, so renaming one fails here and not only in a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from berryline.eigenpath import HamiltonianField

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_attr(layer, name):
    return getattr(importlib.import_module(f"berryline.{layer}"), name, None)


def test_wrapped_names_are_callable():
    names = [(layer, name) for layer, names in load_tracing().SPANNED.items()
             for name in names]
    names.append(("jahnteller", "jt_point_data"))
    missing = [f"{layer}.{name}" for layer, name in names
               if not callable(layer_attr(layer, name))]
    assert missing == []
    assert callable(getattr(HamiltonianField, "evaluate", None))


def test_noted_arguments_stay_second():
    # the tracer's _note reads these from args[1] or by keyword
    for layer, name, param in (("eigenpath", "track_branch", "path"),
                               ("comoving", "integrate_spin", "traj")):
        params = list(inspect.signature(layer_attr(layer, name)).parameters)
        assert params[1] == param, (layer, name, params)
