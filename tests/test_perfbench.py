"""The benchmark's tracer wraps package attributes that it names as
strings, so a rename in the package must show here, not as a ``KeyError``
in every traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_is_an_attribute_of_its_owner():
    # Tracer.installed() reads each target as vars(owner)[attr]
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in tracer.TARGETS
        if attr not in vars(owner)
    ]
    assert tracer.TARGETS and not missing, missing
    # Tracer._wrap calls each target, so a property or cached property in
    # its place would pass the check above and fail every traced run
    not_functions = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in tracer.TARGETS
        if not inspect.isfunction(vars(owner)[attr])
    ]
    assert not not_functions, not_functions
