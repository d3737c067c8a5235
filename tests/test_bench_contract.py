"""The benchmark tracer's names: every function it wraps must still be defined where it looks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    # the same lookup as Tracer.install: owner.__dict__[attr], with owner a class for "Cls.attr"
    tracer = _load_tracer()
    assert set(tracer.WRAPPED) == set(tracer.MODULES)
    for mod, attrs in tracer.WRAPPED.items():
        module = importlib.import_module("albertkit." + mod)
        for attr in attrs:
            owner = module
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(module, cls)
            assert attr in owner.__dict__, "%s.%s" % (mod, attr)
            assert callable(owner.__dict__[attr]), "%s.%s" % (mod, attr)
