"""The benchmark's tracer patches package functions by name; these names
must keep resolving, or `python3 bench/run.py --trace 1` stops with a
KeyError or AttributeError.  bench/tracer.py is loaded read-only."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import riccisym.cli  # noqa: F401  the tracer patches every riccisym module

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(short):
    return importlib.import_module("riccisym." + short)


def test_traced_spans_resolve(tracer):
    for short, func, _ in tracer.SPANS:
        assert callable(getattr(_module(short), func, None)), f"{short}.{func}"


def test_jet_callers_bind_eval_jet2(tracer):
    from riccisym.exprfn import eval_jet2

    for short in tracer.JET_CALLERS:
        assert vars(_module(short)).get("eval_jet2") is eval_jet2, short
    assert callable(_module("potential").surface_eval)


def test_tracer_installs_and_restores_every_binding(tracer):
    shorts = ("pipeline", "potential", "reconstruct", "rotsym", "cli")
    modules = [_module(short) for short in shorts]
    before = [dict(vars(m)) for m in modules]
    t = tracer.Tracer()
    t.install(0)
    try:
        assert _module("potential").eval_jet2 is not before[1]["eval_jet2"]
    finally:
        t.uninstall()
    for m, ns in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in ns.items())
