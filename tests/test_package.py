import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qtcatalan
import qtcatalan.cli
from qtcatalan import continuous, discrete, limit, measure, qtpoly

MODULES = [discrete, qtpoly, continuous, measure, limit]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a name left in __all__ after its definition is deleted breaks import *
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_every_public_name():
    missing = [f"{module.__name__}.{name}" for module in MODULES for name in module.__all__
               if getattr(qtcatalan, name, None) is not getattr(module, name)]
    assert missing == []


def test_no_name_in_two_modules():
    # the package imports * from each module in turn, so a repeated name would be shadowed
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, k in counts.items() if k > 1] == []


def test_names_the_benchmark_tracer_wraps_exist(monkeypatch):
    # benchmarks/tracing.py swaps owner.__dict__[attr] for a wrapper; a name it
    # lists that src/ no longer defines breaks the traced benchmark with a KeyError
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    if not path.is_file():
        pytest.skip("no benchmarks/tracing.py in this tree")
    spec = importlib.util.spec_from_file_location("_qtcatalan_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    rows = tracing._layer_table(qtcatalan)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in rows if attr not in vars(owner)]
    assert rows and missing == []


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # under the suite's warning filters, hypothesis reporting a failure must not abort the session
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_runs_after():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
