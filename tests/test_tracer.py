"""The benchmark tracer's contract with the library.

``bench/tracer.py`` wraps the library's entry points by name and counts the
cells of each elimination from the ``rows`` and ``cols`` of its first
argument.  The layers that a linearization passes through must each record
time under their names.  This test runs it over a fresh import of the library, as the
benchmark does, and restores the modules the rest of the suite imported.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def fresh_library(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in list(sys.modules):
        if name == "modclass" or name.startswith("modclass."):
            monkeypatch.delitem(sys.modules, name)
    tracer = importlib.import_module("tracer")
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"modclass.{m}") for m in tracer.MODULES}
    )
    return tracer, lib


def namespace_snapshot(tracer, lib) -> dict:
    """Every attribute of the traced modules and of the traced classes."""
    snap = {}
    for m in tracer.MODULES:
        snap.update({(m, key): value for key, value in vars(getattr(lib, m)).items()})
    for mod_name, attr, _ in tracer.ENTRY_POINTS:
        if "." in attr:
            cls = getattr(getattr(lib, mod_name), attr.split(".")[0], None)
            if cls is not None:
                snap.update({(mod_name, cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_counts_eliminations_and_uninstalls(fresh_library):
    tracer_mod, lib = fresh_library
    before = namespace_snapshot(tracer_mod, lib)
    tracer = tracer_mod.Tracer(lib)
    tracer.install()
    try:
        assert lib.linalg.rref is not before[("linalg", "rref")]
        assert lib.twisted.rref is lib.linalg.rref
        tracer.reset_pass()
        tracer.begin_root()
        lib.twisted.modular_class(lib.catalog.q_example(3).structure)
        g = lib.catalog.gl(2)
        p = lib.liealg.span_subalgebra(g, [g.basis_vector(0), g.basis_vector(1)])
        lib.frobenius.linearize(g, p, lib.liealg.Cochain(g.dim, 2, {(0, 1): 1}))
        with pytest.raises(lib.frobenius.NotFrobeniusError):
            lib.frobenius.frobenius_modular(g, p, lib.liealg.Cochain.zero(p.dim, 1))
        tracer.end_root()
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert metrics["linalg.elim_calls"] > 0
    assert metrics["linalg.elim_cells"] > 0
    # the Jacobi check, the differential and the Yang-Baxter check each ran
    # under the name the tracer wraps; a refactor that routes around one
    # would leave its layer at 0
    for layer in ("twisted.cybe_s", "liealg.ce_differential_s", "liealg.jacobi_s"):
        assert metrics[layer] > 0, layer
    after = namespace_snapshot(tracer_mod, lib)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
