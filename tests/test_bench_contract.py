"""The names the benchmark in perfbench/ takes from mwreg must exist.

The benchmark rebinds module globals (`perfbench/spans.py`, `_REBIND`) to
timing wrappers and calls the package through `mw.<name>` lookups
(`perfbench/run.py`).  A refactor that renames or stops calling one of them
would break the benchmark run, so these tests read both files as source,
without importing them, and check that each name exists.  The benchmark
also reads attributes off returned objects; a small file round trip checks
the ones its output check of `cli_files` reads.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import mwreg
import mwreg.cli  # noqa: F401  (the benchmark imports it the same way)

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"
_RUN_SOURCE = (_BENCH / "run.py").read_text()


def _rebind_table() -> dict:
    tree = ast.parse((_BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_REBIND" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no _REBIND table")


def _is_mw(node) -> bool:
    """`mw` or `self.mw`, the benchmark's handle on the package."""
    if isinstance(node, ast.Name):
        return node.id == "mw"
    return (isinstance(node, ast.Attribute) and node.attr == "mw"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _mw_lookups() -> set:
    """Dotted paths such as "simulation.run_cell" looked up on `mw` in run.py."""
    tree = ast.parse(_RUN_SOURCE)
    inner = set()
    paths = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        chain = []
        cur = node
        while isinstance(cur, ast.Attribute) and not _is_mw(cur):
            chain.append(cur.attr)
            inner.add(id(cur.value))
            cur = cur.value
        if _is_mw(cur) and chain:
            paths.add(".".join(reversed(chain)))
    return paths


_REBIND = _rebind_table()


def test_tables_are_found():
    assert "mwreg.cli" in _REBIND and _REBIND["mwreg.cli"]
    assert {"run_cell", "simulation.run_cell", "cli.main", "read_tensor"} <= _mw_lookups()


@pytest.mark.parametrize("modname", sorted(_REBIND))
def test_rebound_names_are_module_globals(modname):
    module = importlib.import_module(modname)
    for name in _REBIND[modname]:
        # rebinding reaches only a name the module looks up at call time
        assert callable(vars(module).get(name)), f"{modname}.{name} is not a module global"


@pytest.mark.parametrize("path", sorted(_mw_lookups()))
def test_run_lookups_resolve_on_the_package(path):
    obj = mwreg
    for part in path.split("."):
        assert hasattr(obj, part), f"mwreg.{path} does not exist"
        obj = getattr(obj, part)


def test_attribute_paths_the_output_check_reads(tmp_path):
    # `cli_files` checks the files it wrote through these attributes of what
    # read_model and read_draws return (perfbench/run.py, the output check)
    rng = np.random.default_rng(0)
    x = mwreg.DenseTensor(rng.standard_normal((10, 3, 2)))
    y = mwreg.DenseTensor(rng.standard_normal((10, 2)))
    model, draws = str(tmp_path / "model.json"), str(tmp_path / "draws.json")
    mwreg.write_model(model, mwreg.fit(x, y, mwreg.FitConfig(rank=3, lam=0.5)), 0.5, 0)
    chain = mwreg.gibbs(x, y, mwreg.GibbsConfig(rank=2, n_samples=4, lam=0.5))
    mwreg.write_draws(draws, chain, 0.5, 0)
    assert mwreg.read_model(model)[0].coefficients.rank == 3
    b = mwreg.read_draws(draws)[0].coefficients[0]
    assert (b.in_dims, b.out_dims) == ((3, 2), (2,))
    assert len(mwreg.read_draws(draws)[0]) == 4
    assert "model[0].coefficients" in _RUN_SOURCE and "draws[0].coefficients[0]" in _RUN_SOURCE
    assert "len(draws[0])" in _RUN_SOURCE
