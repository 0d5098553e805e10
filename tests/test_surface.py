"""The package's source has no dead imports or dead config fields, every
int, float or bool config field holds to its kind, its public API is the
union of its library modules' own, importing it loads neither
`scipy.linalg` nor the process pool, and the README's library example runs.

Neither pyflakes nor ruff is a dependency of the project, so the
unused-import check parses `src/mwreg/*.py` with `ast`.  A name the
benchmark rebinds to a timing wrapper (`perfbench/spans.py`, `_REBIND`) is
looked up as a module global at call time, so importing it is a use even
where the module never calls it.  A config field that no caller in the
package or the benchmark sets is a knob nothing turns; the same parse finds
the keywords each config is built with.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mwreg
from mwreg import GibbsConfig
from test_bench_contract import _BENCH, _rebind_table

_SRC = Path(__file__).resolve().parent.parent / "src" / "mwreg"
_REBIND = _rebind_table()
# every module but the command-line front end re-exports its __all__
_LIBRARY = sorted(p.stem for p in _SRC.glob("*.py") if p.stem not in ("__init__", "cli"))


def _imported_names(tree):
    """(bound name, line) of every import statement, `__future__` excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                # a star import binds its module's __all__: named `<module>.*`
                name = f"{node.module}.*" if alias.name == "*" else alias.asname or alias.name
                yield name, node.lineno


def _used_names(tree) -> set:
    """Names loaded anywhere in the module, plus those its __all__ exports.

    `__all__ += <module>.__all__` republishes a module's names, which uses
    the star import `<module>.*`.
    """
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "__all__":
            value = node.value
            if (isinstance(value, ast.Attribute) and value.attr == "__all__"
                    and isinstance(value.value, ast.Name)):
                used.add(f"{value.value.id}.*")
            else:
                used |= set(ast.literal_eval(value))
    return used


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    modname = "mwreg" if path.stem == "__init__" else f"mwreg.{path.stem}"
    keep = _used_names(tree) | set(_REBIND.get(modname, ()))
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in keep]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_package_all_is_the_union_of_the_library_modules():
    assert len(set(mwreg.__all__)) == len(mwreg.__all__), "mwreg.__all__ repeats a name"
    union = set()
    for stem in _LIBRARY:
        union |= set(importlib.import_module(f"mwreg.{stem}").__all__)
    assert set(mwreg.__all__) == union | {"__version__"}
    # the order, too: the modules from the lowest layer up, then the version
    from mwreg import coefficients, fileio, fitting, posterior, simulation, tensors
    assert mwreg.__all__ == [*tensors.__all__, *coefficients.__all__, *fitting.__all__,
                             *posterior.__all__, *simulation.__all__, *fileio.__all__,
                             "__version__"]


@pytest.mark.parametrize("stem", _LIBRARY)
def test_exported_names_resolve(stem):
    module = importlib.import_module(f"mwreg.{stem}")
    for name in module.__all__:
        assert hasattr(module, name), f"mwreg.{stem}.{name} does not exist"
        assert getattr(mwreg, name) is getattr(module, name), f"mwreg.{name} is not mwreg.{stem}.{name}"


_CONFIGS = {"FitConfig": mwreg.FitConfig, "GibbsConfig": mwreg.GibbsConfig}


def _called_name(node):
    """The name a call target or argument ends in: `FitConfig` or `mw.FitConfig`."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _config_keywords(paths) -> dict:
    """Per config, the keywords of every call in paths that builds it.

    A call builds a config when it calls the class, or passes the class as
    its first argument, as the command line's `_config(FitConfig, ...)` does.
    """
    passed = {name: set() for name in _CONFIGS}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            if name not in passed and node.args:
                name = _called_name(node.args[0])
            if name in passed:
                passed[name] |= {kw.arg for kw in node.keywords}
    return passed


@pytest.mark.parametrize("config", sorted(_CONFIGS))
def test_every_config_field_is_set_by_some_caller(config):
    passed = _config_keywords(sorted(_SRC.glob("*.py")) + [_BENCH / "run.py"])[config]
    unset = [f.name for f in dataclasses.fields(_CONFIGS[config]) if f.name not in passed]
    assert not unset, f"no caller in src/mwreg or perfbench/run.py sets {config} field(s) {unset}"


# one valid build of every config that holds settings, on which the kind
# test changes one field at a time
_VALID = {
    mwreg.FitConfig: mwreg.FitConfig(rank=1),
    mwreg.GibbsConfig: mwreg.GibbsConfig(rank=1),
    mwreg.SimSpec: mwreg.SimSpec(n=1, in_dims=(1,), rank=1),
}
_VALID[mwreg.GridCell] = mwreg.GridCell(_VALID[mwreg.SimSpec], fit_rank=1, lam=0.0, replicates=1)
_KINDED = [pytest.param(config, f.name, f.type, id=f"{config.__name__}.{f.name}")
           for config in _VALID for f in dataclasses.fields(config)
           if f.type in ("int", "float", "bool")]


@pytest.mark.parametrize("config", _VALID, ids=lambda config: config.__name__)
def test_config_annotations_are_postponed(config):
    # the kind check reads an annotation as its source text, such as "int"
    assert all(isinstance(f.type, str) for f in dataclasses.fields(config))


@pytest.mark.parametrize("config, name, kind", _KINDED)
def test_every_int_float_and_bool_config_field_holds_to_its_kind(config, name, kind):
    base = _VALID[config]
    refused = ["1", None] + {"int": [True, 2.5], "float": [True, np.False_], "bool": [1, 0.0]}[kind]
    for value in refused:
        with pytest.raises(TypeError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            dataclasses.replace(base, **{name: value})
    if kind == "bool":
        assert getattr(dataclasses.replace(base, **{name: np.False_}), name) is False
    elif kind == "int":
        stored = getattr(dataclasses.replace(base, **{name: np.int64(3)}), name)
        assert type(stored) is int and stored == 3
    else:
        with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
            dataclasses.replace(base, **{name: 10 ** 400})
        # an integer is stored as a float; a field whose range is an open unit
        # interval holds no integer, so there the range rule refuses it
        for value in (0, 1, 2):
            try:
                stored = getattr(dataclasses.replace(base, **{name: value}), name)
            except ValueError:
                continue
            assert type(stored) is float and stored == value
            break
        else:
            with pytest.raises(ValueError, match=f"^{name} must be in \\(0, 1\\)$"):
                dataclasses.replace(base, **{name: 1})


def test_import_skips_scipy_linalg_and_the_process_pool():
    # every command line run pays for these imports; only `run_grid` with
    # several workers needs the pool, and only the interval step the
    # noise-filling thread executor
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, mwreg, mwreg.cli; "
             "print(sorted(m for m in ('scipy.linalg', 'concurrent.futures.process', "
             "'concurrent.futures') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_library_example_runs():
    readme = _SRC.parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    example = next(b for b in blocks if "from mwreg import" in b and "gibbs(" in b)
    namespace = {}
    exec(example, namespace)
    assert namespace["y_hat"].dims == (10, 5, 10)
    assert namespace["res"].coefficients.rank == 3
    assert len(namespace["draws"]) == GibbsConfig.n_samples
