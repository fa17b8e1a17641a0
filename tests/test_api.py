"""The public surface: ``zetawalk.__all__`` and the names the benchmark looks up.

``perfbench/`` is parsed as source text, never imported, so nothing is
written there.
"""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

import zetawalk
from zetawalk import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8")).body


PATCHES = next(
    ast.literal_eval(node.value)
    for node in _parse("tracing.py")
    if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"]
)
WORKER_IMPORTS = [
    (node.module, alias.name)
    for node in _parse("worker.py")
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zetawalk")
    for alias in node.names
]


# The library API, name by name; a name leaves or joins only on purpose.
PUBLIC_NAMES = {
    "Poly", "RatFunc", "Series",
    "Digraph", "GraphError", "GraphMode", "PhiPair", "arc_adjacency", "build_digraph", "symmetric_digraph",
    "ConsistencyError", "WeightAssignment", "ZetaError", "ZetaReport", "edge_matrix", "euler_truncated",
    "exponential_truncated", "hashimoto", "ihara_digraph", "ihara_graph", "n_k_all", "verify_expressions",
    "WalkError", "eigenvalues_numeric", "grover_spectrum_via_zeta", "grover_transition", "spectrum_deviation",
    "szegedy_discriminant", "szegedy_spectrum_via_factorization", "szegedy_transition", "uniform_probability",
    "unitarity_defect",
    "FIXTURES", "Instance", "ParseError", "fixture_digraph", "fixture_instance", "fixture_text",
    "instance_digraph", "instance_weights", "load_instance", "parse_instance", "render_instance",
}


def test_all_is_explicit_and_has_no_modules():
    assert len(zetawalk.__all__) == len(set(zetawalk.__all__)) == 43
    assert set(zetawalk.__all__) == PUBLIC_NAMES
    for gone in (
        "sato_ihara_graph", "sato_ihara_digraph", "IharaIdentityError", "char_poly", "prime_cycles", "Matrix",
        "Arc", "validate_probability",
    ):
        assert not hasattr(zetawalk, gone), gone
    assert not hasattr(zetawalk.WeightAssignment, "ones")
    for name in zetawalk.__all__:
        assert not isinstance(getattr(zetawalk, name), types.ModuleType), name


def test_readme_library_example_runs():
    """The README's ``## Library`` code block, executed as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md (## Library)", "exec"), namespace)
    assert namespace["report"].all_agree
    assert len(namespace["spectrum"]) == namespace["g"].arc_count


def test_readme_lists_the_library_api_by_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = readme.split("The library API is", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for item in ("\n" + listing).split("\n- ")[1:]:
        module, _, names = item.partition(":")
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", names), module.strip("`- ")))
    assert set(listed) == PUBLIC_NAMES
    for name, module in listed.items():  # FIXTURES, a dict, has no __module__
        assert getattr(getattr(zetawalk, name), "__module__", f"zetawalk.{module}") == f"zetawalk.{module}", name


def _imported_modules(path):
    """The top-level name of each module that ``path`` imports, anywhere in
    it; the package's own modules go by their short names (``linalg``)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            own = node.module in (None, "zetawalk")  # from . import x, from zetawalk import x
            names = [alias.name for alias in node.names] if own else [node.module]
        else:
            continue
        for name in names:
            yield name.removeprefix("zetawalk.").partition(".")[0]


def test_only_walk_imports_numpy_and_only_zeta_imports_linalg():
    imports = {
        path.name: set(_imported_modules(path))
        for path in sorted((ROOT / "src" / "zetawalk").glob("*.py"))
    }
    assert {name for name, mods in imports.items() if "numpy" in mods} == {"walk.py"}
    assert {name for name, mods in imports.items() if "linalg" in mods} == {"zeta.py"}
    # the test-only dependencies stay out of the package
    test_only = {"sympy", "networkx", "hypothesis", "pytest"}
    assert {name: mods & test_only for name, mods in imports.items() if mods & test_only} == {}


def _unused_imports(path):
    """The names that a top-level import of ``path`` binds and that nothing
    in the file uses; a string in ``__all__`` counts as a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used)


def test_every_top_level_import_is_used():
    paths = sorted((ROOT / "src" / "zetawalk").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [unused for path in paths for unused in _unused_imports(path)] == []


def _public_callables():
    """Each callable in ``__all__`` and each public method of each class there."""
    for name in zetawalk.__all__:
        obj = getattr(zetawalk, name)
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_the_exact_core_has_no_field_parameter():
    """Nor a ``check`` or ``tol`` parameter, nor an ``order`` that defaults to None."""
    for name in ("QQ", "CC", "RationalField", "ComplexField"):
        assert not hasattr(zetawalk, name), name
    for name, obj in _public_callables():
        if isinstance(obj, type):
            assert not hasattr(obj, "field"), name
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception classes that keep the builtin constructor
            continue
        assert not {"field", "check", "tol"} & set(params), name
        assert "order" not in params or params["order"].default is not None, name


@pytest.mark.parametrize("path, attr, span", PATCHES)
def test_tracing_patch_targets_resolve(path, attr, span):
    # a module, or a class given as module.Class, as the tracer resolves it
    try:
        owner = importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        owner = getattr(importlib.import_module(module), cls)
    assert attr in vars(owner)


# The names that one ``spectrum`` call looks up in ``zetawalk.cli``, per walk.
SPECTRUM_CALLS = {
    walk: {
        "load_instance", "instance_digraph", f"{walk}_transition", via,
        "eigenvalues_numeric", "unitarity_defect", "spectrum_deviation",
    }
    for walk, via in (("grover", "grover_spectrum_via_zeta"), ("szegedy", "szegedy_spectrum_via_factorization"))
}


@pytest.mark.parametrize("walk", sorted(SPECTRUM_CALLS))
def test_spectrum_calls_each_traced_cli_name_once(walk, monkeypatch, tmp_path, capsys):
    """A traced span reads 0 when the CLI stops calling the name that the
    tracer wraps, so one ``spectrum`` call must call each once."""
    traced = {attr for path, attr, _ in PATCHES if path == "zetawalk.cli"}
    assert SPECTRUM_CALLS[walk] <= traced
    calls = dict.fromkeys(traced, 0)

    def counting(attr, fn):
        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return counted

    for attr in traced:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    instance = tmp_path / "p3.zw"
    instance.write_text(zetawalk.fixture_text("p3"), encoding="utf-8")
    assert cli.main(["spectrum", str(instance), walk]) == 0
    assert "VERDICT spectrum agree" in capsys.readouterr().out
    assert calls == {attr: int(attr in SPECTRUM_CALLS[walk]) for attr in traced}


@pytest.mark.parametrize("module, name", WORKER_IMPORTS)
def test_worker_imports_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)
