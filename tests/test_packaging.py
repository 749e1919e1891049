import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TEST_DIRS = (ROOT / "tests", ROOT / "perfbench" / "tests")
# directories whose modules and packages the tests import by their bare names
LOCAL_DIRS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_third_party_test_import_is_a_declared_dependency():
    # a fresh ``pip install -e ".[test]"`` must be able to collect every test
    # module: each third-party module they import belongs to a runtime or
    # ``test`` dependency in pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {_normalized(re.match(r"[A-Za-z0-9._-]+", r).group()) for r in requirements}
    local = {p.stem for d in LOCAL_DIRS for p in d.iterdir() if p.suffix == ".py" or (p / "__init__.py").is_file()}
    imported = set().union(*(_imported_modules(p) for d in TEST_DIRS for p in d.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party, "found no third-party imports: the scan is broken"
    distributions = importlib.metadata.packages_distributions()
    missing = {}
    for module in sorted(third_party):
        dists = distributions.get(module, [module])
        if not {_normalized(d) for d in dists} & declared:
            missing[module] = dists
    assert not missing, f"imported by tests but not declared in pyproject.toml: {missing}"
