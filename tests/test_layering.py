"""The package's import layering: each module imports only the layers below it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regretsim"

# Package modules each module may import. The CLI and the package root may
# import any of them.
ALLOWED = {
    "game": set(),
    "learners": set(),
    "dynamics": {"game", "learners"},
    "diagnostics": {"game", "learners", "dynamics"},
}


def package_imports(module: str) -> set[str]:
    """Package modules named by the imports anywhere in ``src/regretsim/<module>.py``."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "regretsim":
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:  # "from . import x" names the modules themselves
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("regretsim."))
    return found


def test_every_module_is_pinned_or_a_front_end():
    modules = {p.stem for p in SRC.glob("*.py")}
    assert modules - set(ALLOWED) == {"__init__", "cli"}
    assert set(ALLOWED) <= modules


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    imported = package_imports(module)
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"


def test_collector_sees_the_imports():
    assert package_imports("diagnostics") == {"game", "learners", "dynamics"}
    assert package_imports("cli") == {"diagnostics", "dynamics", "learners", "game"}
