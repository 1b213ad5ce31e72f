"""The package's import layering: each module imports only the layers below it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regretsim"

# Package modules each module may import. The CLI and the package root may
# import any of them.
ALLOWED = {
    "game": set(),
    "learners": set(),
    "export": {"game"},
    "dynamics": {"game", "learners", "export"},
    "diagnostics": {"game", "learners", "dynamics", "export"},
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
    assert package_imports("diagnostics") == {"learners", "dynamics", "export"}
    assert package_imports("cli") == {"diagnostics", "dynamics", "learners", "game", "export"}


@pytest.mark.parametrize("module", ["game", "learners", "dynamics", "diagnostics"])
def test_module_opens_no_file(module):
    # files are opened by ``export`` and ``cli`` alone
    tree = ast.parse((SRC / f"{module}.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == [], f"{module} calls open() at lines {calls}"


# The package's public names. A removal or addition is a deliberate edit of this list.
PUBLIC = [
    "ADAPTIVE_OPT_HEDGE", "BatchResult", "BoundTermBreakdown", "CceReport", "ClosenessReport",
    "EmpiricalPlay", "FiniteDifferenceProfile", "Game", "HEDGE", "LearnerConfig", "LearnerState",
    "OPT_HEDGE", "RegretEntry", "Trajectory", "VarianceInequalityReport", "__version__",
    "adaptive_opt_hedge_step", "batch_run", "cce_gap", "check_variance_inequality",
    "consecutive_closeness", "diagnostics", "dynamics", "empirical_joint_distribution", "export",
    "fd_decay_profile", "game", "hedge_step", "init_state", "learners",
    "load_game_json", "named_game", "opt_hedge_step", "practical_eta", "random_game",
    "recommended_eta", "regret", "regret_bound_terms", "regret_report", "run", "run_streaming",
    "save_game_json", "variance",
]


def test_public_surface_is_pinned():
    import regretsim

    assert sorted(regretsim.__all__) == PUBLIC


def code_names(path: Path) -> set[str]:
    """The names that ``path``'s code reads: names, attributes, imported names and modules."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
            found.update((getattr(node, "module", None) or "").split("."))
    return found


def test_every_public_name_has_a_user_outside_tests():
    # code in the package's modules (not the re-exports of __init__), the benchmark
    # and the tools, the words of the README's code blocks, and the attributes that
    # pyproject.toml's build reads; a string, a comment, README prose, an assignment
    # or a name's own def or class is not a use
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "benchmarks").rglob("*.py"), *(ROOT / "tools").glob("*.py")]
    used = set().union(*map(code_names, files))
    readme = "".join(re.findall(r"^```\w*\n(.*?)^```", (ROOT / "README.md").read_text(),
                                re.MULTILINE | re.DOTALL))
    used.update(re.findall(r"\w+", readme))
    for attr in re.findall(r'\battr = "([\w.]+)"', (ROOT / "pyproject.toml").read_text()):
        used.update(attr.split("."))
    assert [name for name in PUBLIC if name not in used] == []


# Identities that hold for every sequence, checked in tests/paper_lemmas.py, not the package.
MOVED = [
    "DivergenceValues", "FreqCauchyReport", "check_circular_fourier_identity", "check_freq_cauchy",
    "circular_finite_difference", "dft", "divergences", "finite_difference_binomial", "idft",
    "local_norms",
]


def test_sequence_identities_left_diagnostics():
    from regretsim import diagnostics

    assert [name for name in MOVED if hasattr(diagnostics, name)] == []


def test_paper_lemmas_imports_no_package_module():
    tree = ast.parse((Path(__file__).resolve().parent / "paper_lemmas.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "regretsim"]


def test_dynamics_functions_fit_a_screen():
    # the engine's layout, cell builder and round loop stay short enough to read whole
    tree = ast.parse((SRC / "dynamics.py").read_text())
    long = {node.name: node.end_lineno - node.lineno + 1 for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.end_lineno - node.lineno + 1 > 70}
    assert long == {}
