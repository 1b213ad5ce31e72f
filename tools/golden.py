"""Golden check: do the CLI's artifacts at a git revision and in the working tree agree?

Usage: python tools/golden.py <rev>

Exports ``src`` at <rev> with ``git archive``, then runs the seventeen golden
commands below twice, once against that export and once against the working
tree's ``src``, each side in its own fresh directory with the same ``--out``
names. Every file written is compared byte for byte, except that
``duration_seconds`` is dropped from each ``summary.json`` first. For a JSON
file that differs, the differing fields and those only one side has are
listed; for a CSV file, the number of differing lines and the largest
absolute and relative difference between numeric cells. Then it prints each
command's peak resident set size and CPU seconds (user plus system) on both
sides, as ``os.wait4`` reports them for that child process, and the total
line count of ``src/regretsim/*.py`` at <rev> and in the working tree, and
the difference.
Exit status: 0 if every file agrees, 1 if any differs, 2 if the export or a
command fails. Needs only the stdlib and the numpy that ``regretsim`` itself
imports.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["gen-game", "--actions", "2,3,2", "--game-seed", "4"],
    ["diagnose", "--game", "random", "--actions", "3,3", "--game-seed", "1",
     "--rounds", "16384", "--fd-h-max", "5", "--seed", "7", "--out", "diagnose"],
    ["compare", "--game", "random", "--actions", "3,3", "--game-seed", "1",
     "--learner", "hedge,opt_hedge", "--rounds", "4096", "--out", "compare"],
    ["run", "--game", "game.json", "--learner", "adaptive_opt_hedge", "--eta", "0.5",
     "--rounds", "2048", "--out", "run"],
    # equal action counts put every player in one group, which forms one cell
    ["run", "--game", "random", "--actions", "3,3,3,3", "--game-seed", "2", "--rounds", "4096",
     "--out", "run4"],
    # 1,001,000 profiles: past the dense joint distribution's limit of 10^6
    ["run", "--game", "random", "--actions", "1001,1000", "--rounds", "2", "--out", "run_wide"],
    # T = 2^16: 16 row blocks of the regret sums and the audits, and a peak RSS
    # set by the trajectory and the per-round vectors, not by the CSV writers
    ["diagnose", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--rounds", "65536",
     "--fd-h-max", "5", "--seed", "7", "--no-trajectory", "--out", "diagnose_long"],
    # JSON only: summary.json and diagnostics.json, and no CSV file
    ["run", "--game", "matching_pennies", "--rounds", "64", "--format", "json",
     "--diagnostics", "closeness", "--out", "run_json"],
    # every diagnostic with JSON only, and with CSV only: the fd profiles come from
    # fd_decay_profile whatever the format, and fd_values_player*.csv from a second walk
    ["diagnose", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--rounds", "4096",
     "--format", "json", "--out", "diagnose_json"],
    ["diagnose", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--rounds", "4096",
     "--format", "csv", "--out", "diagnose_csv"],
    # the variance inequality alone: the bound terms are computed for it but not written
    ["run", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--rounds", "4096",
     "--diagnostics", "variance_inequality", "--format", "json", "--out", "variance_only"],
    # a trajectory with exact zeros, subnormals and values below 1e-26: the CSV
    # writer's exact fallback rows
    ["run", "--game", "prisoners_dilemma_rescaled", "--learner", "opt_hedge", "--eta", "4",
     "--rounds", "2048", "--out", "pd"],
    # a step size above 1: the engine shifts the exponent by its max, on a game
    # whose strategies do not collapse as the prisoner's dilemma's do
    ["run", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--eta", "2",
     "--rounds", "4096", "--out", "shifted"],
    # Hedge's own trajectory, and a two-group run: one cell per player
    ["run", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--learner", "hedge",
     "--rounds", "4096", "--out", "hedge"],
    ["run", "--game", "random", "--actions", "3,3", "--game-seed", "1", "--learner",
     "hedge,opt_hedge", "--rounds", "4096", "--out", "mixed"],
    # a horizon off the engine's record window grid, so its last window is partial:
    # three players, each alone in its group and cell, which folds nothing and runs two
    # matmuls, over the second opponent's strategy and then the first's
    ["run", "--game", "random", "--actions", "3,3,2", "--game-seed", "5", "--learner",
     "hedge,opt_hedge,opt_hedge", "--rounds", "1000", "--out", "partial"],
    # four players in three groups, so one cell each: a fold of the last two opponents,
    # then the two matmuls
    ["run", "--game", "random", "--actions", "3,2,3,2", "--game-seed", "6", "--learner",
     "hedge,opt_hedge,opt_hedge,opt_hedge", "--rounds", "2048", "--out", "cells4"],
)


def fail(message: str):
    print(f"golden: {message}", file=sys.stderr)
    sys.exit(2)


def export_src(rev: str, dest: Path) -> Path:
    """Unpack ``src`` at ``rev`` under ``dest`` and return its path."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if done.returncode != 0:
        fail(f"`git archive {rev}` exited {done.returncode}:\n{done.stderr.decode()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_commands(src: Path, cwd: Path) -> list[tuple[float, float]]:
    """Run every golden command in ``cwd`` against ``src``; return each one's
    peak RSS in MiB and CPU seconds."""
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    usages = []
    for argv in COMMANDS:
        with tempfile.TemporaryFile() as err:
            child = subprocess.Popen([sys.executable, "-m", "regretsim.cli", *argv], cwd=cwd,
                                     env=env, stdout=subprocess.DEVNULL, stderr=err)
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                err.seek(0)
                fail(f"`regretsim {' '.join(argv)}` against {src} exited "
                     f"{child.returncode}:\n{err.read().decode()}")
        # Linux reports ru_maxrss in kilobytes
        usages.append((usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime))
    return usages


def parsed(path: Path):
    """A JSON file's value, with ``duration_seconds`` dropped from ``summary.json``."""
    data = json.loads(path.read_text())
    if path.name == "summary.json":
        data.pop("duration_seconds", None)
    return data


def content(path: Path) -> bytes:
    """What is compared: the file's bytes, or for ``summary.json`` its JSON without timing."""
    return json.dumps(parsed(path)).encode() if path.name == "summary.json" else path.read_bytes()


def json_diffs(a, b, where: str = ""):
    """Yield ``field: a != b`` for every leaf where two parsed JSON values differ,
    and ``field: only ...`` for a field that one side lacks."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            field = f"{where}.{key}" if where else key
            if key in a and key in b:
                yield from json_diffs(a[key], b[key], field)
            else:
                side, value = ("the working tree", b[key]) if key in b else ("the revision", a[key])
                yield f"{field}: only in {side}: {value!r}"
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from json_diffs(x, y, f"{where}[{k}]")
    elif json.dumps(a) != json.dumps(b):
        yield f"{where or '(root)'}: {a!r} != {b!r}"


def csv_diff(old: Path, new: Path) -> str:
    """How far two CSV files differ: differing lines, largest gaps between numeric cells."""
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    lines = abs(len(a) - len(b))
    largest, relative = 0.0, 0.0
    for row_a, row_b in zip(a, b):
        if row_a == row_b:
            continue
        lines += 1
        for cell_a, cell_b in zip(row_a.split(","), row_b.split(",")):
            try:
                x, y = float(cell_a), float(cell_b)
            except ValueError:
                continue
            if x != y:
                largest = max(largest, abs(x - y))
                relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
    return (f"{lines} lines differ; largest numeric difference {largest:.3g} absolute, "
            f"{relative:.3g} relative")


def compare(base: Path, head: Path, rev: str) -> int:
    names = {path.relative_to(side) for side in (base, head)
             for path in side.rglob("*") if path.is_file()}
    differing = 0
    for name in sorted(names):
        old, new = base / name, head / name
        if not old.exists() or not new.exists():
            print(f"only {'in the working tree' if new.exists() else f'at {rev}'}: {name}")
            differing += 1
            continue
        if content(old) == content(new):
            continue
        differing += 1
        print(f"differs: {name}")
        if name.suffix == ".json":
            for line in json_diffs(parsed(old), parsed(new)):
                print(f"  {line}")
        elif name.suffix == ".csv":
            print(f"  {csv_diff(old, new)}")
    print(f"golden: {differing} of {len(names)} files differ between {rev} and the working tree")
    return 1 if differing else 0


def source_lines(src: Path) -> int:
    """The number of lines in ``src/regretsim/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "regretsim").glob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        base_src = export_src(rev, work / "export")
        base_usages = run_commands(base_src, work / "base")
        head_usages = run_commands(ROOT / "src", work / "head")
        status = compare(work / "base", work / "head", rev)
        print(f"golden: peak RSS in MiB and CPU seconds at {rev} and in the working tree:")
        for argv, (old_rss, old_cpu), (new_rss, new_cpu) in zip(COMMANDS, base_usages, head_usages):
            print(f"  {old_rss:7.1f} {new_rss:7.1f}  {old_cpu:6.2f} {new_cpu:6.2f}  "
                  f"regretsim {' '.join(argv)}")
        old, new = source_lines(base_src), source_lines(ROOT / "src")
        print(f"golden: src/regretsim/*.py has {old} lines at {rev} and {new} in the working "
              f"tree ({new - old:+d})")
        return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
