"""Reader for ``trajectory.csv``, shared by the tests that round-trip it."""

import csv

import numpy as np


def trajectory_from_csv(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parse a trajectory CSV back into per-player (T, n_i) arrays."""
    cells: dict[tuple[str, int], dict[tuple[int, int], float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["kind"], int(row["player"]) - 1)
            cells.setdefault(key, {})[(int(row["round"]) - 1, int(row["action"]) - 1)] = float(row["value"])
    players = sorted({p for _, p in cells})
    out: dict[str, list[np.ndarray]] = {"strategy": [], "loss": []}
    for kind in ("strategy", "loss"):
        for p in players:
            data = cells[(kind, p)]
            rounds = 1 + max(t for t, _ in data)
            n = 1 + max(j for _, j in data)
            arr = np.empty((rounds, n))
            for (t, j), v in data.items():
                arr[t, j] = v
            out[kind].append(arr)
    return out["strategy"], out["loss"]
