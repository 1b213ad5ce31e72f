"""Command-line front end: run experiments, compare learners, emit CSV/JSON.

Subcommands: run, compare, diagnose, gen-game. Flag values override config
file values, which override defaults. Exit codes: 0 ok, 2 configuration
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diagnostics, dynamics, export, learners
from .export import load_game_json, save_game_json, write_csv, write_json
from .game import Game, json_int, named_game, random_game, NAMED_GAMES

ETA_POLICIES = ("practical", "theorem", "explicit")
FORMATS = ("json", "csv")
DIAGNOSTIC_NAMES = ("bound_terms", "variance_inequality", "fd_profile", "closeness")

# Skip writing the full trajectory when it would exceed this many rows.
TRAJECTORY_ROW_LIMIT = 10**7
# Refuse a random game whose loss tensors would take more than this many bytes.
RANDOM_GAME_BYTES = 2**30

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


@dataclass(frozen=True)
class LearnerSpec:
    mode: str = learners.OPT_HEDGE
    eta_policy: str = "practical"
    eta: float | None = None

    def resolve_eta(self, m: int, rounds: int) -> float:
        if self.eta_policy == "explicit":
            return float(self.eta)
        if self.eta_policy == "theorem":
            return learners.recommended_eta(m, max(rounds, 2))
        return learners.practical_eta(m, max(rounds, 2))


@dataclass(frozen=True)
class DiagnosticsToggles:
    bound_terms: bool = False
    variance_inequality: bool = False
    fd_h_max: int | None = None
    closeness: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with exactly one game source."""

    game_name: str | None = None
    game_path: str | None = None
    game_random: dict | None = None  # {"players": m, "actions": [...], "seed": s}
    learner_specs: tuple[LearnerSpec, ...] = (LearnerSpec(),)
    rounds: int = 1024
    seed: int | None = None  # a label echoed in summary.json; self-play does not read it
    out_dir: str = "out"
    formats: tuple[str, ...] = ("json", "csv")
    diagnostics: DiagnosticsToggles = field(default_factory=DiagnosticsToggles)
    force_trajectory: bool = False
    emit_trajectory: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        try:
            specs = tuple(LearnerSpec(**s) for s in data.pop("learner_specs", [{}]))
            diag = DiagnosticsToggles(**data.pop("diagnostics", {}))
            formats = data.pop("formats", ("json", "csv"))
            formats = formats if isinstance(formats, str) else tuple(formats)
            cfg = cls(learner_specs=specs, diagnostics=diag, formats=formats, **data)
        except TypeError as exc:
            raise ConfigError(f"config: {exc}") from exc
        validate_config(cfg)
        return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    # type(), not isinstance(): a JSON true or false is a bool, and bool subclasses int.
    sources = [s for s in (cfg.game_name, cfg.game_path, cfg.game_random) if s is not None]
    if len(sources) != 1:
        raise ConfigError(f"config.game: exactly one game source required, got {len(sources)}")
    if cfg.game_path is not None and not isinstance(cfg.game_path, str):
        raise ConfigError(f"config.game_path: must be a path string, got {cfg.game_path!r}")
    if type(cfg.rounds) is not int or cfg.rounds < 1:
        raise ConfigError(f"config.rounds: must be an integer >= 1, got {cfg.rounds!r}")
    if cfg.seed is not None and type(cfg.seed) is not int:
        raise ConfigError(f"config.seed: must be an integer or null, got {cfg.seed!r}")
    if not isinstance(cfg.out_dir, str) or not cfg.out_dir:
        raise ConfigError(f"config.out_dir: must be a non-empty path string, got {cfg.out_dir!r}")
    flags = {f"diagnostics.{name}": getattr(cfg.diagnostics, name) for name in PLAYER_DIAGNOSTICS}
    flags.update(emit_trajectory=cfg.emit_trajectory, force_trajectory=cfg.force_trajectory)
    for name, value in flags.items():
        if type(value) is not bool:
            raise ConfigError(f"config.{name}: must be true or false, got {value!r}")
    for k, spec in enumerate(cfg.learner_specs):
        if spec.mode not in learners.MODES:
            raise ConfigError(f"config.learners[{k}].mode: unknown mode {spec.mode!r}")
        if spec.eta_policy not in ETA_POLICIES:
            raise ConfigError(f"config.learners[{k}].eta_policy: unknown policy {spec.eta_policy!r}")
        if (spec.eta_policy == "explicit") != (spec.eta is not None):
            raise ConfigError(f"config.learners[{k}].eta: the explicit policy needs an eta and no "
                              f"other takes one, got {spec.eta!r} under {spec.eta_policy!r}")
        if spec.eta is not None and not (type(spec.eta) in (int, float)
                                         and 0 < spec.eta < math.inf):
            raise ConfigError(
                f"config.learners[{k}].eta: must be a finite number > 0, got {spec.eta!r}")
    if isinstance(cfg.formats, str) or not cfg.formats:
        raise ConfigError(f"config.formats: must be a non-empty list of formats, got {cfg.formats!r}")
    for f in cfg.formats:
        if f not in FORMATS:
            raise ConfigError(f"config.formats: unknown format {f!r}")
    fd_h_max = cfg.diagnostics.fd_h_max
    if fd_h_max is not None and (type(fd_h_max) is not int or fd_h_max < 0):
        raise ConfigError(f"config.diagnostics.fd_h_max: must be an integer >= 0, got {fd_h_max!r}")


def load_config_game(cfg: ExperimentConfig) -> Game:
    try:
        if cfg.game_name is not None:
            return named_game(cfg.game_name)
        if cfg.game_path is not None:
            return load_game_json(cfg.game_path)
        r = cfg.game_random
        actions = [json_int(n, "game_random.actions") for n in r["actions"]]
        players = json_int(r.get("players", len(actions)), "game_random.players")
        size = 8 * players * math.prod(actions)
        if min(actions, default=0) > 0 and size > RANDOM_GAME_BYTES:
            raise ValueError(f"a random game of {players} players on {actions} actions needs "
                             f"{size} bytes of loss tensors, above the limit of "
                             f"{RANDOM_GAME_BYTES}")
        return random_game(players, actions, json_int(r.get("seed", 0), "game_random.seed"))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"config.game: {exc}") from exc


def build_learner_configs(cfg: ExperimentConfig, game: Game) -> list[dynamics.LearnerConfig]:
    """One learner config per player; rejects diagnostics that cannot apply to them."""
    specs = list(cfg.learner_specs)
    if len(specs) == 1 and game.num_players > 1:
        specs = specs * game.num_players
    if len(specs) != game.num_players:
        raise ConfigError(
            f"config.learners: {len(specs)} specs for {game.num_players} players")
    configs = [
        dynamics.LearnerConfig(mode=s.mode, eta=s.resolve_eta(game.num_players, cfg.rounds))
        for s in specs
    ]
    audits = [name for name in PLAYER_DIAGNOSTICS if getattr(cfg.diagnostics, name)]
    try:
        diagnostics.check_audit_learners(audits, [c.mode for c in configs], [c.eta for c in configs])
    except ValueError as exc:
        raise ConfigError(f"--diagnostics: {exc}") from exc
    return configs


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretsim",
        description="Simulate no-regret learning dynamics in normal-form games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, name):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--game", help=f"named game ({', '.join(NAMED_GAMES)}), a game JSON path, or 'random'")
        p.add_argument("--actions", help="comma-separated action counts for --game random, e.g. 3,3")
        p.add_argument("--game-seed", type=int, help="seed for --game random")
        p.add_argument("--rounds", type=int, help="number of rounds T")
        p.add_argument("--eta", type=float,
                       help="explicit step size (sets --eta-policy explicit; no other policy takes one)")
        p.add_argument("--eta-policy", choices=ETA_POLICIES, help="step-size policy")
        p.add_argument("--learner", help="learner mode, or comma-separated list (one per player)")
        p.add_argument("--seed", type=int,
                       help="a label echoed in summary.json's config; the dynamics do not read it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", help="comma-separated output formats (json,csv)")
        if name == "compare":
            return  # compare writes regret checkpoints only: no diagnostic, no trajectory
        p.add_argument("--diagnostics",
                       help="comma-separated subset of "
                            f"{{{','.join(DIAGNOSTIC_NAMES)}}}, or 'all'/'none'")
        p.add_argument("--fd-h-max", type=int, help="max finite-difference order for fd_profile")
        p.add_argument("--force-trajectory", action="store_true",
                       help="write trajectory.csv even past the size gate")
        p.add_argument("--no-trajectory", action="store_true", help="skip trajectory.csv")

    for name, text in (("run", "run one experiment"),
                       ("compare", "run several learners on the same game"),
                       ("diagnose", "run with every diagnostic enabled")):
        add_common(sub.add_parser(name, help=text), name)
    p_gen = sub.add_parser("gen-game", help="generate a random game JSON")
    p_gen.add_argument("--actions", required=True, help="comma-separated action counts, e.g. 2,3,2")
    p_gen.add_argument("--game-seed", type=int, default=0)
    p_gen.add_argument("--out", default="game.json", help="output file path")
    return parser


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _diag_from_flags(text: str | None, fd_h_max: int | None, configured: dict) -> dict:
    """The config's ``configured`` diagnostics under ``--diagnostics`` and ``--fd-h-max``.

    The finite-difference order is ``--fd-h-max``, else the config's, else 5.
    """
    if text is None:
        return configured if fd_h_max is None else dict(configured, fd_h_max=fd_h_max)
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ConfigError(f"--diagnostics: names no diagnostic, got {text!r}; 'none' runs none")
    if names == ["none"]:
        names = []
    if names == ["all"]:
        names = list(DIAGNOSTIC_NAMES)
    for name in names:
        if name not in DIAGNOSTIC_NAMES:
            raise ConfigError(f"--diagnostics: unknown diagnostic {name!r}")
    if "fd_profile" not in names and fd_h_max is not None:
        raise ConfigError("--fd-h-max: needs fd_profile in --diagnostics")
    order = next(h for h in (fd_h_max, configured.get("fd_h_max"), 5) if h is not None)
    return dict({name: name in names for name in PLAYER_DIAGNOSTICS},
                fd_h_max=order if "fd_profile" in names else None)


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, and flags (flags win) into a validated config."""
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
        dropped = [k for k in ("diagnostics", "emit_trajectory", "force_trajectory") if k in data]
        if args.command == "compare" and dropped:
            raise ConfigError(
                f"config.{dropped[0]}: compare runs no diagnostic and writes no trajectory")

    actions, game_seed = getattr(args, "actions", None), getattr(args, "game_seed", None)
    if getattr(args, "game", None) is not None:
        data.update(game_name=None, game_path=None, game_random=None)
        if args.game == "random":
            if not actions:
                raise ConfigError("--game random requires --actions")
            data["game_random"] = {}
        elif args.game in NAMED_GAMES:
            data["game_name"] = args.game
        elif args.game.endswith(".json") or Path(args.game).exists():
            data["game_path"] = args.game
        else:
            raise ConfigError(
                f"--game: {args.game!r} is not a named game, an existing JSON path, or 'random'")
    if actions is not None or game_seed is not None:
        spec = data.get("game_random")
        if not isinstance(spec, dict):
            raise ConfigError("--actions, --game-seed: apply only to a random game")
        if actions is not None:
            counts = _parse_int_list(actions)
            spec.update(players=len(counts), actions=counts)
        spec["seed"] = game_seed if game_seed is not None else spec.get("seed", 0)
    if getattr(args, "rounds", None) is not None:
        data["rounds"] = args.rounds
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        data["out_dir"] = args.out
    if getattr(args, "format", None) is not None:
        data["formats"] = [tok.strip() for tok in args.format.split(",") if tok.strip()]
    if getattr(args, "force_trajectory", False):
        data["force_trajectory"] = True
    if getattr(args, "no_trajectory", False):
        data["emit_trajectory"] = False

    modes = None
    if getattr(args, "learner", None) is not None:
        modes = [tok.strip() for tok in args.learner.split(",") if tok.strip()]
        if not modes:
            raise ConfigError(f"--learner: names no learner mode, got {args.learner!r}")
    eta, policy = getattr(args, "eta", None), getattr(args, "eta_policy", None)
    if eta is not None and policy not in (None, "explicit"):
        raise ConfigError(f"--eta: sets an explicit step size, but --eta-policy is {policy!r}")
    policy = "explicit" if eta is not None else policy
    overrides = {} if policy is None else {"eta_policy": policy, "eta": eta}
    if policy == "explicit" and eta is None:
        del overrides["eta"]  # --eta-policy explicit keeps the config's eta
    if modes or overrides:
        specs = [{"mode": m} for m in modes] if modes else data.get("learner_specs", [{}])
        try:
            data["learner_specs"] = [{**s, **overrides} for s in specs]
        except TypeError as exc:
            raise ConfigError(f"config.learner_specs: {exc}") from exc

    configured = data.get("diagnostics", {})
    if not isinstance(configured, dict):
        raise ConfigError(f"config.diagnostics: expected an object, got {configured!r}")
    text = getattr(args, "diagnostics", None)
    if args.command == "diagnose" and text is None:
        text = "all"
    data["diagnostics"] = _diag_from_flags(text, getattr(args, "fd_h_max", None), configured)
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

def _closeness_entry(trajectory: dynamics.Trajectory, i: int, _terms) -> dict:
    closeness = diagnostics.consecutive_closeness(trajectory.strategies[i])
    bound = diagnostics.closeness_bound(trajectory.metadata.etas[i])
    return dict(closeness.to_dict(), player=i + 1, bound=bound,
                within_bound=bound is None or closeness.zeta_observed <= bound)


# Per-player diagnostics: name -> (player i's diagnostics.json entry from the trajectory, i
# and i's bound terms bt; its summary.json verdict's name; the test all entries pass for it).
# Audits are looked up on ``diagnostics`` per call, so tracers can wrap them.
PLAYER_DIAGNOSTICS = {
    "bound_terms": (lambda traj, i, bt: bt.to_dict(), "bound_terms_all_c_star_finite",
                    lambda e: e["c_star"] is not None and math.isfinite(e["c_star"])),
    "variance_inequality": (lambda traj, i, bt: diagnostics.check_variance_inequality(traj, bt).to_dict(),
                            "variance_inequality_all_hold", lambda e: e["holds"]),
    "closeness": (_closeness_entry, "closeness_all_within_bound", lambda e: e["within_bound"]),
}


def _run_diagnostics(cfg: ExperimentConfig, trajectory: dynamics.Trajectory, entries):
    """Report, verdicts and each player's fd profile, if asked for; the bound audits take
    Reg_i(T) from ``entries``."""
    toggles, report, verdicts, profiles = cfg.diagnostics, {}, {}, []
    audited = toggles.bound_terms or toggles.variance_inequality  # both read the bound terms
    terms = [diagnostics.regret_bound_terms(trajectory, e) if audited else None for e in entries]
    for name, (entry, verdict, passes) in PLAYER_DIAGNOSTICS.items():
        if getattr(toggles, name):
            report[name] = [entry(trajectory, i, t) for i, t in enumerate(terms)]
            verdicts[verdict] = all(passes(e) for e in report[name])
    if toggles.fd_h_max is not None:
        h_max = min(toggles.fd_h_max, trajectory.rounds - 1)
        profiles = [diagnostics.fd_decay_profile(losses, h_max) for losses in trajectory.losses]
        report["fd_profile"] = [dict(player=i + 1, **p.to_dict()) for i, p in enumerate(profiles)]
        verdicts["fd_profile_max_ratio"] = max(
            (r for e in report["fd_profile"] for r in e["ratios"] if r is not None),
            default=None)
    return report, verdicts, profiles


def _score(game: Game, configs: list[dynamics.LearnerConfig], cfg: ExperimentConfig):
    """Play ``configs`` on ``game``; return the trajectory and its regret report. Raise naming
    the first round and player with a non-finite strategy or loss: such an entry makes that
    round's x . l, and so that player's regret curve from that round on, not finite."""
    with np.errstate(all="ignore"):  # a run that leaves the finite floats is reported below
        trajectory = dynamics.run(game, configs, cfg.rounds)
        entries = dynamics.regret_report(trajectory)
    failed = [(int(np.isfinite(e.curve).argmin()), e.player)
              for e in entries if not math.isfinite(e.total_regret)]
    if failed:
        t, i = min(failed)
        raise RuntimeError(f"round {t + 1}, player {i + 1}: strategy or loss not finite")
    return trajectory, entries


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment, write its artifact files, return the summary dict."""
    started = time.perf_counter()
    game = load_config_game(cfg)
    configs = build_learner_configs(cfg, game)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectory, entries = _score(game, configs, cfg)
    # Player i's CCE gap of the time-averaged product play is Reg_i(T) / T.
    gaps = [e.total_regret / cfg.rounds for e in entries]
    diag_report, verdicts, profiles = _run_diagnostics(cfg, trajectory, entries)

    if "csv" in cfg.formats:
        for i, (losses, profile) in enumerate(zip(trajectory.losses, profiles), 1):
            export.fd_profile_values_csv(losses, profile.h_max, out / f"fd_values_player{i}.csv")
            export.fd_profile_norms_csv(profile, out / f"fd_norms_player{i}.csv")
        export.regret_curves_to_csv(entries, out / "regret_curve.csv")
        rows = 2 * cfg.rounds * sum(game.action_counts)  # strategy and loss per (round, action)
        if cfg.emit_trajectory:
            if rows <= TRAJECTORY_ROW_LIMIT or cfg.force_trajectory:
                export.trajectory_to_csv(trajectory, out / "trajectory.csv")
            else:
                print("warning: skipping trajectory.csv "
                      f"({rows} rows > {TRAJECTORY_ROW_LIMIT}); "
                      "use --force-trajectory to write it anyway", file=sys.stderr)

    summary = {
        "config": cfg.to_dict(),
        "game": {"name": game.name, "players": game.num_players,
                 "actions": list(game.action_counts)},
        "etas": [c.eta for c in configs],
        "metadata": {"switch_rounds": list(trajectory.metadata.switch_rounds)},
        "regret": [e.to_dict() for e in entries],
        "cce": {"epsilon": max(0.0, *gaps), "raw_gaps": gaps},
        "diagnostics": verdicts,
        "duration_seconds": time.perf_counter() - started,
    }
    if "json" in cfg.formats:
        write_json(summary, out / "summary.json")
        if diag_report:
            write_json(diag_report, out / "diagnostics.json")
    return summary


def compare_learners(cfg: ExperimentConfig) -> list[dict]:
    """Run each learner spec on the same game; emit a comparison CSV.

    Rows report regret per player at the checkpoints T/4, T/2, and T.
    """
    if len(cfg.learner_specs) < 2:
        raise ConfigError("compare needs at least 2 learner specs (--learner a,b)")
    game = load_config_game(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checkpoints = sorted({max(1, cfg.rounds // 4), max(1, cfg.rounds // 2), cfg.rounds})
    rows: list[dict] = []
    for spec in cfg.learner_specs:
        configs = build_learner_configs(replace(cfg, learner_specs=(spec,)), game)
        entries = _score(game, configs, cfg)[1]
        for checkpoint in checkpoints:
            for e in entries:
                rows.append({
                    "learner": spec.mode, "eta": configs[0].eta, "round": checkpoint,
                    "player": e.player + 1,
                    "regret": float(e.curve[checkpoint - 1]),
                })
    if "csv" in cfg.formats:
        header = ("learner", "eta", "round", "player", "regret")
        columns = [[r[k] for r in rows] for k in header]
        write_csv(out / "compare.csv", header, [columns])
    if "json" in cfg.formats:
        write_json(rows, out / "compare.json")
    return rows


def gen_game(args: argparse.Namespace) -> None:
    spec = {"actions": _parse_int_list(args.actions), "seed": args.game_seed}
    game = load_config_game(ExperimentConfig(game_random=spec))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_game_json(game, args.out)
    print(f"wrote {args.out}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-game":
            gen_game(args)
            return EXIT_OK
        cfg = parse_config(args)
        if args.command == "compare":
            compare_learners(cfg)
            print(f"wrote comparison to {cfg.out_dir}")
            return EXIT_OK
        summary = run_experiment(cfg)
        regrets = ", ".join(
            f"player {e['player']}: {e['regret']:.6g}" for e in summary["regret"])
        print(f"T={cfg.rounds} regret {regrets}")
        print(f"cce gap {summary['cce']['epsilon']:.6g}")
        return EXIT_OK
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
