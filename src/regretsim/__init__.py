"""Simulate no-regret learning dynamics in normal-form games.

Core pieces: the game model (:mod:`regretsim.game`), learner update rules
and per-round variances (:mod:`regretsim.learners`), self-play dynamics and
regret scoring (:mod:`regretsim.dynamics`), the trajectory audits
(:mod:`regretsim.diagnostics`), and every file writer (:mod:`regretsim.export`).
The audits are the finite-difference decay profile, consecutive closeness,
and the regret-bound and variance-inequality audits. The ``regretsim`` CLI
wraps all of it. The sequence identities behind the paper's lemmas hold for
any sequence and are checked in ``tests/paper_lemmas.py``.
"""

from .diagnostics import (
    BoundTermBreakdown,
    ClosenessReport,
    FiniteDifferenceProfile,
    VarianceInequalityReport,
    regret_bound_terms,
    check_variance_inequality,
    consecutive_closeness,
    fd_decay_profile,
)
from .dynamics import (
    BatchResult,
    CceReport,
    EmpiricalPlay,
    LearnerConfig,
    RegretEntry,
    Trajectory,
    __version__,
    batch_run,
    cce_gap,
    empirical_joint_distribution,
    regret,
    regret_report,
    run,
    run_streaming,
)
from .export import load_game_json, save_game_json
from .game import Game, named_game, random_game
from .learners import (
    ADAPTIVE_OPT_HEDGE,
    HEDGE,
    OPT_HEDGE,
    LearnerState,
    adaptive_opt_hedge_step,
    hedge_step,
    init_state,
    opt_hedge_step,
    practical_eta,
    recommended_eta,
    variance,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
