"""Simulate no-regret learning dynamics in normal-form games.

Core pieces: game construction and evaluation (:mod:`regretsim.game`),
learner update rules (:mod:`regretsim.learners`), self-play dynamics and
regret scoring (:mod:`regretsim.dynamics`), and the numerical diagnostics
suite (:mod:`regretsim.diagnostics`). The ``regretsim`` CLI wraps all of it.
"""

from .diagnostics import (
    BoundTermBreakdown,
    ClosenessReport,
    DivergenceValues,
    FiniteDifferenceProfile,
    FreqCauchyReport,
    VarianceInequalityReport,
    regret_bound_terms,
    check_circular_fourier_identity,
    check_freq_cauchy,
    check_variance_inequality,
    circular_finite_difference,
    consecutive_closeness,
    dft,
    divergences,
    fd_decay_profile,
    finite_difference,
    finite_difference_binomial,
    idft,
    local_norms,
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
from .game import (
    Game,
    expected_loss_vector,
    joint_action_loss,
    load_game_json,
    named_game,
    random_game,
    save_game_json,
    uniform_strategy,
    validate_game,
)
from .learners import (
    ADAPTIVE_OPT_HEDGE,
    HEDGE,
    OPT_HEDGE,
    LearnerState,
    adaptive_opt_hedge_step,
    hedge_step,
    init_state,
    intermediate_iterate,
    opt_hedge_step,
    practical_eta,
    recommended_eta,
    variance,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
