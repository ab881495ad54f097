"""Workbench for synchronous nonlocal games at desk scale.

Core objects: measurements and their distance calculus (algebra), games
with exact and sampled evaluation plus builtin constructions (games,
builtins), rigidity residual audits (rigidity), Turing tableaux and 3SAT
(cooklevin), the compression transformations (transform), see-saw and
classical oracles (optimize), and wire formats (serialize, ncpo).
"""

from .algebra import (
    DEFAULT_TOL,
    Measurement,
    binary_to_observable,
    bitstrings,
    closeness,
    data_process,
    fourier_observables,
    inconsistency,
    paste,
    projectivize,
    set_tau_norm,
    tau_norm,
)
from .builtins import (
    consistency_game,
    forbidden_pair_game,
    magic_square,
    question_sampling,
    trivial_game,
    two_of_n_ms,
)
from .cooklevin import (
    Assignment,
    CNF,
    TuringMachine,
    always_accept_machine,
    always_reject_machine,
    backtrack_models,
    check_assignment,
    clause_access,
    compile_cnf,
    equality_machine,
    prefix_predicate_machine,
    simulate,
    tableau_assignment,
    witness_to_assignment,
)
from .games import (
    EvaluationReport,
    Game,
    SynchronousStrategy,
    is_oracularizable,
    sampled_value,
    table_game,
    value,
)
from .ncpo import game_to_ncpo, parse_ncpo
from .optimize import SeesawConfig, classical_value, perturb_strategy, seesaw
from .rigidity import (
    ObservablePairFamily,
    ResidualReport,
    dimension_certificate,
    extract_projection,
    ms_pair_family,
    ms_residuals,
    qs_residuals,
    two_of_n_pair_family,
    two_of_n_residuals,
)
from .transform import (
    BudgetError,
    answer_reduce,
    gapless_compress,
    introspect,
    lift_answer_reduce,
    lift_gapless_compress,
    lift_introspection,
    lift_oracularize,
    oracularize,
    synthesize_tm_decider,
)

__version__ = "0.1.0"
