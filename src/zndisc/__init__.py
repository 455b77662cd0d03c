"""Low-discrepancy colorings of Z_n with respect to modular arithmetic progressions."""

__version__ = "0.1.0"

from .number_theory import ZnContext, make_context
from .ap_system import (
    Coloring,
    ModAP,
    full_ap,
    max_ap_discrepancy,
    max_congruence_discrepancy,
)
from .engine import (
    BudgetExceeded,
    DeltaSchedule,
    PartialColorRequest,
    SearchFailed,
    full_color_iterate,
    partial_color,
    schedule_entropy_budget,
)
from .constructions import (
    ConstructionReport,
    CrtBox,
    congruence_balanced_coloring,
    construct_best_coloring,
    crt_box_coloring,
    hereditary_coloring,
    lift_coloring,
)
from .analysis import (
    BoundReport,
    hereditary_upper_bound,
    lower_bound_main,
    lower_bound_prime_power,
    lower_bound_prop,
    upper_bound_main,
)
from .exact import ExactResult, LimitExceeded, exact_disc, exact_herdisc, measure

__all__ = [
    "__version__",
    "ZnContext",
    "make_context",
    "Coloring",
    "ModAP",
    "full_ap",
    "max_ap_discrepancy",
    "max_congruence_discrepancy",
    "BudgetExceeded",
    "DeltaSchedule",
    "PartialColorRequest",
    "SearchFailed",
    "full_color_iterate",
    "partial_color",
    "schedule_entropy_budget",
    "ConstructionReport",
    "CrtBox",
    "congruence_balanced_coloring",
    "construct_best_coloring",
    "crt_box_coloring",
    "hereditary_coloring",
    "lift_coloring",
    "BoundReport",
    "hereditary_upper_bound",
    "lower_bound_main",
    "lower_bound_prime_power",
    "lower_bound_prop",
    "upper_bound_main",
    "ExactResult",
    "LimitExceeded",
    "exact_disc",
    "exact_herdisc",
    "measure",
]
