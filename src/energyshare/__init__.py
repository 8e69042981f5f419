"""Energy-sharing market equilibria and decentralized price dynamics.

Computes the competitive equilibrium of a quadratic-utility energy-sharing
market, the minimum-adjustment equilibrium under a social price cap, and
simulates the decentralized primal-dual dynamics together with the dynamic
feedback controller that steers the market to the capped equilibrium.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DimensionMismatch,
    EmptyMarket,
    EnergyShareError,
    InconsistentDual,
    MissingField,
    NegativeGeneration,
    NegativeMu,
    NonfiniteInput,
    NonfiniteState,
    NonpositiveCurvature,
    ParseError,
    ValidationError,
)
from .market import (
    AgentParams,
    MarketWarning,
    SocialPriceCap,
    conditional_projection,
    phi,
    utility,
    validate_market,
)
from .equilibrium import (
    SceSolution,
    aggregate_slack,
    change_of_variables_matrix,
    dual_to_primal_sw,
    kkt_residual_sce,
    lcp_oracle,
    map_sce_to_modified_primal,
    solve_ce,
    solve_modified_primal,
    solve_scalar_lcp,
    solve_sce,
    solve_sw_dual,
)
from .dynamics import (
    Trajectory,
    affine_rhs,
    assemble_equilibrium,
    closed_loop_decay_rate,
    closed_loop_rhs,
    closed_loop_spectrum,
    convergence_report,
    euler_stable_step,
    integrate,
    lyapunov_value,
    open_loop_equilibrium,
    open_loop_matrices,
    reduced_equilibrium,
    reduced_matrices,
    rhs_closed_loop,
    rhs_controlled,
    rhs_controller,
    rhs_open_loop,
    rhs_reduced,
    stability_certificate,
    state_layout,
)
from .scenario import (
    ScenarioConfig,
    SimSettings,
    config_to_json,
    dumps_canonical,
    load_config,
    report_to_json,
    run_simulate,
    run_solve,
    run_sweep,
    sweep_to_csv,
    trajectory_header,
    write_trajectory_csv,
)
from .verification import run_verify

__version__ = "0.1.0"

# Every public name imported above, without the submodules those imports bind.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
