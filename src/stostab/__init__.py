"""Noise-assisted feedback stabilization of the Brockett integrator.

The package splits into an SDE toolbox (:mod:`stostab.sde`), Lyapunov
machinery (:mod:`stostab.lyapunov`), the Brockett plant with its diffusion
design (:mod:`stostab.brockett`), numerical verification routines
(:mod:`stostab.verify`), and a command-line front end (:mod:`stostab.cli`).
"""

from .brockett import (CONTINUITY_RADII, ClosedLoop, DesignReport,
                       DiffusionDesign, LoopColumns, SystemParams,
                       check_design_conditions, closed_loop,
                       controllability_rank, diffusion_b, eigs_sym2, g_matrix,
                       h_matrix, loop_columns, sigma)
from .lyapunov import sontag_control, v2_eval, v2_gradient, v2_hessian
from .sde import (ITO, STRATONOVICH, IntegrationDiverged, PiecewiseLinearNoise,
                  SdeSystem, Trajectory, WienerPath, euler_maruyama,
                  heun_stratonovich, ode_drive, piecewise_linear_lift,
                  sample_wiener, trajectory_to_csv)
from .verify import (ScanReport, SclfReport, SmallControlReport,
                     StabilityReport, WongZakaiReport, grid_points,
                     mc_stability, scan_generator, sclf_condition_check,
                     small_control_scan, strong_order_estimate,
                     wilson_interval, wong_zakai_experiment, write_scan_csv,
                     write_summary)

__version__ = "0.1.0"

__all__ = [
    "ITO", "STRATONOVICH", "IntegrationDiverged", "PiecewiseLinearNoise",
    "SdeSystem", "Trajectory", "WienerPath", "euler_maruyama",
    "heun_stratonovich", "ode_drive", "piecewise_linear_lift", "sample_wiener",
    "trajectory_to_csv",
    "sontag_control", "v2_eval", "v2_gradient", "v2_hessian",
    "CONTINUITY_RADII", "ClosedLoop", "DesignReport", "DiffusionDesign",
    "LoopColumns", "SystemParams", "check_design_conditions", "closed_loop",
    "controllability_rank", "diffusion_b", "eigs_sym2", "g_matrix", "h_matrix",
    "loop_columns", "sigma",
    "ScanReport", "SclfReport", "SmallControlReport", "StabilityReport",
    "WongZakaiReport", "grid_points", "mc_stability", "scan_generator",
    "sclf_condition_check", "small_control_scan", "strong_order_estimate",
    "wilson_interval", "wong_zakai_experiment", "write_scan_csv",
    "write_summary",
    "__version__",
]
