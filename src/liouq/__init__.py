"""Numerical laboratory for classical ensembles in density-matrix form.

Spectral transport engines for the phase-space and density-grid
representations of one ensemble state, the anharmonic coupling field
between bra and ket coordinates, piecewise-linear potential identities,
quenched-noise decoherence with its dissipative evolution, and
Poisson-void emptiness statistics.

Importing liouq before numpy pins BLAS to one thread, unless the
environment already sets the thread count: the studies call BLAS from at
most two Python threads of their own, and extra BLAS threads on top of
those only contend for the cores.  Set ``OPENBLAS_NUM_THREADS`` (or
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) to override.
"""

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

if "numpy" not in _sys.modules:  # BLAS reads these once, when numpy loads it
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .causet import SprinkleRegion, VoidEstimate, void_probability_mc
from .errors import BoundaryContaminationError, ConfigError, DomainError, LiouqError
from .evolvers import (
    EvolverConfig,
    TimeStepWarning,
    Trajectory,
    dense_generator,
    liouville_evolve_xp,
    qq_liouville_evolve,
    von_neumann_evolve,
)
from .grids import (
    DensityGrid,
    GridSpec,
    PhaseSpaceDistribution,
    Qq_to_xp,
    XYGrid,
    boundary_fraction,
    load_state,
    make_cat_density,
    make_gaussian_phase_space,
    qq_to_xy,
    save_state,
    xp_to_Qq,
    xp_to_xy,
    xy_to_Qq,
    xy_to_xp,
)
from .potentials import (
    Constant,
    Harmonic,
    Linear,
    PiecewiseLinear,
    Polynomial,
    Potential,
    Quartic,
    linearize,
    midpoint_term,
    segment_sum,
    step_schedule,
    superoperator_field,
)
from .scenario import Scenario, load_scenario, scenario_from_text
from .stochastic import (
    EnsembleReport,
    NoiseSpec,
    compare_ensemble_vs_lindblad,
    decay_predict,
    ensemble_evolve,
    lindblad_evolve,
    sample_noise,
)
from .studies import (
    RunReport,
    emit_outputs,
    run_decoherence_study,
    run_equivalence_study,
    run_evolve_study,
    run_segment_checks,
    run_spectrum_study,
    run_void_study,
)

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
