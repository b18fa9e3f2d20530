"""Rational approximation from truncated power series.

Four solvers for the [m+k/m] approximation problem: the direct Toeplitz
solve (``dm_denominator``), the SVD null-vector variant
(``svd_denominator``), the matrix-pencil solver (``pm1``) whose
eigenvalues are the poles directly, and its filtered form (``pm2``)
that detects and removes spurious poles caused by coefficient noise or
over-parameterization.  Each returns a ``Solution`` or its denominator.
Helpers cover evaluation, root taxonomy, and two reproducible
experiment harnesses; the solvers' stages and kernels stay in their
modules.
"""

from types import ModuleType as _ModuleType

from .approximant import (
    ErrorSweep,
    error_sweep,
    eval_pole_residue,
    eval_rational,
    poles_and_zeros,
    unit_disk_mesh,
)
from .baseline import (
    Conformation,
    RationalApproximant,
    dm_denominator,
    numerator_from_denominator,
    svd_denominator,
)
from .classify import RootTaxonomy, classify_roots
from .errors import (
    AllZero,
    ApproximationError,
    Collapse,
    ConvergenceFailure,
    DegenerateError,
    DuplicatePole,
    InsufficientCoefficients,
    NonFinite,
    PoleHit,
    RankDeficient,
    SingularVandermonde,
    ZeroPole,
)
from .experiments import (
    ExperimentConfig,
    approximate_series,
    pruned_square_refit,
    run_geometric_noise,
    run_log_branch,
)
from .filtering import FilterIteration, SpuriousPoleReport, pm2
from .numerics import SvdResult, horner, svd
from .pencil import PoleResidueForm, Solution, pm1
from .series import (
    PowerSeries,
    gen_from_poles,
    gen_geometric_noisy,
    gen_log_series,
)

__version__ = "0.1.0"

#: Every name imported above; the submodules themselves are not exported.
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
