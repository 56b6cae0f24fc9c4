"""Block-multiplier symmetrization: statistics, remainders, verification.

The package links the expected gauge of the largest absolute column mean of
a dependent panel to the same gauge of its block-multiplier counterpart,
with remainders built from Gaussian-comparison Kolmogorov distances and
truncation tail bounds, and verifies the resulting inequality chains by
Monte Carlo and exact enumeration.
"""

from .blocking import (
    BlockScheme,
    MultiplierSpec,
    make_blocks,
)
from .gaussian import (
    GaussianModel,
    RhoEstimate,
    estimate_gaussian_model,
    estimate_rhos,
    kolmogorov_distance,
    sample_gaussian_max,
)
from .processes import DgpSpec
from .psi import (
    CustomPsi,
    PsiSpec,
    psi_eval,
    psi_moment_norm,
)
from .remainders import (
    TailParams,
    concentration_general,
    concentration_lq,
    concentration_subexp,
    optimal_truncation,
    remainder_R1,
    remainder_R2,
    remainder_Rn,
)
from .verify import (
    ExpectationEstimate,
    VerificationReport,
    exact_enumeration,
    theorem1_bound,
    verify_independence_reduction,
    verify_prop1,
    verify_prop2,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
