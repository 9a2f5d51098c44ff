"""Continuous-variable teleportation through a thermally degraded
two-mode squeezed channel, on phase-space grids."""

from types import ModuleType as _ModuleType

from .channel import (
    ChannelParams,
    GaussianTwoMode,
    NoiseFactor,
    direct_noise,
    evolve_channel,
    integrate_moment_flow,
    is_separable,
    noise_factor,
    teleport_vs_direct_gap,
    two_mode_squeezed_vacuum,
)
from .errors import (
    AccuracyError,
    ConfigurationError,
    CvtError,
    DomainError,
    NotSeparableError,
    UnsupportedDeconvolutionError,
)
from .fidelity import FidelityReport, fock_fidelity, overlap_fidelity, squeezed_fidelity
from .numerics import (
    QuadratureRule,
    gauss_hermite,
    grid_integrate,
)
from .nonclassicality import (
    PhotonStats,
    QuadratureStats,
    moment_table,
    moments,
    p_negativity_probe,
    p_positive_after_teleport,
    photon_statistics,
    quadrature_statistics,
    quadrature_transfer,
    squeezing_threshold,
    sub_poisson_threshold,
    teleported_photon_stats,
)
from .phase_space import (
    DEFAULT_EXTENT,
    DEFAULT_RESOLUTION,
    WignerGrid,
    band_limit,
    characteristic,
    convert_sigma,
    load_grid,
    save_grid,
)
from .separability import (
    PExponentMatrix,
    SeparableDecomposition,
    channel_is_separable_via_appendix,
    check_criterion,
    decompose,
    is_boundary_case,
    p_exponent_from_channel,
    p_value,
    reconstruct_p,
)
from .states import (
    coherent_wigner,
    fock_wigner,
    squeezed_vacuum_wigner,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    vacuum_wigner,
)
from .teleport import measurement_density, protocol_oracle, teleport_state

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
