"""Every public entry point that takes a number or a record refuses a
malformed one with a CvtError, and still takes numpy's numbers.

The table holds one valid call per public callable and the kind of each
argument it checks: a real number, a complex one, an index, or a record
class.  Every other position gets the same valid argument in each case."""

import inspect

import numpy as np
import pytest

import cvteleport
from cvteleport import (
    ChannelParams,
    CvtError,
    GaussianTwoMode,
    PExponentMatrix,
    PhotonStats,
    QuadratureRule,
    QuadratureStats,
    SeparableDecomposition,
    WignerGrid,
    decompose,
    evolve_channel,
    fock_wigner,
)

REAL, COMPLEX, INDEX = "real", "complex", "index"

GRID = fock_wigner(1, 6.0, 32)
PARAMS = ChannelParams(0.5, 0.3, 0.4)
CHANNEL = evolve_channel(PARAMS)
EXPONENT = PExponentMatrix(2.0, 2.0, -0.5)
MIXTURE = decompose(EXPONENT)
PHOTONS = PhotonStats(1.0, 0.0)
QUADRATURE = QuadratureStats(0.0, 0.0, 0.5)

# a record of another kind, for each record argument
_OTHER = {
    WignerGrid: PARAMS,
    ChannelParams: CHANNEL,
    GaussianTwoMode: PARAMS,
    PExponentMatrix: MIXTURE,
    SeparableDecomposition: EXPONENT,
    PhotonStats: QUADRATURE,
    QuadratureStats: PHOTONS,
}

# name -> (valid arguments, the kind each one is checked as; None: not a number or record)
TABLE = {
    "ChannelParams": ((1.0, 0.0, 1.0), (REAL, REAL, REAL)),
    "FidelityReport": ((1.0,), (REAL,)),
    "GaussianTwoMode": ((2.0, 3.0), (REAL, REAL)),
    "NoiseFactor": ((1.0,), (REAL,)),
    "PExponentMatrix": ((2.0, 2.0, -0.5), (REAL, REAL, COMPLEX)),
    "PhotonStats": ((1.0, 0.0), (REAL, REAL)),
    "QuadratureStats": ((0.0, 0.0, 1.0), (REAL, REAL, REAL)),
    "SeparableDecomposition": ((MIXTURE.m_b, MIXTURE.m_c, MIXTURE.m_s), (REAL, REAL, REAL)),
    "WignerGrid": ((0.0, 6.0, GRID.values), (REAL, REAL, REAL)),
    "band_limit": ((GRID,), (WignerGrid,)),
    "channel_is_separable_via_appendix": ((CHANNEL,), (GaussianTwoMode,)),
    "characteristic": ((GRID, 0.5 + 0.5j), (WignerGrid, COMPLEX)),
    "check_criterion": ((EXPONENT,), (PExponentMatrix,)),
    "coherent_wigner": ((1.0 + 0.5j, 6.0, 32), (COMPLEX, REAL, INDEX)),
    "convert_sigma": ((GRID, -1.0), (WignerGrid, REAL)),
    "decompose": ((EXPONENT,), (PExponentMatrix,)),
    "direct_noise": ((PARAMS,), (ChannelParams,)),
    "evolve_channel": ((PARAMS,), (ChannelParams,)),
    "fock_fidelity": ((1, 1.0), (INDEX, REAL)),
    "fock_wigner": ((1, 6.0, 32), (INDEX, REAL, INDEX)),
    "gauss_hermite": ((4,), (INDEX,)),
    "grid_integrate": ((GRID,), (WignerGrid,)),
    "integrate_moment_flow": ((PARAMS,), (ChannelParams,)),
    "is_boundary_case": ((CHANNEL,), (GaussianTwoMode,)),
    "is_separable": ((PARAMS,), (ChannelParams,)),
    "measurement_density": ((GRID, CHANNEL, 0.0, 1.0), (WignerGrid, GaussianTwoMode, REAL, REAL)),
    "moment_table": ((GRID,), (WignerGrid,)),
    "moments": ((GRID, 1, 1), (WignerGrid, INDEX, INDEX)),
    "noise_factor": ((PARAMS,), (ChannelParams,)),
    "overlap_fidelity": ((GRID, GRID), (WignerGrid, WignerGrid)),
    "p_exponent_from_channel": ((CHANNEL,), (GaussianTwoMode,)),
    "p_negativity_probe": ((GRID, 1.0, 0.9), (WignerGrid, REAL, REAL)),
    "p_positive_after_teleport": ((1.0,), (REAL,)),
    "p_value": ((EXPONENT, 0.3, 0.2j), (PExponentMatrix, COMPLEX, COMPLEX)),
    "photon_statistics": ((GRID,), (WignerGrid,)),
    "protocol_oracle": ((GRID, CHANNEL, 8, 4), (WignerGrid, GaussianTwoMode, INDEX, INDEX)),
    "quadrature_statistics": ((GRID, 0.0), (WignerGrid, REAL)),
    "quadrature_transfer": ((QUADRATURE, 1.0), (QuadratureStats, REAL)),
    "reconstruct_p": (
        (MIXTURE, EXPONENT, 0.3, 0.2j),
        (SeparableDecomposition, PExponentMatrix, COMPLEX, COMPLEX),
    ),
    "save_grid": ((GRID, "unused"), (WignerGrid, None)),
    "squeezed_fidelity": ((1.0, 1.0), (REAL, REAL)),
    "squeezed_vacuum_wigner": ((1.0, 6.0, 32), (REAL, REAL, INDEX)),
    "squeezing_threshold": ((0.5,), (REAL,)),
    "sub_poisson_threshold": ((PHOTONS,), (PhotonStats,)),
    "teleport_state": ((GRID, 1.0), (WignerGrid, REAL)),
    "teleport_vs_direct_gap": ((PARAMS,), (ChannelParams,)),
    "teleported_fock_wigner": ((1, 1.0, 6.0, 32), (INDEX, REAL, REAL, INDEX)),
    "teleported_photon_stats": ((1, 1.0), (INDEX, REAL)),  # a Fock index or a PhotonStats
    "teleported_squeezed_wigner": ((1.0, 1.0, 6.0, 32), (REAL, REAL, REAL, INDEX)),
    "two_mode_squeezed_vacuum": ((1.0,), (REAL,)),
    "vacuum_wigner": ((6.0, 32), (REAL, INDEX)),
}

# public callables that take neither a number nor a record: the error
# classes, a path, and the node arrays gauss_hermite builds
_NO_NUMBERS = {"load_grid", "QuadratureRule"}


def test_table_covers_every_public_callable():
    public = {
        name for name in cvteleport.__all__
        if callable(getattr(cvteleport, name))
        and not (isinstance(getattr(cvteleport, name), type)
                 and issubclass(getattr(cvteleport, name), Exception))
    }
    assert public - _NO_NUMBERS == set(TABLE)


def _bad_values(kind, default):
    # None is a valid argument where it is the default
    common = ["x", True, object()] + ([] if default is None else [None])
    if kind == REAL:
        return common + [1j]
    if kind == COMPLEX:
        return common
    if kind == INDEX:
        return common + [1j, 1.5]
    return common + [_OTHER[kind]]


_POSITIONS = [
    (name, i) for name, (_, kinds) in TABLE.items() for i, kind in enumerate(kinds) if kind is not None
]


def _call(name, args, i, value):
    args = list(args)
    args[i] = value
    return getattr(cvteleport, name)(*args)


@pytest.mark.parametrize("name, i", _POSITIONS, ids=[f"{n}-{i}" for n, i in _POSITIONS])
def test_malformed_argument_raises_a_cvt_error(name, i, tmp_path):
    args, kinds = TABLE[name]
    if name == "save_grid":  # nothing is written, but keep any file in tmp_path
        args = (args[0], str(tmp_path / "grid"))
    default = list(inspect.signature(getattr(cvteleport, name)).parameters.values())[i].default
    for bad in _bad_values(kinds[i], default):
        with pytest.raises(CvtError):
            _call(name, args, i, bad)


def _good_variants(kind, value):
    # numpy's scalars, and ints where the valid value is integral
    if kind == INDEX:
        return [np.int64(value)]
    if not np.isscalar(value):
        return []
    if kind == COMPLEX:
        return [np.complex128(value)] + ([np.float64(value.real)] if value.imag == 0 else [])
    out = [np.float64(value)]
    if float(value).is_integer():
        out += [int(value), np.int64(value)]
    return out


_NUMBER_POSITIONS = [
    (name, i) for name, (_, kinds) in TABLE.items() for i, kind in enumerate(kinds)
    if kind in (REAL, COMPLEX, INDEX)
]


@pytest.mark.parametrize("name, i", _NUMBER_POSITIONS, ids=[f"{n}-{i}" for n, i in _NUMBER_POSITIONS])
def test_numpy_numbers_are_accepted(name, i):
    args, kinds = TABLE[name]
    want = _call(name, args, i, args[i])
    for good in _good_variants(kinds[i], args[i]):
        got = _call(name, args, i, good)
        if isinstance(want, WignerGrid):
            assert np.array_equal(got.values, want.values)
        elif isinstance(want, QuadratureRule):
            assert np.array_equal(got.nodes, want.nodes)
        else:
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


# the positions that take an array of numbers as well as one number
_TAKES_ARRAYS = {("characteristic", 1), ("measurement_density", 2), ("measurement_density", 3)}
_SCALAR_POSITIONS = [
    (name, i) for name, i in _NUMBER_POSITIONS
    if np.isscalar(TABLE[name][0][i]) and (name, i) not in _TAKES_ARRAYS
]


@pytest.mark.parametrize("name, i", _SCALAR_POSITIONS, ids=[f"{n}-{i}" for n, i in _SCALAR_POSITIONS])
def test_array_at_a_scalar_position_raises_a_cvt_error(name, i):
    args, _ = TABLE[name]
    for bad in ([0.5, 1.0], np.array([0.5, 1.0])):
        with pytest.raises(CvtError):
            _call(name, args, i, bad)


@pytest.mark.parametrize("name, i", sorted(_TAKES_ARRAYS), ids=[f"{n}-{i}" for n, i in sorted(_TAKES_ARRAYS)])
def test_array_positions_take_arrays(name, i):
    args, _ = TABLE[name]
    for points in ([0.5, 1.0], np.array([0.5, 1.0])):
        got = _call(name, args, i, points)
        assert np.shape(got) == (2,)
        assert [_call(name, args, i, p) for p in points] == list(got)
