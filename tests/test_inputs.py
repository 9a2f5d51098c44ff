"""Every public entry point that takes a number or a record refuses a
malformed one with a CvtError, and still takes numpy's numbers; at a huge
finite number it returns a finite result or raises a CvtError.

The table holds one valid call per public callable and the kind of each
argument it checks: a real number, a complex one, an index, or a record
class.  Every other position gets the same valid argument in each case."""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

import cvteleport
from cvteleport import (
    ChannelParams,
    ConfigurationError,
    CvtError,
    DomainError,
    GaussianTwoMode,
    PExponentMatrix,
    PhotonStats,
    QuadratureRule,
    QuadratureStats,
    SeparableDecomposition,
    WignerGrid,
    check_criterion,
    decompose,
    direct_noise,
    evolve_channel,
    fock_wigner,
    integrate_moment_flow,
    is_separable,
    noise_factor,
    p_value,
    protocol_oracle,
    reconstruct_p,
    sub_poisson_threshold,
    teleport_vs_direct_gap,
    teleported_photon_stats,
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


# finite numbers whose squares, or whose 1 + 2x, overflow
_HUGE = (1e200, -1e200, 1e308, -1e308, 1e200 + 1e200j)

# every real and complex position: a grid's extent, a readout, a noise, a
# squeezing, a point of a P function
_OVERFLOW_POSITIONS = [
    (name, i) for name, (_, kinds) in TABLE.items() for i, kind in enumerate(kinds)
    if kind in (REAL, COMPLEX)
]

# records with one huge field, run through the functions that read them
_RECORD_USES = {
    ("PExponentMatrix", i): (
        lambda n: n.det, check_criterion, decompose, lambda n: p_value(n, 0.3, 0.2j),
        lambda n: reconstruct_p(decompose(n), n, 0.3, 0.2j),
    )
    for i in range(3)
}
_RECORD_USES.update({
    ("PhotonStats", i): (sub_poisson_threshold, lambda s: teleported_photon_stats(s, 1.0))
    for i in range(2)
})
# ChannelParams(s_qc, n_bar, T) at T = 0, 0.5 and 1, with the flow among its uses
_RECORD_USES.update({
    ("ChannelParams", i, T): (
        evolve_channel, noise_factor, integrate_moment_flow, direct_noise, is_separable,
        teleport_vs_direct_gap,
    )
    for i in range(2) for T in (0.0, 0.5, 1.0)
})


def _finite(result):
    # every number of a result, a record or a tuple of them, is finite; None is "no threshold"
    if result is None:
        return True
    if isinstance(result, WignerGrid):
        return bool(np.isfinite(result.values).all())
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    return bool(np.isfinite(np.asarray(result, dtype=complex)).all())


def _finite_or_cvt_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except CvtError:
            return
    assert _finite(result), result


@pytest.mark.parametrize("name, i", _OVERFLOW_POSITIONS, ids=[f"{n}-{i}" for n, i in _OVERFLOW_POSITIONS])
def test_huge_number_gives_a_finite_result_or_a_cvt_error(name, i):
    args, _ = TABLE[name]
    for huge in _HUGE:
        _finite_or_cvt_error(lambda: _call(name, args, i, huge))


def test_huge_extents_and_points_outside_the_table():
    # the square of 1.2e154 is finite, but the factors overflow on that axis
    with pytest.raises(ConfigurationError, match="grid extent 1.2e\\+154 is too large"):
        fock_wigner(1, 1.2e154, 16)
    with pytest.raises(DomainError, match="points x, y are too large"):
        GRID.sample(1e155, 0.0)
    # a bare grid near the widest extent, through a narrow channel
    bare = WignerGrid(0.0, 1e153, GRID.values)
    _finite_or_cvt_error(lambda: protocol_oracle(bare, evolve_channel(ChannelParams(3.0, 0.0, 0.0))))


def test_sample_rejects_non_finite_points():
    # on both routes, before any factors; value_at keeps its DomainError
    bare = dataclasses.replace(GRID, profile=None)
    for grid in (GRID, bare):
        for x, y in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf),
                     (np.array([0.0, np.nan]), 0.0)):
            with pytest.raises(ConfigurationError, match="sample takes finite points"):
                grid.sample(x, y)
            with pytest.raises(DomainError):
                grid.value_at(complex(np.max(x), y))
    assert "_factors" not in bare.__dict__


@pytest.mark.parametrize("key", list(_RECORD_USES), ids=["-".join(map(str, k)) for k in _RECORD_USES])
def test_record_with_a_huge_field_gives_finite_results_or_cvt_errors(key):
    name, i, *T = key
    args = TABLE[name][0] if not T else (0.5, 0.3, T[0])
    for huge in _HUGE:
        for use in _RECORD_USES[key]:
            _finite_or_cvt_error(lambda: use(_call(name, args, i, huge)))
