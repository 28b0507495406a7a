import dataclasses
import re

import numpy as np
import pytest

import mptraj
from mptraj import (ActivationProfile, BasisBank, BoundaryCondition, Demonstration,
                    DimensionError, DmpConfig, ForcingBasis, GaussianSequence,
                    LatentGaussian, TimePairBatch, TrajectoryDistribution,
                    ValidationError, WeightsDistribution)
from tests.conftest import SMALL_CONFIG

# record -> (array inputs, other fields); every array field gets an input with
# as many axes as the record takes
RECORDS = {
    WeightsDistribution: (dict(mean=[1.0, 2.0], chol=[[1.0, 0.0], [0.5, 2.0]]), {}),
    TrajectoryDistribution: (dict(mean=[0.0, 1.0], cov=[[1.0, 0.2], [0.2, 1.0]]),
                             dict(index_set=[(0.0, 0), (0.1, 0)], noise_var=0.0)),
    TimePairBatch: (dict(times=[[0.1, 0.2], [0.3, 0.0]],
                         values=[[1.0, 2.0], [3.0, 4.0]]), {}),
    Demonstration: (dict(times=[0.0, 0.1, 0.2], positions=[[0.0, 1.0, 2.0]],
                         velocities=[[1.0, 1.0, 1.0]]), {}),
    LatentGaussian: (dict(mean=[0.0, 1.0], var=[1.0, 2.0]), {}),
    GaussianSequence: (dict(times=[0.0, 0.1], means=[[0.0], [1.0]],
                            covs=[[[1.0]], [[2.0]]]), {}),
    ActivationProfile: (dict(times=[0.0, 0.1], values=[[1.0, 0.5]]), {}),
    BoundaryCondition: (dict(y_b=[1.0, 2.0], dy_b=[0.0, 1.0]), dict(t_b=0.0)),
}

# public records with an array field that are not in RECORDS: the bank
# freezes its table without copying it and has its own tests below, and a
# replanned segment and plan hold the arrays replan computed, as given
NOT_IN_RECORDS = {"BasisBank", "ReplanSegment", "SegmentPlan"}

# array fields whose own check rejects NaN with its own message: +inf is a
# valid variance, and activations must lie in [0, 1]
OWN_FINITE_CHECK = {(LatentGaussian, "var"), (ActivationProfile, "values")}

ARRAY_FIELDS = [(cls, name) for cls, (arrays, _) in RECORDS.items() for name in arrays]


def _array_fields(record) -> dict:
    return {field.name: getattr(record, field.name) for field in dataclasses.fields(record)
            if isinstance(getattr(record, field.name), np.ndarray)}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_arrays_are_read_only_copies(cls):
    arrays, other = RECORDS[cls]
    inputs = {name: np.array(value) for name, value in arrays.items()}
    record = cls(**inputs, **other)
    stored = _array_fields(record)
    assert set(stored) == set(inputs)
    for name, arr in stored.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[...] = 0.0
    # writing to an input afterwards leaves the record as it was
    for arr in inputs.values():
        arr += 1.0
    for name, arr in _array_fields(record).items():
        assert np.array_equal(arr, np.array(arrays[name])), name


def test_records_table_lists_every_public_record_with_an_array_field():
    # a new record with an array field joins RECORDS, and so the intake tests
    with_arrays = {name for name in mptraj.__all__
                   if dataclasses.is_dataclass(getattr(mptraj, name))
                   and any("ndarray" in str(field.type)
                           for field in dataclasses.fields(getattr(mptraj, name)))}
    assert with_arrays - NOT_IN_RECORDS == {cls.__name__ for cls in RECORDS}


def _with_field(cls, name, value):
    arrays, other = RECORDS[cls]
    return cls(**{**arrays, name: value}, **other)


@pytest.mark.parametrize("cls, name", ARRAY_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in ARRAY_FIELDS])
def test_array_field_intake(cls, name):
    # every array field is read, checked and frozen by one intake, and each
    # rejection names <Record>.<field>
    field = re.escape(f"{cls.__name__}.{name}")
    good = np.array(RECORDS[cls][0][name])
    for value, numpy_text in [
            ("x", "could not convert string to float: 'x'"),
            ([[1.0], [1.0, 2.0]], "setting an array element with a sequence."),
            (1j, "float() argument must be a string or a real number, not 'complex'"),
            (10**400, "int too large to convert to float")]:
        with pytest.raises(ValidationError,
                           match=rf"^{field} must be numbers: {re.escape(numpy_text)}"):
            _with_field(cls, name, value)
    extra = good[..., None]
    with pytest.raises(DimensionError, match=rf"^{field} has shape "
                       rf"{re.escape(str(extra.shape))}: {good.ndim + 1} axes, more than "
                       rf"{good.ndim}$"):
        _with_field(cls, name, extra)
    if (cls, name) not in OWN_FINITE_CHECK:
        bad = good.copy()
        bad.flat[0] = np.nan
        with pytest.raises(ValidationError, match=rf"^{field} must be finite$"):
            _with_field(cls, name, bad)


@pytest.mark.parametrize("name", ["alpha", "tau", "alpha_x", "duration", "grid_dt",
                                  "basis_overlap"])
def test_config_scalar_that_is_no_number_is_named(name):
    with pytest.raises(ValidationError, match=rf"^DmpConfig\.{name} cannot be read as a "
                       r"float: could not convert string to float: 'x'$"):
        DmpConfig(**{**SMALL_CONFIG, name: "x"})
    if name != "grid_dt":  # None is grid_dt's default
        with pytest.raises(ValidationError, match=rf"^DmpConfig\.{name} cannot be read "
                           r"as a float: float\(\) argument must be a string or a real "
                           r"number, not 'NoneType'$"):
            DmpConfig(**{**SMALL_CONFIG, name: None})


def test_record_scalar_that_is_no_number_is_named():
    with pytest.raises(ValidationError, match=r"^BoundaryCondition\.t_b cannot be read "
                       r"as a float: could not convert string to float: 'x'$"):
        BoundaryCondition("x", [1.0], [0.0])
    arrays, other = RECORDS[TrajectoryDistribution]
    with pytest.raises(ValidationError, match=r"^TrajectoryDistribution\.index_set cannot "
                       r"be read as a tuple: 'NoneType' object is not iterable$"):
        TrajectoryDistribution(**arrays, **{**other, "index_set": None})


def test_scalar_fields_keep_float_leniency():
    # True reads as 1.0, and a numeric string as its number
    assert BoundaryCondition(True, [1.0], [0.0]).t_b == 1.0
    config = DmpConfig(**{**SMALL_CONFIG, "basis_overlap": "0.5", "duration": True})
    assert (config.basis_overlap, config.duration) == (0.5, 1.0)


def test_bank_arrays_are_read_only(small_bank, tmp_path):
    # the bank freezes its arrays without copying them
    small_bank.save(str(tmp_path / "bank.npz"))
    for bank in (small_bank, BasisBank.load(str(tmp_path / "bank.npz"))):
        stored = _array_fields(bank)
        assert set(stored) == {"table"}
        # the times are derived from the config, and frozen as well
        assert not any(arr.flags.writeable for arr in (*stored.values(), bank.times))


def test_forcing_basis_arrays_are_read_only(small_config):
    # the basis is its config; centers and widths are derived, and frozen
    basis = ForcingBasis(small_config)
    assert _array_fields(basis) == {}
    for arr in (basis.centers, basis.widths):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
