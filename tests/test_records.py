import dataclasses
import re

import numpy as np
import pytest

import mptraj
from mptraj import (ActivationProfile, BasisBank, BoundaryCondition, Demonstration,
                    DimensionError, DmpConfig, ForcingBasis, GaussianSequence,
                    LatentGaussian, ReplanSegment, SegmentPlan, TimePairBatch,
                    TrajectoryDistribution, ValidationError, WeightsDistribution)
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
    ReplanSegment: (dict(times=[0.0, 0.1], velocities=[[1.0, 2.0]]),
                    dict(distribution=TrajectoryDistribution(
                        mean=[0.0, 1.0], cov=np.eye(2), index_set=[(0.0, 0), (0.1, 0)],
                        noise_var=0.0))),
    SegmentPlan: (dict(times=[0.0, 0.1], positions=[[0.0, 1.0]], velocities=[[1.0, 1.0]],
                       segment_ids=[0.0, 1.0], pos_jumps=[0.5], vel_jumps=[0.25]), {}),
}

# public records with an array field that are not in RECORDS: the bank
# freezes its table without copying it and has its own tests below
NOT_IN_RECORDS = {"BasisBank"}

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
            (10**400, "int too large to convert to float"),
            # complex values, which numpy would read as their real parts
            (1j, "got complex values"),
            (np.array([1 + 2j]), "got complex values"),
            ([np.complex128(1.0)], "got complex values"),
            (np.array([0, 1 + 0j]), "got complex values")]:
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


def test_segment_ids_are_stored_as_the_integers_given():
    ids = np.array([0, 0, 1], dtype=np.int64)
    arrays = {**RECORDS[SegmentPlan][0], "times": [0.0, 0.1, 0.2],
              "positions": [[0.0, 1.0, 2.0]], "velocities": [[1.0, 1.0, 1.0]]}
    plan = SegmentPlan(**{**arrays, "segment_ids": ids})
    assert plan.segment_ids.dtype == np.int64
    assert plan.segment_ids.tobytes() == ids.tobytes()
    assert plan.switch_times == (0.0, 0.1)
    for bad in ([0.0, 0.5, 1.0], [0, 1, 2.25]):
        with pytest.raises(ValidationError, match=r"^SegmentPlan\.segment_ids must be "
                           r"integers$"):
            SegmentPlan(**{**arrays, "segment_ids": bad})


def test_segment_distribution_must_be_a_trajectory_distribution():
    arrays, other = RECORDS[ReplanSegment]
    for value in (None, other["distribution"].mean):
        with pytest.raises(ValidationError, match=r"^ReplanSegment\.distribution must be a "
                           rf"TrajectoryDistribution, got {type(value).__name__}$"):
            ReplanSegment(**arrays, distribution=value)


def test_activation_profile_needs_a_primitive_row():
    for t_count in (0, 1, 3):
        with pytest.raises(ValidationError, match=r"^an activation profile needs at least "
                           r"one primitive row$"):
            ActivationProfile(times=np.linspace(0.0, 1.0, t_count),
                              values=np.zeros((0, t_count)))


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
