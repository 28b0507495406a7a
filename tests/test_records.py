import dataclasses

import numpy as np
import pytest

from mptraj import (ActivationProfile, BasisBank, BoundaryCondition, Demonstration,
                    ForcingBasis, GaussianSequence, LatentGaussian, TimePairBatch,
                    TrajectoryDistribution, WeightsDistribution)

# record -> (array inputs, other fields); every array field gets an input
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
