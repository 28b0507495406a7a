import json

import numpy as np
import pytest

from mptraj import (BenchScenario, ValidationError, precompute_basis,
                    run_benchmark)
from mptraj.fileio import atomic_write_json
from mptraj.trajectory import MAX_QUERY_SAMPLES

TINY = BenchScenario(dofs=1, duration=1.0, rate_hz=200.0, num_basis=5)


class TestScenario:
    def test_defaults_describe_workload(self):
        scenario = BenchScenario()
        assert scenario.weight_dim == 22
        assert scenario.query_times().shape == (6000,)
        assert "2 DoF" in scenario.describe()

    def test_validation(self):
        with pytest.raises(ValidationError):
            BenchScenario(dofs=0)
        with pytest.raises(ValidationError):
            BenchScenario(rate_hz=0.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan, 1e300, 1e6 + 1.0])
    def test_rate_must_be_finite_and_bounded(self, rate):
        # checked before anything is precomputed: inf overflowed in
        # query_times, 1e300 asked for an impossible grid
        with pytest.raises(ValidationError):
            BenchScenario(duration=1.0, rate_hz=rate, num_basis=5)

    def test_dofs_times_bounded_before_allocation(self):
        # 10^8 DoFs asked for an 8.2 GiB weight draw; construction allocates
        # nothing, so the rejection costs nothing either
        with pytest.raises(ValidationError, match="DoFs x 6000 times exceed"):
            BenchScenario(dofs=10**8)
        at_bound = BenchScenario(dofs=MAX_QUERY_SAMPLES // 1000, duration=1.0)
        assert at_bound.dofs * at_bound.query_times().shape[0] == MAX_QUERY_SAMPLES
        with pytest.raises(ValidationError, match="exceed"):
            BenchScenario(dofs=MAX_QUERY_SAMPLES // 1000 + 1, duration=1.0)

    @pytest.mark.parametrize("duration", [0.0, np.inf, np.nan])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValidationError, match="duration"):
            BenchScenario(duration=duration)

    def test_config_spans_duration(self):
        config = TINY.config()
        assert config.duration == TINY.duration
        assert config.tau == TINY.duration
        assert (config.alpha, config.alpha_x) == (25.0, 2.0)


class TestRunBenchmark:
    def test_report_invariants(self):
        report = run_benchmark(TINY, repetitions=3)
        assert report.oracle_time > 0.0
        assert report.basis_time > 0.0
        assert report.rebuilt_time > 0.0
        assert report.speedup > 0.0
        assert len(report.basis_checksum) == 64
        assert len(report.oracle_checksum) == 64
        assert report.basis_checksum != report.oracle_checksum

    def test_outputs_deterministic_under_seed(self):
        a = run_benchmark(TINY, repetitions=3, seed=5)
        b = run_benchmark(TINY, repetitions=3, seed=5)
        c = run_benchmark(TINY, repetitions=3, seed=6)
        assert a.basis_checksum == b.basis_checksum
        assert a.oracle_checksum == b.oracle_checksum
        assert c.basis_checksum != a.basis_checksum

    def test_bc_recompute_changes_timing_not_output(self):
        # the path that rebuilds the boundary fold per call generates the
        # same trajectories as the one that reuses it
        report = run_benchmark(TINY, repetitions=3, seed=5)
        assert report.rebuilt_checksum == report.basis_checksum

    def test_supplied_bank_must_match(self):
        other = precompute_basis(BenchScenario(dofs=1, duration=2.0,
                                               rate_hz=200.0,
                                               num_basis=5).config())
        with pytest.raises(ValidationError, match="different scenario"):
            run_benchmark(TINY, repetitions=1, bank=other)

    def test_supplied_bank_reproduces_auto_bank(self):
        bank = precompute_basis(TINY.config())
        auto = run_benchmark(TINY, repetitions=2, seed=1)
        manual = run_benchmark(TINY, repetitions=2, seed=1, bank=bank)
        assert manual.basis_checksum == auto.basis_checksum

    def test_repetitions_validated(self):
        with pytest.raises(ValidationError):
            run_benchmark(TINY, repetitions=0)


class TestReport:
    def test_json_schema(self, tmp_path):
        report = run_benchmark(TINY, repetitions=2)
        path = tmp_path / "bench.json"
        atomic_write_json(str(path), report.to_json_dict())
        data = json.loads(path.read_text())
        assert data["scenario"]["weight_dim"] == 6
        assert data["speedup"] == pytest.approx(report.speedup)
        assert data["oracle_time_s"] == report.oracle_time
        assert data["rebuilt_speedup"] == pytest.approx(report.rebuilt_speedup)
        assert data["rebuilt_checksum"] == report.basis_checksum
        assert "with_bc_recompute" not in data
        assert "explicit Euler" in data["note"]

    def test_text_table(self):
        report = run_benchmark(TINY, repetitions=2)
        text = report.to_text()
        assert "speed-up" in text
        assert "euler baseline" in text
        assert "speed-up, fold rebuilt" in text
