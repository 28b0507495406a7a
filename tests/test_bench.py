import json

import numpy as np
import pytest

import mptraj.bench
from mptraj import BenchScenario, ValidationError, run_benchmark
from mptraj.cli import main
from mptraj.trajectory import MAX_QUERY_SAMPLES
from tests.conftest import counted_lookups

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

    def test_string_duration_rejected(self):
        # once a TypeError from comparing the string with 0.0
        with pytest.raises(ValidationError, match="duration must be finite and > 0"):
            BenchScenario(duration="1")

    # 1.5 and "2" ended in a TypeError from run_benchmark or the constructor;
    # num_basis=1 constructed and failed only inside run_benchmark
    @pytest.mark.parametrize("field, value, message", [
        ("dofs", 1.5, "dofs must be an integer"), ("dofs", "2", "dofs must be an integer"),
        ("dofs", True, "dofs must be an integer"), ("num_basis", 1, "num_basis")], ids=repr)
    def test_bad_field_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            BenchScenario(**{"duration": 1.0, "rate_hz": 200.0, "num_basis": 5, field: value})

    def test_config_spans_duration(self):
        config = TINY.config()
        assert config.duration == TINY.duration
        assert config.tau == TINY.duration
        assert (config.alpha, config.alpha_x) == (25.0, 2.0)


STAGES = ["euler", "positions", "fold_positions", "refold_positions"]


class TestRunBenchmark:
    def test_report_invariants(self):
        table = run_benchmark(TINY, repetitions=3)
        assert list(table) == STAGES
        for row in table.values():
            assert set(row) == {"median_s", "checksum", "speedup"}
            assert row["median_s"] > 0.0 and row["speedup"] > 0.0
            assert len(row["checksum"]) == 64
        assert table["euler"]["speedup"] == 1.0
        assert table["positions"]["checksum"] != table["euler"]["checksum"]

    def test_outputs_deterministic_under_seed(self):
        a = run_benchmark(TINY, repetitions=3, seed=5)
        b = run_benchmark(TINY, repetitions=3, seed=5)
        c = run_benchmark(TINY, repetitions=3, seed=6)
        for stage in STAGES:
            assert a[stage]["checksum"] == b[stage]["checksum"]
            assert c[stage]["checksum"] != a[stage]["checksum"]

    def test_bc_recompute_changes_timing_not_output(self):
        # the stages that rebuild the boundary fold per call, or refold it
        # from the bank's kept grid fold, generate the same trajectories as
        # the one that reuses it
        table = run_benchmark(TINY, repetitions=3, seed=5)
        assert table["fold_positions"]["checksum"] == table["positions"]["checksum"]
        assert table["refold_positions"]["checksum"] == table["positions"]["checksum"]

    def test_fold_stage_rebuilds_and_refold_stage_reads_the_kept_fold(self, monkeypatch):
        # lookups per stage, warm-up call included: fold_positions folds on
        # every call, and refold_positions reads the fold the bank kept when
        # the positions stage built its generator
        lookups, per_stage, timed = counted_lookups(monkeypatch), [], mptraj.bench._time_path

        def counted(call, draws):
            lookups.clear()
            out = timed(call, draws)
            per_stage.append(len(lookups))
            return out

        monkeypatch.setattr(mptraj.bench, "_time_path", counted)
        table = run_benchmark(TINY, repetitions=3)
        assert dict(zip(table, per_stage)) == {
            "euler": 0, "positions": 0, "fold_positions": 4, "refold_positions": 0}

    def test_repetitions_validated(self):
        with pytest.raises(ValidationError):
            run_benchmark(TINY, repetitions=0)

    # 2.5 and True ended in a TypeError, -1 in numpy's ValueError and 1.5 in
    # a TypeError, each escaping the package's errors
    @pytest.mark.parametrize("kwargs, message", [
        ({"repetitions": 2.5}, "repetitions must be an integer"),
        ({"repetitions": True}, "repetitions must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 1.5}, "seed must be an integer")], ids=repr)
    def test_bad_argument_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            run_benchmark(TINY, **kwargs)


class TestReport:
    """The command renders the stage table as text and as --out JSON."""

    def _bench(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--dofs", "1", "--duration", "1", "--rate", "200",
                     "--num-basis", "5", "--reps", "2", "--out", str(out)]) == 0
        return capsys.readouterr().out, json.loads(out.read_text())

    def test_json_schema(self, tmp_path, capsys):
        _, data = self._bench(tmp_path, capsys)
        assert list(data) == ["scenario", "repetitions", "stages"]
        assert data["scenario"] == {"dofs": 1, "duration": 1.0, "rate_hz": 200.0,
                                    "num_basis": 5, "weight_dim": 6}
        assert data["repetitions"] == 2
        stages = data["stages"]
        assert list(stages) == STAGES
        assert stages["euler"]["speedup"] == 1.0
        assert stages["positions"]["speedup"] == pytest.approx(
            stages["euler"]["median_s"] / stages["positions"]["median_s"])
        assert stages["fold_positions"]["checksum"] == stages["positions"]["checksum"]
        assert stages["refold_positions"]["checksum"] == stages["positions"]["checksum"]

    def test_text_table(self, tmp_path, capsys):
        text, data = self._bench(tmp_path, capsys)
        lines = text.splitlines()
        assert "speed-up" in lines[1]
        for line, stage in zip(lines[2:], STAGES):
            name, _, speedup, checksum = line.split()
            assert name == stage
            assert speedup == f"{data['stages'][stage]['speedup']:.1f}x"
            assert data["stages"][stage]["checksum"].startswith(checksum)
