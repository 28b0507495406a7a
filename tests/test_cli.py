import contextlib
import errno
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptraj import BoundaryCondition, DmpConfig, cli, fileio, precompute_basis
from mptraj.basis import BasisBank
from mptraj.cli import main
from mptraj.distribution import write_weights_distribution_json
from mptraj.trajectory import MAX_QUERY_SAMPLES, read_trajectory_csv
from tests.conftest import (CONFIG_DEFECTS, ROW_LAYOUT_BANK, SMALL_CONFIG, TABLE_DEFECTS,
                            random_weights_distribution, write_bank_config, write_bank_table,
                            write_unversioned_bank)
from tests.reference import sequential_bank

CONFIG = {"alpha": 25.0, "tau": 1.0, "alpha_x": 2.0, "num_basis": 5,
          "duration": 1.0, "grid_dt": 0.0025}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Shared CLI working directory: bank, weights, distribution, boundary."""
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root,
             "config": root / "config.json",
             "bank": root / "bank.npz",
             "weights": root / "weights.json",
             "wdist": root / "wdist.json",
             "bc": root / "bc.json",
             "activations": root / "activations.json"}
    paths["config"].write_text(json.dumps(CONFIG))
    assert main(["precompute", "--config", str(paths["config"]),
                 "--out", str(paths["bank"])]) == 0

    rng = np.random.default_rng(51)
    weights = rng.standard_normal(2 * 6) * 2.0
    paths["weights"].write_text(json.dumps(
        {"dofs": 2, "num_basis": 5, "weights": weights.tolist()}))
    paths["bc"].write_text(json.dumps(
        {"t_b": 0.0, "y_b": [0.5, -0.25], "dy_b": [0.0, 1.0]}))
    wdist = random_weights_distribution(2, 6, rng)
    write_weights_distribution_json(str(paths["wdist"]), wdist, 2, 5)
    paths["activations"].write_text(json.dumps({
        "times": [0.0, 0.5, 1.0], "values": [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]}))
    paths["weights_array"] = weights
    return paths


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrecompute:
    def test_reports_checksum(self, env, capsys, tmp_path):
        out = tmp_path / "bank.npz"
        code, stdout, stderr = _run(capsys, [
            "precompute", "--config", str(env["config"]), "--out", str(out)])
        assert code == 0 and stderr == ""
        assert "checksum:" in stdout
        assert out.exists()

    def test_rerun_is_byte_identical(self, env, tmp_path):
        first = tmp_path / "a.npz"
        second = tmp_path / "b.npz"
        for path in (first, second):
            assert main(["precompute", "--config", str(env["config"]),
                         "--out", str(path)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_weight_and_goal_column_count(self, capsys, tmp_path):
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"alpha": 25.0, "tau": 3.0,
                                      "alpha_x": 2.0, "num_basis": 25,
                                      "duration": 3.0}))
        code, stdout, _ = _run(capsys, [
            "precompute", "--config", str(config),
            "--out", str(tmp_path / "wide.npz")])
        assert code == 0
        assert "columns per DoF: 26" in stdout

    def test_coinciding_centers_end_in_one_validation_line(self, capsys, tmp_path):
        # alpha_x*duration/tau = 1000 underflows the last three centers to 0:
        # no grid step mends that, so it is not the self-check's to report
        config = tmp_path / "flat.json"
        config.write_text(json.dumps({"alpha": 25, "tau": 1, "alpha_x": 1000,
                                      "num_basis": 10, "duration": 1, "grid_dt": 1e-4}))
        out = tmp_path / "bank.npz"
        code, _, stderr = _run(capsys, [
            "precompute", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error[validation]: basis centers coincide or lie too close")
        assert "alpha_x*duration/tau = 1000" in stderr
        assert len(stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_malformed_config_leaves_no_partial_file(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text('{"alpha": ')
        out = tmp_path / "bank.npz"
        code, _, stderr = _run(capsys, [
            "precompute", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))


class TestGenerate:
    def test_writes_trajectory(self, env, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, _ = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--weights",
            str(env["weights"]), "--bc", str(env["bc"]), "--rate", "200",
            "--out", str(out)])
        assert code == 0
        assert "trajectory written" in stdout
        header = out.read_text().splitlines()[0]
        assert header == "t,dof0_pos,dof0_vel,dof1_pos,dof1_vel"

    def test_config_hash_guard(self, env, capsys, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(CONFIG, alpha=30.0)))
        out = tmp_path / "never.csv"
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--config", str(other),
            "--weights", str(env["weights"]), "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert "different configuration" in stderr
        assert not out.exists()

    def test_matching_config_accepted(self, env, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, _ = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--config",
            str(env["config"]), "--weights", str(env["weights"]),
            "--out", str(out)])
        assert code == 0

    def test_sequential_recurrence_bank_accepted(self, env, capsys, tmp_path):
        # a bank saved before the blocked scan: same format, other last bits,
        # and a checksum over its own arrays
        old = sequential_bank(DmpConfig(**CONFIG))
        old.save(str(tmp_path / "old.npz"))
        loaded = BasisBank.load(str(tmp_path / "old.npz"))
        assert np.array_equal(loaded.table, old.table)
        trajectories = []
        for bank in (tmp_path / "old.npz", env["bank"]):
            out = tmp_path / f"{bank.stem}.csv"
            code, _, stderr = _run(capsys, [
                "generate", "--bank", str(bank), "--weights", str(env["weights"]),
                "--bc", str(env["bc"]), "--out", str(out)])
            assert code == 0 and stderr == ""
            trajectories.append(read_trajectory_csv(str(out)))
        (_, old_pos, old_vel), (_, new_pos, new_vel) = trajectories
        np.testing.assert_allclose(old_pos, new_pos, rtol=0, atol=1e-12)
        np.testing.assert_allclose(old_vel, new_vel, rtol=0, atol=1e-11)


class TestFitRoundTrip:
    def test_fit_recovers_generated_trajectory(self, env, capsys, tmp_path):
        demo = tmp_path / "demo.csv"
        assert main(["generate", "--bank", str(env["bank"]), "--weights",
                     str(env["weights"]), "--bc", str(env["bc"]),
                     "--rate", "400", "--out", str(demo)]) == 0
        fitted = tmp_path / "fitted.json"
        code, stdout, _ = _run(capsys, [
            "fit", "--bank", str(env["bank"]), "--demo", str(demo),
            "--ridge", "1e-16", "--out", str(fitted)])
        assert code == 0
        assert "fit rmse:" in stdout
        rmse = float(stdout.split("fit rmse:")[1].strip())
        assert rmse < 1e-9
        recovered = np.asarray(json.loads(fitted.read_text())["weights"])
        assert np.max(np.abs(recovered - env["weights_array"])) < 1e-5
        resynth = tmp_path / "resynth.csv"
        assert main(["generate", "--bank", str(env["bank"]), "--weights",
                     str(fitted), "--bc", str(env["bc"]),
                     "--rate", "400", "--out", str(resynth)]) == 0
        _, orig_pos, _ = read_trajectory_csv(demo)
        _, new_pos, _ = read_trajectory_csv(resynth)
        err = np.sqrt(np.mean((new_pos - orig_pos) ** 2))
        assert err <= 0.01 * np.ptp(orig_pos)

    def test_multi_demo_fit_writes_distribution(self, env, capsys, tmp_path):
        demos = []
        for i, seed in enumerate((1, 2, 3)):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal(12)
            wfile = tmp_path / f"w{i}.json"
            wfile.write_text(json.dumps(
                {"dofs": 2, "num_basis": 5, "weights": w.tolist()}))
            demo = tmp_path / f"demo{i}.csv"
            assert main(["generate", "--bank", str(env["bank"]), "--weights",
                         str(wfile), "--bc", str(env["bc"]), "--rate", "400",
                         "--out", str(demo)]) == 0
            demos += ["--demo", str(demo)]
        out = tmp_path / "wdist.json"
        code, stdout, _ = _run(capsys, [
            "fit", "--bank", str(env["bank"])] + demos + ["--out", str(out)])
        assert code == 0
        assert "weights distribution written" in stdout
        data = json.loads(out.read_text())
        assert data["dofs"] == 2
        assert len(data["mean"]) == 12
        assert len(data["chol_lower"]) == 12 * 13 // 2

    def test_bc_forbidden_for_multi_demo(self, env, capsys, tmp_path):
        demo = tmp_path / "demo.csv"
        assert main(["generate", "--bank", str(env["bank"]), "--weights",
                     str(env["weights"]), "--out", str(demo)]) == 0
        code, _, stderr = _run(capsys, [
            "fit", "--bank", str(env["bank"]), "--demo", str(demo),
            "--demo", str(demo), "--bc", str(env["bc"]),
            "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "single-demo" in stderr


class TestSample:
    def test_seeded_runs_are_byte_identical(self, env, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        base = ["sample", "--bank", str(env["bank"]), "--wdist",
                str(env["wdist"]), "--bc", str(env["bc"]), "--count", "5",
                "--rate", "50"]
        assert main(base + ["--seed", "7", "--out", str(a)]) == 0
        assert main(base + ["--seed", "7", "--out", str(b)]) == 0
        assert main(base + ["--seed", "8", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_svg_sidecar(self, env, capsys, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        code, stdout, _ = _run(capsys, [
            "sample", "--bank", str(env["bank"]), "--wdist", str(env["wdist"]),
            "--count", "3", "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert "plot written" in stdout
        assert svg.read_text().startswith("<svg")

    # 10**19 overflowed numpy's normal draw; 10**4 samples x 101 times is
    # one file of more than 10**6 rows
    @pytest.mark.parametrize("count", ["10000000000000000000", "10000"])
    def test_row_bound_is_validation_error(self, env, tmp_path, count):
        argv = ["sample", "--bank", str(env["bank"]), "--wdist", str(env["wdist"]),
                "--count", count, "--rate", "100"]
        code, stderr = _run_to(argv, tmp_path / "s.csv")
        assert code == 2
        assert f"exceed {MAX_QUERY_SAMPLES} rows" in stderr

    def test_long_format_schema(self, env, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample", "--bank", str(env["bank"]), "--wdist",
                     str(env["wdist"]), "--count", "2", "--rate", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id,t,dof0_pos,dof1_pos"
        assert len(lines) == 1 + 2 * 11


class TestCombineAndBlend:
    def test_combine_writes_sequence(self, env, capsys, tmp_path):
        act = tmp_path / "act.json"
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        act.write_text(json.dumps({
            "times": times,
            "values": [[1.0, 1.0, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 1.0, 1.0]]}))
        out = tmp_path / "combined.json"
        code, stdout, _ = _run(capsys, [
            "combine", "--bank", str(env["bank"]),
            "--wdist", str(env["wdist"]), "--bc", str(env["bc"]),
            "--wdist", str(env["wdist"]), "--bc", str(env["bc"]),
            "--activations", str(act), "--out", str(out)])
        assert code == 0
        assert "combined sequence written" in stdout
        data = json.loads(out.read_text())
        assert data["dofs"] == 2
        assert len(data["records"]) == 5

    def test_nan_activation_is_validation_error(self, env, tmp_path):
        act = tmp_path / "act.json"
        act.write_text('{"times": [0.0, 0.5, 1.0], '
                       '"values": [[1.0, NaN, 0.5], [0.0, NaN, 0.5]]}')
        argv = ["combine", "--bank", str(env["bank"])]
        argv += ["--wdist", str(env["wdist"]), "--bc", str(env["bc"])] * 2
        code, stderr = _run_to(argv + ["--activations", str(act)], tmp_path / "x.json")
        assert code == 2
        assert "activations must lie in [0, 1]" in stderr

    def test_empty_activation_grid_is_validation_error(self, env, tmp_path):
        # ended in a ValueError traceback from the fold's group reshape
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"times": [], "values": [[], []]}))
        argv = ["combine", "--bank", str(env["bank"])]
        argv += ["--wdist", str(env["wdist"]), "--bc", str(env["bc"])] * 2
        code, stderr = _run_to(argv + ["--activations", str(act)], tmp_path / "x.json",
                               tmp_path / "x.svg")
        assert code == 2
        assert "query times must hold at least one time" in stderr

    def test_combine_row_count_mismatch(self, env, capsys, tmp_path):
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"times": [0.0, 1.0],
                                   "values": [[1.0, 1.0]]}))
        code, _, stderr = _run(capsys, [
            "combine", "--bank", str(env["bank"]),
            "--wdist", str(env["wdist"]), "--bc", str(env["bc"]),
            "--wdist", str(env["wdist"]), "--bc", str(env["bc"]),
            "--activations", str(act), "--out", str(tmp_path / "x.json")])
        assert code == 5
        assert stderr.startswith("error[dimension]:")

    def test_blend_needs_exactly_two(self, env, capsys, tmp_path):
        args = ["blend", "--bank", str(env["bank"])]
        for _ in range(3):
            args += ["--wdist", str(env["wdist"]), "--bc", str(env["bc"])]
        args += ["--ramp-start", "0.2", "--ramp-end", "0.8",
                 "--out", str(tmp_path / "x.json")]
        code, _, stderr = _run(capsys, args)
        assert code == 2
        assert "exactly 2" in stderr

    def test_overflowing_blend_is_numerical_error(self, env, tmp_path):
        # the precision round trip overflows; this wrote NaN and Infinity
        # values and exited 0
        argv = ["blend", "--bank", str(env["bank"])]
        argv += ["--wdist", str(env["wdist"]), "--bc", str(env["bc"])] * 2
        argv += ["--ramp-start", "0.25", "--ramp-end", "0.75", "--noise-var", "1e308"]
        code, stderr = _run_to(argv, tmp_path / "x.json")
        assert code == 4
        assert "is not finite" in stderr

    @pytest.mark.parametrize("flag", ["--ramp-start", "--ramp-end"])
    def test_infinite_ramp_is_validation_error(self, env, tmp_path, flag):
        # an infinite ramp end printed numpy's divide warning before the error
        argv = ["blend", "--bank", str(env["bank"])]
        argv += ["--wdist", str(env["wdist"]), "--bc", str(env["bc"])] * 2
        argv += ["--ramp-start", "0.25", "--ramp-end", "0.75", f"{flag}=inf"]
        code, stderr = _run_to(argv, tmp_path / "x.json")
        assert code == 2
        assert "ramp needs finite" in stderr

    def test_blend_writes_sequence(self, env, capsys, tmp_path):
        out = tmp_path / "blend.json"
        code, stdout, _ = _run(capsys, [
            "blend", "--bank", str(env["bank"]),
            "--wdist", str(env["wdist"]), "--bc", str(env["bc"]),
            "--wdist", str(env["wdist"]), "--bc", str(env["bc"]),
            "--ramp-start", "0.25", "--ramp-end", "0.75", "--rate", "20",
            "--out", str(out)])
        assert code == 0
        assert "ramp [0.25, 0.75]" in stdout
        assert json.loads(out.read_text())["dofs"] == 2


class TestReplan:
    def _scenario(self, env, tmp_path, **overrides):
        scenario = {
            "initial": {"t_b": 0.0, "y_b": [0.5, -0.25], "dy_b": [0.0, 0.0]},
            "rate_hz": 100.0,
            "segments": [{"horizon": 0.25, "wdist": str(env["wdist"])},
                         {"horizon": 0.25, "wdist": str(env["wdist"])}],
        }
        scenario.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_chain_reports_zero_jumps(self, env, capsys, tmp_path):
        path = self._scenario(env, tmp_path)
        out = tmp_path / "plan.csv"
        code, stdout, _ = _run(capsys, [
            "replan", "--bank", str(env["bank"]), "--scenario", str(path),
            "--out", str(out)])
        assert code == 0
        assert "max position jump: 0.000e+00" in stdout
        assert "average squared acceleration:" in stdout
        header = out.read_text().splitlines()[0]
        assert header.endswith(",segment_id")

    # a 2-sample plan exited 2 on the smoothness metric and wrote nothing
    def test_two_sample_plan_is_written_without_smoothness(self, env, capsys, tmp_path):
        path = self._scenario(env, tmp_path, segments=[
            {"horizon": 0.01, "wdist": str(env["wdist"])}])
        out = tmp_path / "plan.csv"
        code, stdout, stderr = _run(capsys, [
            "replan", "--bank", str(env["bank"]), "--scenario", str(path),
            "--out", str(out)])
        assert code == 0 and stderr == ""
        assert stdout == f"trace written: {out} (1 segments, 2 samples)\n"
        assert len(out.read_text().splitlines()) == 3

    def test_sample_mode_seed_override(self, env, capsys, tmp_path):
        path = self._scenario(env, tmp_path, mode="sample")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["replan", "--bank", str(env["bank"]), "--scenario",
                     str(path), "--seed", "3", "--out", str(a)]) == 0
        assert main(["replan", "--bank", str(env["bank"]), "--scenario",
                     str(path), "--seed", "4", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_oversized_rate_is_validation_error(self, env, capsys, tmp_path):
        path = self._scenario(env, tmp_path, rate_hz=1e300)
        out = tmp_path / "never.csv"
        code, _, stderr = _run(capsys, [
            "replan", "--bank", str(env["bank"]), "--scenario", str(path),
            "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_unknown_scenario_key_rejected(self, env, capsys, tmp_path):
        # noise_var was a scenario key while chains built segment covariances;
        # stale_bc ran a negative control, even when given as "false"
        for key in ("extra", "noise_var", "stale_bc"):
            path = self._scenario(env, tmp_path, **{key: 1})
            code, _, stderr = _run(capsys, [
                "replan", "--bank", str(env["bank"]), "--scenario", str(path),
                "--out", str(tmp_path / "x.csv")])
            assert code == 2
            assert f"unknown scenario keys: {key}" in stderr


    def test_each_wdist_file_is_read_once(self, env, capsys, tmp_path, monkeypatch):
        # six segments on two files read the scenario and the two files; the
        # trace is the one of six segments each reading its own copy
        other = tmp_path / "other.json"
        write_weights_distribution_json(
            str(other), random_weights_distribution(2, 6, np.random.default_rng(7)), 2, 5)
        copies = []
        for i, source in enumerate([env["wdist"], other] * 3):
            copies.append(tmp_path / f"copy{i}.json")
            copies[-1].write_bytes(source.read_bytes())
        reads = []
        monkeypatch.setattr(cli, "read_json", lambda path: reads.append(path)
                            or fileio.read_json(path))
        traces = []
        for files in ([env["wdist"], other] * 3, copies):
            reads.clear()
            path = self._scenario(env, tmp_path, anchor="follow", segments=[
                {"horizon": 0.15, "wdist": str(file)} for file in files])
            traces.append(tmp_path / f"plan{len(traces)}.csv")
            code, _, stderr = _run(capsys, ["replan", "--bank", str(env["bank"]),
                                            "--scenario", str(path),
                                            "--out", str(traces[-1])])
            assert code == 0 and stderr == "", stderr
            assert len(reads) == 1 + len(set(files))
        assert traces[0].read_bytes() == traces[1].read_bytes()

    def test_bad_wdist_fails_at_its_first_segment(self, env, capsys, tmp_path):
        three_dofs = tmp_path / "three.json"
        write_weights_distribution_json(
            str(three_dofs), random_weights_distribution(3, 6, np.random.default_rng(8)), 3, 5)
        missing = tmp_path / "missing.json"
        for files, code, message in (
                ([env["wdist"], env["wdist"], three_dofs, three_dofs], 5,
                 "error[dimension]: scenario segment 2 has 3 DoFs, initial state has 2"),
                ([env["wdist"], missing, env["wdist"], missing], 3,
                 f"error[io]: cannot read {missing}: ")):
            path = self._scenario(env, tmp_path, segments=[
                {"horizon": 0.15, "wdist": str(file)} for file in files])
            result = _run(capsys, ["replan", "--bank", str(env["bank"]), "--scenario",
                                   str(path), "--out", str(tmp_path / "x.csv")])
            assert result[0] == code and result[2].startswith(message), result

    # "abc" and [1] ended in a traceback, 1.5 ran as seed 1, -1 reached
    # numpy as a traceback
    @pytest.mark.parametrize("seed", ["abc", [1], 1.5, True, -1],
                             ids=["string", "list", "float", "bool", "negative"])
    def test_malformed_seed_is_validation_error(self, env, tmp_path, seed):
        path = self._scenario(env, tmp_path, seed=seed)
        code, stderr = _run_to(["replan", "--bank", str(env["bank"]),
                                "--scenario", str(path)], tmp_path / "plan.csv")
        assert code == 2
        assert "seed must be" in stderr


class TestBench:
    def test_report_to_stdout_and_json(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        code, stdout, _ = _run(capsys, [
            "bench", "--dofs", "1", "--duration", "1", "--rate", "200",
            "--num-basis", "5", "--reps", "2", "--out", str(out)])
        assert code == 0
        assert "speed-up" in stdout
        assert json.loads(out.read_text())["repetitions"] == 2

    def test_too_many_dofs_is_validation_error(self, tmp_path):
        # allocated 8.2 GiB of weight draws, or ended in a MemoryError traceback
        code, stderr = _run_to(["bench", "--dofs", "100000000", "--reps", "1"],
                               tmp_path / "bench.json")
        assert code == 2
        assert "100000000 DoFs x 6000 times exceed" in stderr

    def test_too_many_reps_is_validation_error(self, tmp_path):
        # 10^10 weight draws ended in a MemoryError traceback; the bound is
        # checked before any draw is made
        code, stderr = _run_to(["bench", "--reps", "10000000000"], tmp_path / "bench.json")
        assert code == 2
        assert "10000000000 repetitions x 22 weights exceed" in stderr

    def test_trajectory_under_one_sample_is_validation_error(self, tmp_path):
        # 0.4 samples rounded down to an empty trajectory, whose checksum was
        # the SHA-256 of zero bytes, and the run exited 0
        argv = ["bench", "--duration", "1", "--rate", "0.4", "--num-basis", "5",
                "--reps", "2"]
        code, stderr = _run_to(argv, tmp_path / "bench.json")
        assert code == 2
        assert "shorter than one sample period" in stderr

    @pytest.mark.parametrize("rate", ["inf", "1e300", "nan"])
    def test_unbounded_rate_is_validation_error(self, tmp_path, rate):
        # inf overflowed and 1e300 asked numpy for an impossible grid
        argv = ["bench", "--duration", "1", "--num-basis", "5", "--reps", "1",
                f"--rate={rate}"]
        code, _ = _run_to(argv, tmp_path / "bench.json")
        assert code == 2


# numpy raised a bare ValueError traceback for a negative seed
@pytest.mark.parametrize("command", [["sample", "--wdist", "{wdist}"],
                                     ["replan", "--scenario", "{scenario}"],
                                     ["bench", "--duration", "1", "--num-basis", "5"]],
                         ids=["sample", "replan", "bench"])
def test_negative_seed_flag_is_validation_error(env, tmp_path, command):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "initial": {"t_b": 0.0, "y_b": [0.0, 0.0], "dy_b": [0.0, 0.0]},
        "rate_hz": 100.0, "segments": [{"horizon": 0.5, "wdist": str(env["wdist"])}]}))
    argv = [arg.format(wdist=env["wdist"], scenario=scenario) for arg in command]
    if command[0] != "bench":
        argv[1:1] = ["--bank", str(env["bank"])]
    code, stderr = _run_to(argv + ["--seed", "-1"], tmp_path / "x.out")
    assert code == 2
    assert "seed must be >= 0" in stderr


WINDOW_COMMANDS = pytest.mark.parametrize("command", [
    ["generate", "--weights", "{weights}"],
    ["sample", "--wdist", "{wdist}"],
    ["blend", "--wdist", "{wdist}", "--bc", "{bc}", "--wdist", "{wdist}",
     "--bc", "{bc}", "--ramp-start", "0.25", "--ramp-end", "0.75"],
], ids=["generate", "sample", "blend"])


def _assert_window_rejected(env, capsys, tmp_path, command, window_arg):
    paths = {key: str(env[key]) for key in ("weights", "wdist", "bc")}
    argv = [command[0], "--bank", str(env["bank"])]
    argv += [arg.format(**paths) for arg in command[1:]]
    out = tmp_path / "x.out"
    code, _, stderr = _run(capsys, argv + [window_arg, "--out", str(out)])
    assert code == 2
    assert stderr.startswith("error[validation]:")
    assert stderr.count("\n") == 1
    assert not out.exists()


class TestErrorReporting:
    def test_missing_bank_is_io_error(self, env, capsys, tmp_path):
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(tmp_path / "no-such.npz"),
            "--weights", str(env["weights"]), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert stderr.startswith("error[io]:")
        assert stderr.count("\n") == 1

    def test_num_basis_mismatch_is_dimension_error(self, env, capsys, tmp_path):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps(
            {"dofs": 1, "num_basis": 7, "weights": [0.0] * 8}))
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--weights", str(wrong),
            "--out", str(tmp_path / "x.csv")])
        assert code == 5
        assert "num_basis=7" in stderr

    # int() truncated 1.9 and 5.7, and read true as 1: generate exited 0
    @pytest.mark.parametrize("field, value", [
        ("dofs", 1.9), ("num_basis", 5.7), ("dofs", True), ("num_basis", "5")])
    def test_weights_integer_fields_must_be_integers(self, env, tmp_path, field,
                                                     value):
        record = {"dofs": 1, "num_basis": 5, "weights": [0.0] * 6, field: value}
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(record))
        code, stderr = _run_to(["generate", "--bank", str(env["bank"]),
                                "--weights", str(weights)], tmp_path / "x.csv")
        assert code == 2
        assert f"{field} must be an integer" in stderr

    def test_malformed_json_is_validation_error(self, env, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"dofs": 2,')
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--weights", str(broken),
            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert stderr.startswith("error[validation]:")

    def test_unknown_weights_key_rejected(self, env, capsys, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"dofs": 1, "num_basis": 5,
                                   "weights": [0.0] * 6, "label": "x"}))
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--weights", str(odd),
            "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown weights keys: label" in stderr

    @pytest.mark.parametrize("text", ["t,dofx_pos\n0.0,1.0\n0.5,2.0\n",
                                      "t,dof0_pos\n0.0,1.0\n0.5,abc\n"],
                             ids=["bad-column", "non-numeric-cell"])
    def test_malformed_demo_csv_is_validation_error(self, env, capsys, tmp_path,
                                                    text):
        demo = tmp_path / "demo.csv"
        demo.write_text(text)
        code, _, stderr = _run(capsys, [
            "fit", "--bank", str(env["bank"]), "--demo", str(demo),
            "--out", str(tmp_path / "w.json")])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert str(demo) in stderr
        assert stderr.count("\n") == 1

    def test_non_finite_boundary_state_rejected(self, env, capsys, tmp_path):
        bc = tmp_path / "bc.json"
        bc.write_text('{"t_b": 0.0, "y_b": [NaN, 0.0], "dy_b": [0.0, 0.0]}')
        out = tmp_path / "x.csv"
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--weights",
            str(env["weights"]), "--bc", str(bc), "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert "finite" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["precompute", "--config", "{bad}"],
        ["generate", "--bank", "{bank}", "--config", "{bad}", "--weights", "{weights}"],
        ["generate", "--bank", "{bank}", "--weights", "{bad}"],
        ["generate", "--bank", "{bank}", "--weights", "{weights}", "--bc", "{bad}"],
        ["sample", "--bank", "{bank}", "--wdist", "{bad}"],
        ["combine", "--bank", "{bank}", "--wdist", "{wdist}", "--bc", "{bc}",
         "--activations", "{bad}"],
        ["replan", "--bank", "{bank}", "--scenario", "{bad}"],
    ], ids=["config", "bank-config", "weights", "bc", "wdist", "activations",
            "scenario"])
    def test_json_input_must_be_an_object(self, env, capsys, tmp_path, argv):
        bad = tmp_path / "array.json"
        bad.write_text("[1.0, 2.0]")
        paths = {key: str(env[key]) for key in ("bank", "weights", "wdist", "bc")}
        argv = [arg.format(bad=bad, **paths) for arg in argv]
        code, _, stderr = _run(capsys, argv + ["--out", str(tmp_path / "x.out")])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert "JSON object" in stderr
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--start", "nan"), ("--until", "nan"),
                                             ("--start", "inf"), ("--until", "-inf"),
                                             ("--rate", "inf")])
    @WINDOW_COMMANDS
    def test_non_finite_query_window_is_validation_error(self, env, capsys, tmp_path,
                                                         command, flag, value):
        _assert_window_rejected(env, capsys, tmp_path, command, f"{flag}={value}")

    # 1e6 Hz over the 1 s window is one sample more than the bound
    @pytest.mark.parametrize("rate", ["1e300", str(MAX_QUERY_SAMPLES)])
    @WINDOW_COMMANDS
    def test_oversized_query_window_is_validation_error(self, env, capsys, tmp_path,
                                                        command, rate):
        _assert_window_rejected(env, capsys, tmp_path, command, f"--rate={rate}")

    @pytest.mark.parametrize("layout", ["unversioned", "format-2"])
    def test_old_bank_is_validation_error(self, env, capsys, tmp_path, layout):
        old = ROW_LAYOUT_BANK
        if layout == "unversioned":
            old = tmp_path / "old.npz"
            write_unversioned_bank(BasisBank.load(str(env["bank"])), str(old))
        out = tmp_path / "never.csv"
        code, _, stderr = _run(capsys, [
            "generate", "--bank", str(old), "--weights", str(env["weights"]),
            "--out", str(out)])
        assert code == 2
        assert stderr.startswith("error[validation]:")
        assert stderr.count("\n") == 1
        assert "precompute" in stderr
        assert not out.exists()

    def test_failed_command_leaves_no_output(self, env, capsys, tmp_path):
        out = tmp_path / "never.csv"
        code, _, _ = _run(capsys, [
            "generate", "--bank", str(env["bank"]), "--weights",
            str(env["weights"]), "--rate", "100", "--until", "5.0",
            "--out", str(out)])
        assert code == 2
        assert not out.exists()


SPECIAL = [math.nan, math.inf, -math.inf]
WINDOW_BOUND = st.one_of(st.none(), st.floats(0.0, 1.0),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(SPECIAL + [-1.0]))
# floats(1, 1e3) weights the draw towards rates that sample a window at all,
# so that about one run in seven succeeds
RATE = st.one_of(st.floats(1e-3, 1e4), st.floats(1.0, 1e3),
                 st.sampled_from(SPECIAL + [0.0, -1.0, 1e7, 1e300]))


@settings(max_examples=60, deadline=None)
@given(start=WINDOW_BOUND, until=WINDOW_BOUND, rate=RATE)
def test_generate_query_window_fuzz(env, tmp_path_factory, start, until, rate):
    # every query window either succeeds or ends in one validation line
    out = tmp_path_factory.mktemp("fuzz") / "traj.csv"
    argv = ["generate", "--bank", str(env["bank"]), "--weights", str(env["weights"]),
            "--bc", str(env["bc"]), f"--rate={rate!r}", "--out", str(out)]
    argv += [f"--{flag}={value!r}" for flag, value in (("start", start), ("until", until))
             if value is not None]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code == 0:
        assert out.exists() and stderr.getvalue() == ""
    else:
        assert code == 2, stderr.getvalue()
        assert stderr.getvalue().startswith("error[validation]:")
        assert stderr.getvalue().count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def demos(env, tmp_path_factory):
    """Three demonstration CSVs generated from random weights at 400 Hz."""
    root = tmp_path_factory.mktemp("demos")
    paths = []
    for seed in (1, 2, 3):
        weights = root / f"w{seed}.json"
        weights.write_text(json.dumps({
            "dofs": 2, "num_basis": 5,
            "weights": np.random.default_rng(seed).standard_normal(12).tolist()}))
        demo = root / f"demo{seed}.csv"
        assert main(["generate", "--bank", str(env["bank"]), "--weights", str(weights),
                     "--bc", str(env["bc"]), "--rate", "400", "--out", str(demo)]) == 0
        paths.append(str(demo))
    return paths


def _command(env, demos, name):
    """argv of a command that reads the flag under test, without --out."""
    bank = ["--bank", str(env["bank"])]
    pair = ["--wdist", str(env["wdist"]), "--bc", str(env["bc"])]
    return {
        "blend": ["blend"] + bank + pair + pair + ["--ramp-start", "0.25",
                                                   "--ramp-end", "0.75"],
        "combine": ["combine"] + bank + pair + pair + ["--activations",
                                                       str(env["activations"])],
        "sample": ["sample"] + bank + ["--wdist", str(env["wdist"]), "--count", "2"],
        "fit": ["fit"] + bank + ["--demo", demos[0]],
        "fit-multi": ["fit"] + bank + [arg for demo in demos for arg in ("--demo", demo)],
    }[name]


EXIT_CODES = {"validation": 2, "io": 3, "numerical": 4, "dimension": 5}


def _run_to(argv, out, svg=None):
    """Run argv writing to out (and svg); returns (code, stderr) after checking
    the output contract: exit 0 with every output written and nothing on
    stderr, or one "error[category]" line with its exit code, no output and
    nothing on stdout; either way no temp file is left beside an output."""
    argv = argv + ["--out", str(out)] + (["--svg", str(svg)] if svg else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    outputs = [path for path in (out, svg) if path is not None]
    if code == 0:
        assert all(path.exists() for path in outputs) and stderr.getvalue() == ""
    else:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
        category = stderr.getvalue().split("]")[0].removeprefix("error[")
        assert code == EXIT_CODES[category], stderr.getvalue()
        assert not any(path.exists() for path in outputs)
        assert stdout.getvalue() == ""
    for path in outputs:
        if path.parent.is_dir():
            assert not list(path.parent.glob(".tmp-*")), path.parent
    return code, stderr.getvalue()


@pytest.mark.parametrize("defect", TABLE_DEFECTS)
def test_edited_bank_table_is_one_error_line(env, tmp_path, defect):
    # the checksum is recomputed over the edited table, so only load's shape
    # and finiteness checks stand between such a file and a trajectory; each
    # names the file
    edit, error, match = TABLE_DEFECTS[defect]
    bank = BasisBank.load(str(env["bank"]))
    path = tmp_path / "bank.npz"
    write_bank_table(bank, path, edit(bank.table))
    code, stderr = _run_to(["generate", "--bank", str(path), "--weights", str(env["weights"]),
                            "--rate", "50"], tmp_path / "traj.csv")
    assert code == EXIT_CODES[error.category]
    assert stderr.startswith(f"error[{error.category}]: ") and match in stderr
    assert f"bank file {path}" in stderr


@pytest.mark.parametrize("defect", CONFIG_DEFECTS)
def test_edited_bank_config_is_one_error_line(env, tmp_path, defect):
    # the config's own checks do not know the file; load names it once
    edit, text = CONFIG_DEFECTS[defect]
    bank = BasisBank.load(str(env["bank"]))
    path = tmp_path / "bank.npz"
    write_bank_config(bank, path, edit(json.loads(bank.config.canonical_json())))
    code, stderr = _run_to(["generate", "--bank", str(path), "--weights", str(env["weights"]),
                            "--rate", "50"], tmp_path / "traj.csv")
    assert code == 2
    assert stderr == f"error[validation]: bank file {path}: {text}\n"


class TestAllOrNoOutputs:
    # generate wrote --out, printed its report, then failed on the plot,
    # leaving the CSV behind
    @pytest.fixture(scope="class")
    def huge(self, tmp_path_factory):
        """A 3 s, N = 8 bank and 2-DoF weights of +/-1e306, whose trace is
        finite but too wide for the plot's scale."""
        root = tmp_path_factory.mktemp("huge")
        config = root / "config.json"
        config.write_text(json.dumps({"alpha": 25.0, "tau": 3.0, "alpha_x": 2.0,
                                      "num_basis": 8, "duration": 3.0}))
        assert main(["precompute", "--config", str(config),
                     "--out", str(root / "bank.npz")]) == 0
        (root / "weights.json").write_text(json.dumps(
            {"dofs": 2, "num_basis": 8, "weights": [1e306 * (-1) ** i for i in range(18)]}))
        return root

    def test_plot_overflow_leaves_no_output(self, huge, tmp_path):
        code, stderr = _run_to(["generate", "--bank", str(huge / "bank.npz"), "--weights",
                                str(huge / "weights.json"), "--rate", "100"],
                               tmp_path / "g.csv", tmp_path / "g.svg")
        assert code == 4 and "overflow" in stderr

    def test_plot_into_missing_directory_leaves_no_output(self, env, tmp_path):
        code, stderr = _run_to(["generate", "--bank", str(env["bank"]),
                                "--weights", str(env["weights"])],
                               tmp_path / "g.csv", tmp_path / "missing" / "g.svg")
        assert code == 3 and "missing" in stderr

    # the message named the random temp file, so reruns printed different text
    def test_missing_directory_error_is_deterministic(self, env, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        runs = [_run_to(["generate", "--bank", str(env["bank"]),
                         "--weights", str(env["weights"])], out) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0] == (3, f"error[io]: cannot write {out}: {os.strerror(errno.ENOENT)}\n")

    def test_failed_run_keeps_existing_output(self, env, tmp_path):
        out = tmp_path / "g.csv"
        out.write_bytes(b"earlier run\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["generate", "--bank", str(env["bank"]), "--weights",
                         str(env["weights"]), "--out", str(out),
                         "--svg", str(tmp_path / "missing" / "g.svg")])
        assert code == 3 and stdout.getvalue() == ""
        assert out.read_bytes() == b"earlier run\n"
        assert not list(tmp_path.glob(".tmp-*"))


class TestDofMismatch:
    @pytest.mark.parametrize("command", ["generate", "sample", "combine", "blend"])
    def test_one_dimension_line_naming_both_files(self, env, demos, tmp_path, command):
        bc = tmp_path / "bc3.json"
        bc.write_text(json.dumps({"t_b": 0.0, "y_b": [0.0] * 3, "dy_b": [0.0] * 3}))
        params = env["weights"] if command == "generate" else env["wdist"]
        flag = "--weights" if command == "generate" else "--wdist"
        argv = [command, "--bank", str(env["bank"]), flag, str(params), "--bc", str(bc)]
        if command == "combine":
            argv += [flag, str(params), "--bc", str(env["bc"]),
                     "--activations", str(env["activations"])]
        if command == "blend":
            argv += [flag, str(params), "--bc", str(env["bc"]),
                     "--ramp-start", "0.25", "--ramp-end", "0.75"]
        code, stderr = _run_to(argv, tmp_path / "x.out", tmp_path / "x.svg")
        assert code == 5
        assert stderr == f"error[dimension]: {bc} has 3 DoFs, {params} has 2\n"


class TestNonFiniteFlags:
    # inf was accepted and written out as Infinity or failed deep in a
    # solver; nan was accepted, ignored or reported as something else
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("command, flag", [
        ("blend", "--noise-var"), ("combine", "--noise-var"), ("sample", "--noise-var"),
        ("fit", "--ridge"), ("fit-multi", "--ridge"), ("fit-multi", "--cov-floor")])
    def test_rejected_with_one_validation_line(self, env, demos, tmp_path,
                                               command, flag, value):
        # sample reads --noise-var only for its plot
        svg = tmp_path / "x.svg" if command == "sample" else None
        code, stderr = _run_to(_command(env, demos, command) + [f"{flag}={value}"],
                               tmp_path / "x.out", svg)
        assert code == 2
        assert f"{flag[2:].replace('-', '_')} must be finite and >= 0" in stderr

    # sample without --svg and a single-demo fit never read these flags, and
    # exited 0 ignoring them
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("command, flag", [("sample", "--noise-var"),
                                               ("fit", "--cov-floor")])
    def test_rejected_where_unread(self, env, demos, tmp_path, command, flag, value):
        code, stderr = _run_to(_command(env, demos, command) + [f"{flag}={value}"],
                               tmp_path / "x.out")
        assert code == 2
        assert f"{flag[2:].replace('-', '_')} must be finite and >= 0" in stderr


# argparse printed its usage text and raised SystemExit(2) for these
USAGE_ERRORS = {
    "non-numeric flag": lambda env, demos: (_command(env, demos, "fit-multi")
                                            + ["--cov-floor", "abc"]),
    "missing required flag": lambda env, demos: ["generate", "--bank", str(env["bank"])],
    "unknown command": lambda env, demos: ["frobnicate"],
    "no command": lambda env, demos: [],
}


class TestUsageErrors:
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_one_validation_line(self, env, demos, tmp_path, case):
        # _run_to fails on SystemExit, and checks the one line and no output
        code, stderr = _run_to(USAGE_ERRORS[case](env, demos), tmp_path / "x.out")
        assert code == 2
        assert stderr.startswith("error[validation]: ")

    def test_empty_argv(self, capsys):
        code, out, err = _run(capsys, [])
        assert (code, out) == (2, "")
        assert err.startswith("error[validation]: ") and err.count("\n") == 1
        assert "command" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "precompute" in capsys.readouterr().out


@settings(max_examples=25, deadline=None)
@given(value=st.floats())
@pytest.mark.parametrize("command, flag", [
    ("blend", "--noise-var"), ("fit", "--ridge"), ("fit-multi", "--cov-floor")])
def test_numeric_flag_fuzz(env, demos, tmp_path_factory, command, flag, value):
    # every value either succeeds or ends in one error line, with no output
    out = tmp_path_factory.mktemp("fuzz") / "x.out"
    code, _ = _run_to(_command(env, demos, command) + [f"{flag}={value!r}"], out)
    if not (value >= 0.0 and math.isfinite(value)):
        assert code == 2


def test_small_config_matches_fixture():
    # the CLI suite and the library fixtures must exercise the same setup
    assert CONFIG["alpha"] == SMALL_CONFIG["alpha"]
    assert CONFIG["num_basis"] == SMALL_CONFIG["num_basis"]
    assert CONFIG["grid_dt"] == SMALL_CONFIG["grid_dt"]


DEMO_T = np.arange(41) / 40


def _demo_csv(header, *columns, newline="\n"):
    rows = [",".join(f"{value:.17g}" for value in row) for row in zip(*columns)]
    return newline.join([header] + rows) + newline


_SIN, _COS = np.sin(DEMO_T), np.cos(DEMO_T)
_CLEAN_DEMO = _demo_csv("t,dof0_pos", DEMO_T, _SIN)
_CLEAN_LINES = _CLEAN_DEMO.splitlines(keepends=True)

# header and row cases of a one-DoF demo on the 1 s test bank: each either
# fits the clean demo's data (exit 0, the clean fit's output byte for byte)
# or ends in one error line naming the fault
DEMO_CSV_CASES = {
    "duplicate-pos": (_demo_csv("t,dof0_pos,dof0_pos", DEMO_T, _SIN, _COS),
                      2, "column 'dof0_pos' repeats DoF 0 pos"),
    "duplicate-vel": (_demo_csv("t,dof0_pos,dof0_vel,dof0_vel", DEMO_T, _SIN, _COS, -_SIN),
                      2, "column 'dof0_vel' repeats DoF 0 vel"),
    "dof00-next-to-dof0": (_demo_csv("t,dof0_pos,dof00_pos", DEMO_T, _SIN, _COS),
                           2, "column 'dof00_pos' repeats DoF 0 pos"),
    "duplicate-segment-id": (_demo_csv("t,dof0_pos,segment_id,segment_id", DEMO_T, _SIN,
                                       0 * DEMO_T, 0 * DEMO_T),
                             2, "column 'segment_id' repeats"),
    # int() reads the digits of every script; a column name takes ASCII ones
    "arabic-indic-dof": (_demo_csv("t,dof\u0660_pos", DEMO_T, _SIN),
                         2, "unrecognized trajectory column 'dof\u0660_pos'"),
    # spreadsheet programs write a byte-order mark; it once stuck to the 't' cell
    "utf8-bom": ("\ufeff" + _CLEAN_DEMO, 0, None),
    "crlf": (_demo_csv("t,dof0_pos", DEMO_T, _SIN, newline="\r\n"), 0, None),
    "blank-line": ("".join(_CLEAN_LINES[:4] + ["\n"] + _CLEAN_LINES[4:]),
                   2, "must each have 2 values"),
    "one-row": (_demo_csv("t,dof0_pos", DEMO_T[:1], _SIN[:1]), 2, "at least 2 time samples"),
    "header-only": ("t,dof0_pos\n", 2, "must each have 2 values"),
    "nan-time": (_demo_csv("t,dof0_pos", np.where(DEMO_T == 0.5, np.nan, DEMO_T), _SIN),
                 2, "must be finite"),
    "times-outside-bank": (_demo_csv("t,dof0_pos", DEMO_T + 0.5, _SIN),
                           2, "outside bank range"),
}


@pytest.mark.parametrize("case", list(DEMO_CSV_CASES))
def test_demo_csv_fuzz(env, tmp_path, case):
    text, expected_code, message = DEMO_CSV_CASES[case]
    demo = tmp_path / "demo.csv"
    demo.write_bytes(text.encode("utf-8"))
    code, stderr = _run_to(["fit", "--bank", str(env["bank"]), "--demo", str(demo)],
                           tmp_path / "w.json")
    assert code == expected_code, stderr
    if code:
        assert message in stderr
        return
    clean = tmp_path / "clean.csv"
    clean.write_text(_CLEAN_DEMO)
    assert _run_to(["fit", "--bank", str(env["bank"]), "--demo", str(clean)],
                   tmp_path / "clean.json") == (0, "")
    assert (tmp_path / "w.json").read_bytes() == (tmp_path / "clean.json").read_bytes()


_HUGE = 1.7e308

# demos whose values reach the largest doubles: a fit of one or of two of them
# ends in one error[numerical] line, exit 4, and writes nothing
EXTREME_DEMOS = {
    "alternating-positions": _demo_csv("t,dof0_pos", DEMO_T,
                                       np.where(np.arange(41) % 2, _HUGE, -_HUGE)),
    "constant-positions": _demo_csv("t,dof0_pos", DEMO_T, np.full(41, _HUGE)),
    "one-spike": _demo_csv("t,dof0_pos", DEMO_T, np.where(np.arange(41) == 20, _HUGE, 0.0)),
    "huge-velocities": _demo_csv("t,dof0_pos,dof0_vel", DEMO_T, _SIN, np.full(41, _HUGE)),
}


@pytest.mark.parametrize("copies", [1, 2], ids=["one-demo", "two-demos"])
@pytest.mark.parametrize("case", list(EXTREME_DEMOS))
def test_extreme_demo_fit_is_one_numerical_error(env, tmp_path, case, copies):
    demo = tmp_path / "demo.csv"
    demo.write_text(EXTREME_DEMOS[case])
    argv = ["fit", "--bank", str(env["bank"])] + ["--demo", str(demo)] * copies
    code, stderr = _run_to(argv, tmp_path / "w.json")
    assert code == 4 and stderr.startswith("error[numerical]: "), stderr


class TestFileMode:
    def test_outputs_take_the_mode_of_the_umask(self, env, capsys, tmp_path):
        # the temp file behind every atomic write was created 0o600
        bank = tmp_path / "bank.npz"
        out = tmp_path / "traj.csv"
        old = os.umask(0o022)
        try:
            BasisBank.load(str(env["bank"])).save(str(bank))
            code, _, stderr = _run(capsys, [
                "generate", "--bank", str(env["bank"]), "--weights", str(env["weights"]),
                "--bc", str(env["bc"]), "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0 and stderr == ""
        for path in (bank, out):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
