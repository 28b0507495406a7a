"""Every JSON input either parses or ends in one error line: each reader
checks its record (object, unknown keys, missing keys) and its fields
(numbers, integers, lists, strings) the same way, through mptraj.errors."""
import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptraj import BasisBank, DmpConfig
from mptraj.cli import _bc_from_dict, _load_weights, main
from mptraj.distribution import (weights_distribution_from_dict,
                                 weights_distribution_json_dict)
from mptraj.errors import ValidationError, check_finite_nonneg, check_finite_positive
from mptraj.probops import gaussian_sequence_from_dict
from tests.conftest import random_weights_distribution
from tests.test_cli import CONFIG, _run_to

HUGE = 10**400
# a string, a bool, null and an integer too large for a float, none of which
# a numeric field may take
NOT_NUMBERS = ["0.1", True, None, HUGE]

BC = {"t_b": 0.0, "y_b": [0.5, -0.25], "dy_b": [0.0, 1.0]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A bank and one valid file of every JSON input, all in one directory so
    that the scenario's relative wdist paths resolve."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(7)
    wdist = weights_distribution_json_dict(random_weights_distribution(2, 6, rng), 2, 5)
    records = {
        "config": CONFIG,
        "bc": BC,
        "weights": {"dofs": 2, "num_basis": 5, "weights": rng.standard_normal(12).tolist()},
        "wdist": wdist,
        "activations": {"times": [0.0, 0.5, 1.0], "values": [[1.0, 0.5, 0.0]]},
        "scenario": {"initial": BC, "rate_hz": 100.0, "anchor": "follow", "mode": "sample",
                     "seed": 3, "segments": [{"horizon": 0.5, "wdist": "wdist.json"},
                                             {"horizon": 0.5, "wdist": "wdist.json"}]},
    }
    for name, record in records.items():
        (root / f"{name}.json").write_text(json.dumps(record))
    assert main(["precompute", "--config", str(root / "config.json"),
                 "--out", str(root / "bank.npz")]) == 0
    return root, records


def _argv(root, kind: str, path) -> list:
    """argv, without --out, of the command that reads path as a kind file."""
    bank = ["--bank", str(root / "bank.npz")]
    paths = {name: str(root / f"{name}.json") for name in ("weights", "wdist", "bc")}
    paths[kind] = str(path)
    return {
        "config": ["precompute", "--config", paths.get("config", str(path))],
        "bc": ["generate", *bank, "--weights", paths["weights"], "--bc", paths["bc"]],
        "weights": ["generate", *bank, "--weights", paths["weights"]],
        "wdist": ["sample", *bank, "--wdist", paths["wdist"], "--count", "2"],
        "activations": ["combine", *bank, "--wdist", paths["wdist"], "--bc", paths["bc"],
                        "--activations", str(path)],
        "scenario": ["replan", *bank, "--scenario", str(path)],
    }[kind]


# (file, key path) of every field; an empty path replaces the whole file
FIELDS = [("config", (key,)) for key in (*CONFIG, "beta", "basis_overlap")]
FIELDS += [("bc", (key,)) for key in BC]
FIELDS += [("weights", (key,)) for key in ("dofs", "num_basis", "weights")]
FIELDS += [("wdist", (key,)) for key in ("dofs", "num_basis", "mean", "chol_lower")]
FIELDS += [("activations", (key,)) for key in ("times", "values")]
FIELDS += [("scenario", (key,)) for key in ("initial", "rate_hz", "anchor", "mode",
                                            "seed", "segments")]
FIELDS += [("scenario", ("initial", key)) for key in BC]
FIELDS += [("scenario", ("segments", 1, key)) for key in ("horizon", "wdist")]
FIELDS += [(kind, ()) for kind in ("config", "bc", "weights", "wdist", "activations",
                                   "scenario")]

# numeric fields: every value in NOT_NUMBERS is a validation error there
NUMERIC = {("config", ("alpha",)), ("config", ("grid_dt",)), ("config", ("beta",)),
           ("config", ("num_basis",)), ("bc", ("t_b",)), ("bc", ("y_b",)),
           ("weights", ("weights",)), ("wdist", ("mean",)), ("activations", ("values",)),
           ("scenario", ("rate_hz",)), ("scenario", ("segments", 1, "horizon")),
           ("scenario", ("initial", "t_b"))}


def _substituted(record, keys, value):
    if not keys:
        return value
    record = copy.deepcopy(record)
    target = record
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return record


def _check(files, tmp_path, kind, keys, value):
    """Run the command on the file with value at keys: exit 0, or one
    error[category] line with its code and no output."""
    root, records = files
    path = root / f"fuzz-{kind}.json"
    path.write_text(json.dumps(_substituted(records[kind], keys, value)))
    out = tmp_path / "out"
    if out.exists():
        out.unlink()
    return _run_to(_argv(root, kind, path), out)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=HUGE // 10, max_value=HUGE).map(lambda n: n * (-1) ** (n % 2)),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=8), st.just("wd\x00.json"))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)

OTHER_VALUES = [False, 0, -1, 2, -HUGE, 0.5, 1e308, math.nan, math.inf, -math.inf,
                "", "wd\x00.json", [], [1.0], [[1.0], [1.0, 2.0]], [[0.5, 0.5, 0.5]],
                {}, {"a": 1}]


@pytest.mark.parametrize("kind, keys", FIELDS, ids=lambda case: str(case))
def test_every_json_value_in_every_field(files, tmp_path, kind, keys):
    for i, value in enumerate(NOT_NUMBERS + OTHER_VALUES):
        code, stderr = _check(files, tmp_path, kind, keys, value)
        if (kind, keys) in NUMERIC and i < len(NOT_NUMBERS):
            assert code == 2, (value, stderr)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_json_input_fuzz(files, tmp_path_factory, field, value):
    _check(files, tmp_path_factory.mktemp("fuzz"), *field, value)


@pytest.mark.parametrize("kind, record", [
    ("weights", {"dofs": 0, "num_basis": 5, "weights": []}),
    ("wdist", {"dofs": 0, "num_basis": 5, "mean": [], "chol_lower": []})])
def test_zero_dofs_rejected(files, tmp_path, kind, record):
    # generate and sample wrote a file with a time column only, and exited 0
    code, stderr = _check(files, tmp_path, kind, (), record)
    assert code == 5 and "at least one DoF" in stderr


@pytest.mark.parametrize("record, message", [
    ({"times": [0.0, 0.5, 1.0], "values": [[[1.0], [0.5], [0.0]]]},
     "ActivationProfile.values has shape (1, 3, 1): 3 axes, more than 2"),
    ({"times": [[0.0], [0.5], [1.0]], "values": [[1.0, 0.5, 0.0]]},
     "ActivationProfile.times has shape (3, 1): 2 axes, more than 1")],
    ids=["values-3d", "times-2d"])
def test_activation_shapes(files, tmp_path, record, message):
    # read as "all activations vanish at t = 1" and as a string-format error
    code, stderr = _check(files, tmp_path, "activations", (), record)
    assert code == 5 and message in stderr


def test_byte_order_mark_is_read_past(files, tmp_path):
    # spreadsheet programs and some editors start a UTF-8 file with one
    root, records = files
    path = root / "bom-bc.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(records["bc"]).encode())
    argv = _argv(root, "bc", path)
    assert _run_to(argv, tmp_path / "bom.csv") == (0, "")
    assert _run_to(_argv(root, "bc", root / "bc.json"), tmp_path / "plain.csv") == (0, "")
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_nul_in_segment_path_is_io_error(files, tmp_path):
    code, stderr = _check(files, tmp_path, "scenario", ("segments", 1, "wdist"),
                          "wd\x00.json")
    assert code == 3 and stderr.startswith("error[io]: cannot read")


@pytest.mark.parametrize("segments", [{"horizon": 0.5}, "wdist.json", 5])
def test_segments_must_be_a_list(files, tmp_path, segments):
    # a JSON object was iterated as its keys
    code, stderr = _check(files, tmp_path, "scenario", ("segments",), segments)
    assert code == 2 and "segments must be a JSON array" in stderr


@pytest.mark.parametrize("config", [{"grid_dt": 1e-320},
                                    {"duration": 1e4, "grid_dt": 1e-9}],
                         ids=["overflow", "oversized"])
def test_bank_grid_is_bounded(files, tmp_path, config):
    # the first overflowed in round(), the second asked numpy for 72.8 TiB
    root, records = files
    path = root / "fine.json"
    path.write_text(json.dumps({**records["config"], **config}))
    code, stderr = _run_to(["precompute", "--config", str(path)], tmp_path / "bank.npz")
    assert code == 2 and "grid too fine" in stderr


def test_bank_cells_are_bounded(tmp_path):
    # 800 001 points x 200 001 columns asked numpy for 1.16 TiB
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"alpha": 25, "tau": 1, "alpha_x": 2, "num_basis": 200000,
                                "duration": 1, "grid_dt": 1.25e-6}))
    code, stderr = _run_to(["precompute", "--config", str(path)], tmp_path / "bank.npz")
    assert code == 2 and "bank too large" in stderr


class TestReaders:
    """Each library reader rejects a string, a bool, null and a huge integer
    in a numeric field, naming the field."""

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("field", ["alpha", "num_basis", "grid_dt", "beta"])
    def test_config(self, field, value):
        with pytest.raises(ValidationError, match=field):
            DmpConfig.from_dict({**CONFIG, field: value})

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("field, wrap", [("t_b", False), ("y_b", True)])
    def test_boundary_condition(self, field, wrap, value):
        with pytest.raises(ValidationError, match=field):
            _bc_from_dict({**BC, field: [value, 0.0] if wrap else value})

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    def test_weights(self, files, tmp_path, value):
        root, records = files
        path = tmp_path / "weights.json"
        weights = [value] + records["weights"]["weights"][1:]
        path.write_text(json.dumps({**records["weights"], "weights": weights}))
        with pytest.raises(ValidationError, match="weights"):
            _load_weights(str(path), BasisBank.load(str(root / "bank.npz")))

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("field", ["mean", "chol_lower"])
    def test_weights_distribution(self, files, field, value):
        data = copy.deepcopy(files[1]["wdist"])
        data[field][0] = value
        with pytest.raises(ValidationError, match=field):
            weights_distribution_from_dict(data)

    @pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
    @pytest.mark.parametrize("field", ["t", "mean", "cov_lower"])
    def test_gaussian_sequence(self, field, value):
        record = {"t": 0.0, "mean": [0.0], "cov_lower": [1.0]}
        record[field] = value if field == "t" else [value]
        with pytest.raises(ValidationError, match=field):
            gaussian_sequence_from_dict({"dofs": 1, "records": [record]})

    @pytest.mark.parametrize("data, message", [
        ({"dofs": 1, "records": [], "label": "x"}, "unknown Gaussian-sequence keys: label"),
        ({"dofs": 1, "records": [{"t": 0.0, "mean": [0.0], "cov_lower": [1.0], "x": 1}]},
         "unknown Gaussian-sequence record 0 keys: x"),
        ({"dofs": 1, "records": {}}, "records must be a JSON array"),
        ({"dofs": 1, "records": [], "meta": "abc"}, "meta must be a JSON object"),
        ({"records": []}, "missing Gaussian-sequence keys: dofs"),
        ({"dofs": -1, "records": []}, "dofs must be >= 1"),
        # the packed-covariance check named a (0,) shape that no file holds
        ({"dofs": 2, "records": []}, "the Gaussian sequence has no records"),
    ])
    def test_gaussian_sequence_record(self, data, message):
        with pytest.raises(ValidationError, match=message):
            gaussian_sequence_from_dict(data)

    def test_weights_distribution_unknown_key(self, files):
        # only the CLI rejected it, by repeating the key list
        with pytest.raises(ValidationError, match="unknown weights-distribution keys: x"):
            weights_distribution_from_dict({**files[1]["wdist"], "x": 1})

    def test_missing_keys_are_named(self):
        with pytest.raises(ValidationError, match="missing boundary-condition keys: y_b"):
            _bc_from_dict({"t_b": 0.0, "dy_b": [0.0]})


def _leaves(value, draw):
    """value with every number replaced by draw()."""
    if isinstance(value, list):
        return [_leaves(item, draw) for item in value]
    if isinstance(value, dict):
        return {key: _leaves(item, draw) for key, item in value.items()}
    return draw() if isinstance(value, (int, float)) else value


EXTREME = st.one_of(st.floats(), st.integers(-10**6, 10**6),
                    st.sampled_from([1.7e308, -1.7e308, 1e154, 1e-300, 5e-324, -0.0]))


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from([field for field in FIELDS if field[1]]), data=st.data())
def test_extreme_numbers_in_valid_shapes(files, tmp_path_factory, field, data):
    # past the shape checks, a value that overflows ends in error[numerical];
    # an output never holds inf or NaN
    kind, keys = field
    valid = files[1][kind]
    for key in keys:
        valid = valid.get(key, 1.0) if isinstance(valid, dict) else valid[key]
    tmp_path = tmp_path_factory.mktemp("extreme")
    code, _ = _check(files, tmp_path, kind, keys,
                     _leaves(valid, lambda: data.draw(EXTREME)))
    if code == 0 and kind != "config":
        assert not any(word in (tmp_path / "out").read_text()
                       for word in ("inf", "nan", "Infinity", "NaN"))


# numpy printed its overflow warning, and the command exited 0 with inf in
# its output or report
@pytest.mark.parametrize("kind, keys, value", [
    ("weights", ("weights",), [0.0] * 11 + [1.7e308]),
    ("bc", ("y_b",), [0.0, 1.7e308]),
    ("scenario", ("initial", "y_b"), [0.0, 1e152]),
], ids=["weights", "bc", "scenario"])
def test_overflow_is_numerical_error(files, tmp_path, kind, keys, value):
    code, stderr = _check(files, tmp_path, kind, keys, value)
    assert code == 4 and stderr.startswith("error[numerical]: floating-point overflow")


# each once ended in a TypeError from comparing the value with 0.0
@pytest.mark.parametrize("value", [None, [1.0], 1 + 0j, "0.1", np.array([0.5])], ids=repr)
@pytest.mark.parametrize("check, message", [(check_finite_positive, "> 0"),
                                            (check_finite_nonneg, ">= 0")])
def test_finite_checks_reject_what_is_not_a_real_number(check, message, value):
    # shown as its repr, so that the string '0.1' does not read as a number
    with pytest.raises(ValidationError, match=f"x must be finite and {message}, got "
                                              f"{re.escape(repr(value))}$"):
        check("x", value)


# a rejected real number, numpy's scalars and 0-d arrays among them, is shown
# as it prints
@pytest.mark.parametrize("value, shown", [
    (-0.5, "-0.5"), (np.float64(-0.5), "-0.5"), (np.float32(-0.5), "-0.5"),
    (np.int64(-3), "-3"), (np.array(-0.5), "-0.5"), (math.nan, "nan"),
    (np.float64(math.inf), "inf")], ids=repr)
@pytest.mark.parametrize("check, message", [(check_finite_positive, "> 0"),
                                            (check_finite_nonneg, ">= 0")])
def test_finite_checks_show_real_numbers_as_printed(check, message, value, shown):
    with pytest.raises(ValidationError, match=f"x must be finite and {message}, got "
                                              f"{re.escape(shown)}$"):
        check("x", value)


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(3), np.array(0.5),
                                   np.array(2)], ids=repr)
def test_finite_checks_take_real_numbers(value):
    assert check_finite_positive("x", value) is value
    assert check_finite_nonneg("x", value) is value
