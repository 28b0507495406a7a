import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mptraj import DimensionError, IoError, ValidationError, fileio
from mptraj.distribution import write_samples_csv
from mptraj.fileio import (CSV_BLOCK_ROWS, atomic_write_bytes, atomic_write_json,
                           atomic_write_text, read_json, read_text, staged_writes,
                           write_csv_table)
from mptraj.svgplot import line_plot
from mptraj.trajectory import write_trajectory_csv
from tests import reference

# doubles whose text is easy to get wrong: signed zero, the smallest
# subnormal, the first integer a double cannot follow by +1, a value with no
# short exact decimal, and the non-finite values
AWKWARD = np.array([-0.0, 5e-324, 2.0**53, 0.1, -1.0 / 3.0, 1e300, np.nan,
                    np.inf, -np.inf, 0.0, -2.5e-310, 123456789.0])


class TestAtomicWrites:
    def test_text_round_trip(self, tmp_path):
        path = str(tmp_path / "note.txt")
        atomic_write_text(path, "alpha\nbeta\n")
        assert read_text(path) == "alpha\nbeta\n"

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "obj.json")
        atomic_write_json(path, {"a": [1.5, 2.5], "b": "x"})
        assert read_json(path) == {"a": [1.5, 2.5], "b": "x"}

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "long old content that must fully vanish")
        atomic_write_text(path, "new")
        assert read_text(path) == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        for i in range(3):
            atomic_write_bytes(str(tmp_path / f"f{i}.bin"), b"\x00" * 64)
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.startswith(".tmp-")]
        assert leftovers == []

    def test_unwritable_directory_reports_io_error(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "f.txt"
        with pytest.raises(IoError, match="cannot write"):
            atomic_write_text(str(missing), "data")

    def test_missing_file_reports_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            read_text(str(tmp_path / "absent.txt"))

    def test_malformed_json_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed JSON"):
            read_json(str(path))


class TestStagedWrites:
    def test_renames_wait_for_clean_exit(self, tmp_path):
        with staged_writes():
            atomic_write_text(str(tmp_path / "a.txt"), "a")
            atomic_write_text(str(tmp_path / "b.txt"), "b")
            assert len(list(tmp_path.glob(".tmp-*"))) == len(list(tmp_path.iterdir())) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.txt", "b.txt"]
        assert (tmp_path / "b.txt").read_text() == "b"

    def test_error_touches_no_destination(self, tmp_path):
        (tmp_path / "b.txt").write_text("earlier")
        with pytest.raises(RuntimeError), staged_writes():
            atomic_write_text(str(tmp_path / "a.txt"), "a")
            atomic_write_text(str(tmp_path / "b.txt"), "b")
            raise RuntimeError("command failed")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["b.txt"]
        assert (tmp_path / "b.txt").read_text() == "earlier"

    def test_failed_rename_is_io_error(self, tmp_path):
        (tmp_path / "dir").mkdir()
        with pytest.raises(IoError, match="cannot write"), staged_writes():
            atomic_write_text(str(tmp_path / "dir"), "a")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["dir"]
        # writes after the block rename at once again
        atomic_write_text(str(tmp_path / "c.txt"), "c")
        assert (tmp_path / "c.txt").read_text() == "c"


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_row_format_matches_per_value_format(value):
    assert "%.17g" % value == f"{value:.17g}"


def _rows(seed, count, width):
    """count x width doubles: random magnitudes over 600 decades, with the
    AWKWARD values spread through them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((count, width)) * 10.0 ** rng.integers(-300, 300, (count, width))
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, AWKWARD.size, replace=False)] = AWKWARD
    return values


class TestCsvTable:
    # byte-for-byte against the per-value writers the table writer replaced;
    # the larger tables span two formatting blocks
    @pytest.mark.parametrize("rows", [2, CSV_BLOCK_ROWS + 904])
    @pytest.mark.parametrize("velocities", [False, True])
    @pytest.mark.parametrize("segments", [False, True])
    def test_trajectory_csv_matches_per_value_writer(self, tmp_path, rows, velocities,
                                                     segments):
        data = _rows(1, 7, rows)
        vel = data[4:7] if velocities else None
        ids = np.arange(rows) // 3 if segments else None
        write_trajectory_csv(str(tmp_path / "new.csv"), data[0], data[1:4], vel,
                             segment_ids=ids)
        reference.write_trajectory_csv(str(tmp_path / "old.csv"), data[0], data[1:4],
                                       vel, segment_ids=ids)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # one sample over two formatting blocks, and the CLI's 20 samples of 3001 times
    @pytest.mark.parametrize("count, t_count", [(2, 3), (3, CSV_BLOCK_ROWS // 2 + 5),
                                                (1, CSV_BLOCK_ROWS + 904), (20, 3001)])
    def test_samples_csv_matches_per_value_writer(self, tmp_path, count, t_count):
        data = _rows(2, count * 2 + 1, t_count)
        # the times are written once per file: awkward ones among them too
        data[0, :AWKWARD.size] = AWKWARD[:t_count]
        samples = data[1:].reshape(count, 2, t_count)
        write_samples_csv(str(tmp_path / "new.csv"), data[0], samples)
        reference.write_samples_csv(str(tmp_path / "old.csv"), data[0], samples)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("velocities", [False, True])
    def test_zero_times_write_the_header_alone(self, tmp_path, velocities):
        vel = np.zeros((2, 0)) if velocities else None
        for name, module in (("new", sys.modules[__name__]), ("old", reference)):
            module.write_trajectory_csv(str(tmp_path / f"{name}.csv"), np.zeros(0),
                                        np.zeros((2, 0)), vel, segment_ids=np.zeros(0))
            module.write_samples_csv(str(tmp_path / f"{name}-samples.csv"), np.zeros(0),
                                     np.zeros((3, 2, 0)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new-samples.csv").read_bytes() == \
            (tmp_path / "old-samples.csv").read_bytes() == b"sample_id,t,dof0_pos,dof1_pos\n"

    # 2**53 + 1 would read as 2**53 once converted to float64, so integer
    # ids are judged as integers
    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, -2.25, 2**53 + 1, 2**60, 2.0**60])
    def test_non_integral_segment_ids_write_nothing(self, tmp_path, bad):
        ids = np.array([0, 1, bad])
        with pytest.raises(ValidationError, match=rf"^segment_ids must be finite integers of "
                           rf"magnitude at most 2\*\*53, got {re.escape(str(bad))}$"):
            write_trajectory_csv(str(tmp_path / "t.csv"), np.zeros(3), np.zeros((1, 3)), None,
                                 segment_ids=ids)
        assert list(tmp_path.iterdir()) == []

    def test_samples_csv_holds_no_table(self, tmp_path):
        # the (count * T, D + 2) float table of the rows is never built: the
        # peak stays below its size
        rng = np.random.default_rng(4)
        times = np.arange(3001) / 1000.0
        samples = np.cumsum(rng.standard_normal((20, 3, 3001)), axis=2)
        write_samples_csv(str(tmp_path / "warm.csv"), times, samples)
        tracemalloc.start()
        try:
            write_samples_csv(str(tmp_path / "s.csv"), times, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 3001 * (3 + 2) * 8

    def test_fixed_text_frees_its_temporaries(self):
        # the int64 digit temporaries of the fixed-notation kernel are freed
        # once their digits are laid out: about 97 B per cell at the peak,
        # against 175 B when every one of them lives until the return
        rng = np.random.default_rng(6)
        # the values it writes: 0 and 1e-4 <= |value| < 1e16
        cells = (rng.choice([-1.0, 1.0], 9003) * rng.uniform(1.0, 9.9, 9003)
                 * 10.0 ** rng.integers(-4, 16, 9003))
        cells[::97] = 0.0
        fileio._fixed_text(cells)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            text = fileio._fixed_text(cells)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 130 * cells.size
        assert [bytes(row).replace(b"\0", b"").decode() for row in text[:500]] == \
            ["%.17g" % value for value in cells[:500]]

    def test_integral_ids_below_two_to_the_53_print_as_integers(self, tmp_path):
        ids = np.array([0, 7, -3, 2**53 - 1, 2**53])
        write_trajectory_csv(str(tmp_path / "ids.csv"), np.zeros(5), np.zeros((1, 5)),
                             None, segment_ids=ids)
        column = [line.rsplit(",", 1)[1] for line in
                  (tmp_path / "ids.csv").read_text().splitlines()[1:]]
        assert column == [str(int(i)) for i in ids]


def _lines(values) -> bytes:
    """The text "%.17g" gives each of values, one per line."""
    return "".join("%.17g\n" % value for value in values).encode("ascii")


def _block(values) -> bytes:
    """The text the table writer's kernel gives values, one per line."""
    values = np.asarray(values, dtype=np.float64)
    return fileio._joined(fileio._cell_text(values), np.full(values.size, ord("\n"), np.uint8))


def _ulps_around(centre, count):
    """centre, a double > 0, and the count doubles on each side of it: the
    bit patterns of positive doubles count up with their values."""
    bits = np.array(centre).view(np.int64) + np.arange(-count, count + 1)
    return bits.view(np.float64)


class TestCsvKernel:
    """The block formatter against "%" itself: its kernel writes zeros and
    1e-4 <= |value| < 1e16, and "%" every other value."""

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_matches_percent_format(self, values):
        # lists of both kinds of value go through both of the block's paths
        assert _block(values) == _lines(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_ten_and_their_neighbours(self, sign):
        # log10 puts the exponent one off just below a power of ten, and the
        # kernel's range ends at two of them
        values = sign * np.concatenate([_ulps_around(10.0 ** j, 2000) for j in range(-5, 18)])
        assert _block(values) == _lines(values)

    def test_range_edges(self):
        values = [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0),
                  -1e-4, -np.nextafter(1e16, 0.0)]
        assert _block(values) == _lines(values)
        assert _block(values).split(b"\n")[:4] == [
            b"0.0001", b"9.9999999999999991e-05", b"10000000000000000", b"9999999999999998"]

    def test_ties_round_half_to_even(self):
        # quarters in [2**50, 2**51) fall exactly halfway between two
        # 17-digit decimals
        assert _block([1125899906842624.25, 1125899906842624.75, -1125899906842624.25]) == (
            b"1125899906842624.2\n1125899906842624.8\n-1125899906842624.2\n")
        rng = np.random.default_rng(5)
        base = 2.0**50 + rng.integers(0, 2**50, 20000).astype(np.float64)
        values = np.concatenate([base + 0.25, base + 0.75])
        assert _block(values) == _lines(values)

    def test_signed_zeros(self):
        assert _block([0.0, -0.0, 0.0]) == b"0\n-0\n0\n"

    def test_wide_and_random_values(self):
        rng = np.random.default_rng(11)
        for values in (rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 18, 5000),
                       rng.integers(0, 2**63, 5000, dtype=np.int64).view(np.float64),
                       _rows(3, 50, 100).reshape(-1), AWKWARD):
            assert _block(values) == _lines(values)

    def test_in_range_values_never_reach_the_fallback(self, monkeypatch):
        # the "%" fallback is the slow path: a table of ordinary values must
        # be formatted by the kernel alone
        sizes = []
        fallback = fileio._fallback_text
        monkeypatch.setattr(fileio, "_fallback_text",
                            lambda cells: sizes.append(cells.size) or fallback(cells))
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.standard_normal(3000), np.arange(-50.0, 50.0),
                                 rng.uniform(1e-4, 1e16, 1000), [0.0, -0.0, 1e-4]])
        assert _block(values) == _lines(values)
        assert sum(sizes) == 0


# the two public CSV writers, each given a table of two formatting blocks
WRITERS = {
    "trajectory": lambda path: write_trajectory_csv(
        path, np.arange(CSV_BLOCK_ROWS + 1.0), np.ones((2, CSV_BLOCK_ROWS + 1)), None),
    "samples": lambda path: write_samples_csv(
        path, np.arange(CSV_BLOCK_ROWS + 1.0), np.ones((1, 2, CSV_BLOCK_ROWS + 1))),
}


class TestStreamedWrite:
    def _fail_after_first_block(self, monkeypatch):
        calls = []
        original = fileio._joined

        def joined(text, seps):
            calls.append(len(text))
            if len(calls) > 1:
                raise RuntimeError("formatting failed")
            return original(text, seps)

        monkeypatch.setattr(fileio, "_joined", joined)
        return calls

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failure_after_a_block_leaves_nothing(self, tmp_path, monkeypatch, writer):
        calls = self._fail_after_first_block(monkeypatch)
        with pytest.raises(RuntimeError, match="formatting failed"):
            WRITERS[writer](str(tmp_path / "t.csv"))
        assert calls == [CSV_BLOCK_ROWS, 1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failure_inside_staged_writes_leaves_nothing(self, tmp_path, monkeypatch, writer):
        self._fail_after_first_block(monkeypatch)
        (tmp_path / "t.csv").write_text("earlier")
        with pytest.raises(RuntimeError, match="formatting failed"), staged_writes():
            atomic_write_text(str(tmp_path / "a.txt"), "a")
            WRITERS[writer](str(tmp_path / "t.csv"))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["t.csv"]
        assert (tmp_path / "t.csv").read_text() == "earlier"

    def test_io_error_names_the_destination(self, tmp_path):
        missing = str(tmp_path / "no" / "t.csv")
        with pytest.raises(IoError, match=re.escape(f"cannot write {missing}: ")):
            write_csv_table(missing, ["t", "a"], np.zeros(3), np.ones((1, 3, 1)))
        (tmp_path / "dir").mkdir()
        with pytest.raises(IoError, match=re.escape(f"cannot write {tmp_path / 'dir'}: ")):
            write_csv_table(str(tmp_path / "dir"), ["t", "a"], np.zeros(3), np.ones((1, 3, 1)))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["dir"]

    def test_awkward_table_under_raising_errstate(self, tmp_path):
        table = np.concatenate([AWKWARD, AWKWARD[::-1]]).reshape(-1, 4)
        with np.errstate(all="raise"):
            write_csv_table(str(tmp_path / "t.csv"), ["a", "b", "c", "d"], table[:, 0],
                            table[None, :, 1:])
        expected = "a,b,c,d\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                          for row in table)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode("ascii")

    def test_awkward_labels_and_groups(self, tmp_path):
        # row c * T + j holds labels[c], times[j] and values[c, j]
        values = np.concatenate([AWKWARD, AWKWARD[::-1]]).reshape(2, 3, 4)
        labels, times = AWKWARD[-2:], AWKWARD[3:6]
        write_csv_table(str(tmp_path / "t.csv"), ["id", "t", "a", "b", "c", "d"], times,
                        values, labels=labels)
        expected = "id,t,a,b,c,d\n" + "".join(
            ",".join("%.17g" % v for v in (labels[c], times[j], *values[c, j])) + "\n"
            for c in range(2) for j in range(3))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode("ascii")


class TestLinePlot:
    def test_writes_valid_svg(self, tmp_path):
        path = str(tmp_path / "plot.svg")
        times = np.linspace(0.0, 1.0, 20)
        line_plot(path, times, np.stack([np.sin(times), np.cos(times)]), ["a", "b"],
                  title="demo")
        text = read_text(path)
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "demo" in text
        assert text.count("polyline") >= 2

    def test_bands_render_polygons(self, tmp_path):
        path = str(tmp_path / "band.svg")
        times = np.linspace(0.0, 1.0, 10)
        mean = np.sin(times)[None]
        line_plot(path, times, mean, ["m"], bands=(mean - 0.5, mean + 0.5))
        assert "polygon" in read_text(path)

    def test_rejects_non_finite_values(self, tmp_path):
        times = np.linspace(0.0, 1.0, 5)
        bad = np.array([0.0, 1.0, np.nan, 0.5, 0.2])
        with pytest.raises(ValidationError):
            line_plot(str(tmp_path / "x.svg"), times, bad[None], ["bad"])

    def test_rejects_misaligned_curve(self, tmp_path):
        with pytest.raises(DimensionError, match="does not match times"):
            line_plot(str(tmp_path / "x.svg"), np.zeros(4), np.zeros((1, 3)), ["c"])

    def test_rejects_misaligned_band_and_labels(self, tmp_path):
        times = np.linspace(0.0, 1.0, 5)
        curves = np.zeros((2, 5))
        with pytest.raises(DimensionError, match="does not match times"):
            line_plot(str(tmp_path / "x.svg"), times, curves, ["only one"])
        with pytest.raises(DimensionError, match="do not match curves"):
            line_plot(str(tmp_path / "x.svg"), times, curves, ["a", "b"],
                      bands=(curves[:1], curves[:1]))
        with pytest.raises(ValidationError, match="at least one curve"):
            line_plot(str(tmp_path / "x.svg"), times, np.zeros((0, 5)), [])
        assert not list(tmp_path.iterdir())

    # one time (zero x range), two, a few, many; flat and constant curves
    # (zero y range, at 0 and away from it) beside wavy ones
    @pytest.mark.parametrize("t_count", [1, 2, 5, 200, 3001])
    @pytest.mark.parametrize("curve_count", [1, 3, 7])
    @pytest.mark.parametrize("shape", ["plain", "banded", "flat", "constant"])
    def test_bytes_equal_per_point_writer(self, tmp_path, t_count, curve_count, shape):
        rng = np.random.default_rng(t_count * 10 + curve_count)
        times = np.linspace(0.25, 3.5, t_count)
        curves = np.cumsum(rng.standard_normal((curve_count, t_count)), axis=1)
        if shape == "flat":
            curves = np.zeros((curve_count, t_count))
        elif shape == "constant":
            curves = np.full((curve_count, t_count), -7.25)
        labels = [f"dof{k}" for k in range(curve_count)]
        bands = None
        if shape != "plain":
            spread = np.abs(rng.standard_normal((curve_count, t_count)))
            if shape == "flat":
                spread[:] = 0.0
            bands = (curves - spread, curves + spread)
        line_plot(str(tmp_path / "new.svg"), times, curves, labels, bands=bands,
                  title="mean +/- 2 sigma")
        reference.line_plot(
            str(tmp_path / "old.svg"), times, list(zip(labels, curves)),
            bands=None if bands is None else list(zip(*bands)), title="mean +/- 2 sigma")
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()
