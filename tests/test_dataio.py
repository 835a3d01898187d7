import csv
import itertools
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mfclust import dataio
from mfclust.basis import build_basis
from mfclust.dataio import (
    DataFormatError,
    ModelBundle,
    read_long_csv,
    read_model,
    read_scores_csv,
    write_assignments,
    write_benchmark_rows,
    write_long_csv,
    write_model,
    write_scores_csv,
    write_truth,
)
from mfclust.em import MixtureParams, PenaltySpec, e_step, run_em
from mfclust.fpca import CoefficientMatrix, FunctionalDataSet, fit_fpca, transform
from mfclust.select import SearchGrid, model_search
from mfclust.simbench import default_design, generate_dataset, run_scenario


def small_dataset(seed=0, n=25, p_noise=2):
    design = default_design(n=n, p_noise=p_noise, seed=seed)
    return design, generate_dataset(design)


def test_long_csv_small_complete(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "obs_id,sensor_id,time,value\n"
        "a,s1,0,1.0\na,s1,1,2.0\na,s1,2,3.0\n"
        "b,s1,0,4.0\nb,s1,1,5.0\nb,s1,2,6.0\n"
    )
    data = read_long_csv(path)
    assert (data.n, data.p, data.n_times) == (2, 1, 3)
    assert data.obs_ids == ["a", "b"]
    npt.assert_allclose(data.values[1, 0], [4.0, 5.0, 6.0])


def test_long_csv_missing_cell_named(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "obs_id,sensor_id,time,value\n"
        "a,s1,0,1.0\na,s1,1,2.0\n"
        "b,s1,0,4.0\nb,s1,1,5.0\nb,s1,2,6.0\n"
    )
    with pytest.raises(DataFormatError, match=r"\(a, s1, 2\)"):
        read_long_csv(path)


def test_long_csv_duplicate_and_bad_values(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("obs_id,sensor_id,time,value\na,s1,0,1.0\na,s1,0,2.0\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        read_long_csv(dup)
    bad = tmp_path / "bad.csv"
    bad.write_text("obs_id,sensor_id,time,value\na,s1,zero,1.0\n")
    with pytest.raises(DataFormatError, match="non-numeric"):
        read_long_csv(bad)
    hdr = tmp_path / "hdr.csv"
    hdr.write_text("obs,sensor,time,value\na,s1,0,1.0\n")
    with pytest.raises(DataFormatError, match="header"):
        read_long_csv(hdr)


def test_long_csv_rows_in_any_order(tmp_path):
    rng = np.random.default_rng(12)
    samples = {
        (obs, sensor, t): float(rng.standard_normal())
        for obs in ("o1", "o2", "o3") for sensor in ("s1", "s2") for t in (0.0, 0.5, 1.5, 3.0)
    }
    rows = list(samples)
    rng.shuffle(rows)
    path = tmp_path / "shuffled.csv"
    path.write_text(
        "obs_id,sensor_id,time,value\n"
        + "".join(f"{o},{s},{t!r},{samples[o, s, t]!r}\n" for o, s, t in rows)
    )
    data = read_long_csv(path)
    assert data.obs_ids == list(dict.fromkeys(o for o, _, _ in rows))
    assert data.sensor_names == list(dict.fromkeys(s for _, s, _ in rows))
    npt.assert_array_equal(data.times, [0.0, 0.5, 1.5, 3.0])
    for i, obs in enumerate(data.obs_ids):
        for s, sensor in enumerate(data.sensor_names):
            expected = [samples[obs, sensor, t] for t in data.times]
            npt.assert_array_equal(data.values[i, s], expected)


def test_long_csv_lists_first_ten_missing_cells_in_order(tmp_path):
    # obs first appear as z, a, m; a.s2 misses 4 times, m.s1 misses 2,
    # m.s2 misses all 5, z misses none; only the first 10 of 11 are listed
    absent = {("a", "s2", t) for t in (0.5, 1, 2, 3)} | {("m", "s1", 1), ("m", "s1", 3)}
    absent |= {("m", "s2", t) for t in (0, 0.5, 1, 2, 3)}
    lines = [
        f"{o},{s},{t},1.0\n"
        for o in ("z", "a", "m") for s in ("s1", "s2") for t in (0, 0.5, 1, 2, 3)
        if (o, s, t) not in absent
    ]
    path = tmp_path / "gaps.csv"
    path.write_text("obs_id,sensor_id,time,value\n" + "".join(lines))
    with pytest.raises(DataFormatError) as exc:
        read_long_csv(path)
    assert str(exc.value) == (
        "incomplete grid; first missing cells: (a, s2, 0.5), (a, s2, 1), (a, s2, 2), "
        "(a, s2, 3), (m, s1, 1), (m, s1, 3), (m, s2, 0), (m, s2, 0.5), (m, s2, 1), (m, s2, 2)"
    )


def own_times_csv(path, n_obs, n_sensors, n_times):
    """Write a long CSV whose every curve is sampled on its own times."""
    lines = [
        f"o{i},s{s},{(i * n_sensors + s) * n_times + k},1.0\n"
        for i in range(n_obs) for s in range(n_sensors) for k in range(n_times)
    ]
    path.write_text("obs_id,sensor_id,time,value\n" + "".join(lines))


def test_long_csv_curves_on_own_times_are_incomplete(tmp_path):
    # curve (o0, s0) has times 0-2, (o0, s1) 3-5, ...: o0.s0 misses 3-11,
    # o0.s1 misses 0 first
    path = tmp_path / "own.csv"
    own_times_csv(path, 2, 2, 3)
    with pytest.raises(DataFormatError) as exc:
        read_long_csv(path)
    assert str(exc.value) == (
        "incomplete grid; first missing cells: (o0, s0, 3), (o0, s0, 4), (o0, s0, 5), "
        "(o0, s0, 6), (o0, s0, 7), (o0, s0, 8), (o0, s0, 9), (o0, s0, 10), (o0, s0, 11), "
        "(o0, s1, 0)"
    )


def test_long_csv_memory_follows_rows_not_grid(tmp_path):
    # 5,000 rows on a 40 x 5 x 5,000 grid of a million cells: a reader that
    # allocates per grid cell takes megabytes, one that allocates per row does not
    path = tmp_path / "own.csv"
    own_times_csv(path, 40, 5, 25)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="incomplete grid"):
            read_long_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_long_csv_memory_per_row_of_a_complete_file(tmp_path):
    # 100,000 rows on a complete 100 x 25 x 40 grid: the reader keeps 20
    # bytes of columns per row and builds the grid from them, about 43 bytes
    # per row in all; sorting a float time per row would take about 65
    lines = [
        f"obs{i},s{s},{k * 0.25!r},{i + s / 32 + k / 1024!r}\n"
        for i in range(100) for s in range(25) for k in range(40)
    ]
    path = tmp_path / "complete.csv"
    path.write_text("obs_id,sensor_id,time,value\n" + "".join(lines))
    tracemalloc.start()
    try:
        data = read_long_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.values.shape == (100, 25, 40)
    assert peak < 55 * 100_000


def reference_read_long_csv(path):
    """read_long_csv's checks and messages, one csv.reader row at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["obs_id", "sensor_id", "time", "value"]
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
            obs, sensor, time_s, value_s = row
            try:
                t, v = float(time_s), float(value_s)
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: non-numeric time or value ({time_s!r}, {value_s!r})"
                ) from None
            if not np.isfinite(t):
                raise DataFormatError(f"line {lineno}: non-finite time {time_s!r}")
            samples.append((obs, sensor, t, v))
    if not samples:
        raise DataFormatError("no data rows")
    cells = {}
    for obs, sensor, t, v in samples:
        if (obs, sensor, t) in cells:
            raise DataFormatError(f"duplicate sample for ({obs}, {sensor}, {t})")
        cells[obs, sensor, t] = v
    obs_ids = list(dict.fromkeys(obs for obs, _, _, _ in samples))
    sensors = list(dict.fromkeys(sensor for _, sensor, _, _ in samples))
    times = sorted({t for _, _, t, _ in samples})
    grid = list(itertools.product(obs_ids, sensors, times))
    missing = [cell for cell in grid if cell not in cells]
    if missing:
        listed = ", ".join(f"({o}, {s}, {t:g})" for o, s, t in missing[:10])
        raise DataFormatError(f"incomplete grid; first missing cells: {listed}")
    values = np.array([cells[cell] for cell in grid]).reshape(len(obs_ids), len(sensors), len(times))
    return values, np.array(times), sensors, obs_ids


def block_edge_text(case, tmp_path):
    """A long CSV for one case of the block test, and the start of the
    message it must raise (None if it must read)."""
    rows = [
        f"o{i},s{s},{t},{i * 100 + s * 10 + k}.5"
        for i in range(1, 4) for s in (1, 2) for k, t in enumerate(("0", "0.5", "1", "2"))
    ]
    # runs of blank lines, some of which a block boundary splits
    rows[5:5] = rows[12:12] = ["", ""]
    rows.insert(1, "")
    end = {"crlf": "\r\n", "cr": "\r"}.get(case, "\n")
    header = "obs_id,sensor_id,time,value" + end
    if case in ("quoted-late", "bad-row-after-quote"):
        # its only quoted id comes last, so the first quote lies in a later block
        obs_ids = ["o1", "o2", 'q,"x"\ny']
        values = np.arange(len(obs_ids) * 2 * 4, dtype=float).reshape(len(obs_ids), 2, 4)
        path = tmp_path / "quoted.csv"
        write_long_csv(FunctionalDataSet([0, 0.5, 1, 2], values, ["s1", "s2"], obs_ids), path)
        with open(path, newline="") as fh:
            head, quote, tail = fh.read().partition('"')
        # blank lines after the first quoted record
        text = head + quote + tail.replace("\r\n", "\r\n\r\n\r\n", 1)
        if case == "quoted-late":
            return text + "\r\n\r\n", None
        return text + "o1,s1,abc,1.0\r\n", "line 28: non-numeric"
    expected = {
        "bad-row-late": ("o3,s2,1,oops", "line 29: non-numeric"),
        "ragged-late": ("o3,s2,1", "line 29: expected 4 fields"),
        "non-finite-late": ("o3,s2,inf,1.0", "line 29: non-finite time"),
    }
    message = None
    if case in expected:
        rows[-2], message = expected[case]
    elif case == "duplicate":
        rows.append(rows[3])
        message = "duplicate sample"
    elif case == "missing":
        del rows[-1]
        message = "incomplete grid"
    return header + end.join(rows) + end, message


@pytest.mark.parametrize("block", [1, 16, 64])
@pytest.mark.parametrize(
    "case",
    ["lf", "crlf", "cr", "quoted-late", "bad-row-late", "bad-row-after-quote",
     "ragged-late", "non-finite-late", "duplicate", "missing"],
)
def test_long_csv_blocks_read_as_rows(tmp_path, monkeypatch, case, block):
    text, message = block_edge_text(case, tmp_path)
    path = tmp_path / "blocks.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    monkeypatch.setattr(dataio, "_BLOCK", block)
    if message is None:
        values, times, sensors, obs_ids = reference_read_long_csv(path)
        data = read_long_csv(path)
        npt.assert_array_equal(data.values, values)
        npt.assert_array_equal(data.times, times)
        assert (data.sensor_names, data.obs_ids) == (sensors, obs_ids)
        return
    with pytest.raises(DataFormatError) as expected:
        reference_read_long_csv(path)
    assert str(expected.value).startswith(message)
    with pytest.raises(DataFormatError) as exc:
        read_long_csv(path)
    assert str(exc.value) == str(expected.value)


@pytest.mark.parametrize("block", [1, 16, 64])
def test_scores_csv_blocks_read_quoted_ids(tmp_path, monkeypatch, block):
    B = CoefficientMatrix(np.arange(24, dtype=float).reshape(8, 3) / 8, q_c=3, sensor_names=["s"])
    path = tmp_path / "scores.csv"
    monkeypatch.setattr(dataio, "_BLOCK", block)
    for quoted in (1, 7):
        obs_ids = list("abcdefgh")
        obs_ids[quoted] = 'c,"d"\r\ne'
        write_scores_csv(B, path, obs_ids=obs_ids)
        back, back_ids = read_scores_csv(path)
        npt.assert_array_equal(back.scores, B.scores)
        assert back_ids == obs_ids
        # a bad row g in a later block is record 8, whether the quoted
        # record spanning two lines comes before it or after it
        head, _, tail = path.read_bytes().decode().partition("\r\ng,")
        for bad_row, message in [
            ("g,0.5,x,1.0", "line 8: non-numeric score"),
            ("g,0.5,inf,1.0", "line 8: non-finite score"),
            ("g,0.5,1.0", "line 8: expected 4 fields, got 3"),
        ]:
            path.write_bytes((head + "\r\n" + bad_row + tail[tail.index("\r\n"):]).encode())
            with pytest.raises(DataFormatError) as exc:
                read_scores_csv(path)
            assert str(exc.value) == message


@pytest.mark.parametrize("block", [1, 64, 1 << 15])
@pytest.mark.parametrize("line_3,message", [
    ("a,s1,1,2.0\n", "line 6: field larger than field limit"),
    ("a,s1,1,x\n", "line 3: non-numeric time or value"),
], ids=["long-field", "bad-row-first"])
def test_long_csv_field_over_the_csv_limit_names_its_line(tmp_path, monkeypatch, block, line_3, message):
    # the first bad row in file order is reported, whether or not csv
    # stops at a later one in the same block
    path = tmp_path / "long.csv"
    rows = ["a,s1,0,1.0\n", line_3, "b,s1,0,1.0\n", "b,s1,1,2.0\n"]
    path.write_text("obs_id,sensor_id,time,value\n" + "".join(rows) + "x" * 140_000 + ",s1,0,1.0\n")
    monkeypatch.setattr(dataio, "_BLOCK", block)
    with pytest.raises(DataFormatError, match=message):
        read_long_csv(path)


@pytest.mark.parametrize("reader,header", [
    (read_long_csv, "obs_id,sensor_id,time,"), (read_scores_csv, "obs_id,s_pc1,"),
], ids=["long", "scores"])
def test_a_header_field_over_the_csv_limit_is_line_1(tmp_path, reader, header):
    path = tmp_path / "header.csv"
    path.write_text(header + "v" * 140_000 + "\n")
    with pytest.raises(DataFormatError, match="line 1: field larger than field limit"):
        reader(path)


def test_long_csv_reports_first_repeat_in_file_order(tmp_path):
    path = tmp_path / "repeats.csv"
    path.write_text(
        "obs_id,sensor_id,time,value\n"
        "a,s1,0,1.0\na,s1,1,2.0\nb,s1,1,3.0\nb,s1,0,4.0\n"
        "b,s1,1.0,5.0\na,s1,0,6.0\n"
    )
    with pytest.raises(DataFormatError) as exc:
        read_long_csv(path)
    assert str(exc.value) == "duplicate sample for (b, s1, 1.0)"


def test_long_csv_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "fields.csv"
    path.write_text("obs_id,sensor_id,time,value\na,s1,0,1.0\na,s1,1\n")
    with pytest.raises(DataFormatError) as exc:
        read_long_csv(path)
    assert str(exc.value) == "line 3: expected 4 fields, got 3"


def test_long_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("obs_id,sensor_id,time,value\n\na,s1,0,1.0\n\n\na,s1,1,2.0\n\n")
    data = read_long_csv(path)
    npt.assert_array_equal(data.values, [[[1.0, 2.0]]])
    npt.assert_array_equal(data.times, [0.0, 1.0])


def test_long_csv_header_only_has_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("obs_id,sensor_id,time,value\n\n")
    with pytest.raises(DataFormatError) as exc:
        read_long_csv(path)
    assert str(exc.value) == "no data rows"


@pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
def test_long_csv_rejects_non_finite_time(tmp_path, time):
    path = tmp_path / "times.csv"
    path.write_text(
        "obs_id,sensor_id,time,value\n"
        f"a,s1,0,1.0\na,s1,{time},2.0\na,s1,2,3.0\n"
        f"b,s1,0,4.0\nb,s1,{time},5.0\nb,s1,2,6.0\n"
    )
    with pytest.raises(DataFormatError, match=r"line 3: non-finite time"):
        read_long_csv(path)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_scores_csv_rejects_non_finite_score(tmp_path, score):
    path = tmp_path / "scores.csv"
    path.write_text(f"obs_id,s1_pc1,s1_pc2\na,0.5,1.0\nb,{score},2.0\nc,1.5,0.0\n")
    with pytest.raises(DataFormatError, match=r"line 3: non-finite score"):
        read_scores_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("a,0.5,1.0\nb,2.0\nc,1.5,0.0\n", "line 3: expected 3 fields, got 2"),
        ("a,0.5,1.0\n\nc,1.5,0.0,4.0\n", "line 4: expected 3 fields, got 4"),
        ("", "no data rows"),
        ("\n\n", "no data rows"),
    ],
    ids=["short-row", "long-row", "header-only", "blank-lines-only"],
)
def test_scores_csv_rejects_ragged_and_empty(tmp_path, body, message):
    path = tmp_path / "scores.csv"
    path.write_text("obs_id,s1_pc1,s1_pc2\n" + body)
    with pytest.raises(DataFormatError) as exc:
        read_scores_csv(path)
    assert str(exc.value) == message


def test_long_csv_round_trip(tmp_path):
    _, data = small_dataset(seed=1)
    path = tmp_path / "round.csv"
    write_long_csv(data, path)
    back = read_long_csv(path)
    npt.assert_array_equal(back.values, data.values)
    npt.assert_array_equal(back.times, data.times)
    assert back.sensor_names == data.sensor_names


def test_scores_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    blocks = [rng.standard_normal((6, 2)), rng.standard_normal((6, 2))]
    B = CoefficientMatrix(np.concatenate(blocks, axis=1), q_c=2, sensor_names=["alpha", "beta"])
    path = tmp_path / "scores.csv"
    write_scores_csv(B, path, obs_ids=[f"o{i}" for i in range(6)])
    back, obs_ids = read_scores_csv(path)
    npt.assert_array_equal(back.scores, B.scores)
    assert back.sensor_names == ["alpha", "beta"] and back.q_c == 2
    assert obs_ids == [f"o{i}" for i in range(6)]


def test_scores_csv_rejects_a_repeated_obs_id(tmp_path):
    # the first row that repeats an earlier id is named, not the first id repeated
    path = tmp_path / "scores.csv"
    path.write_text("obs_id,s1_pc1\na,0.5\nb,1.0\nc,2.0\nb,3.0\na,4.0\n")
    with pytest.raises(DataFormatError) as exc:
        read_scores_csv(path)
    assert str(exc.value) == "duplicate obs_id 'b'"


def test_scores_csv_refuses_obs_ids_of_another_length(tmp_path):
    B = CoefficientMatrix(np.zeros((4, 2)), q_c=2, sensor_names=["s"])
    path = tmp_path / "scores.csv"
    with pytest.raises(ValueError, match="obs_ids length must match the score rows"):
        write_scores_csv(B, path, obs_ids=["a", "b"])
    assert not path.exists()


def test_model_bundle_round_trip_exact(tmp_path):
    design, data = small_dataset(seed=3)
    basis = build_basis(0, 30, 12, 3)
    models, B = fit_fpca(data, basis, q_c=2)
    grid = SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0))
    report = model_search(B, grid, "group", seed=4)
    bundle = ModelBundle.from_report(report, fpca_models=models, q_c=2)

    path = tmp_path / "model.json"
    write_model(bundle, path)
    back = read_model(path)

    npt.assert_array_equal(back.mixture.means, report.best_fit.params.means)
    npt.assert_array_equal(back.mixture.variances, report.best_fit.params.variances)
    npt.assert_array_equal(back.mixture.proportions, report.best_fit.params.proportions)
    npt.assert_array_equal(back.mixture.zero_mask, report.best_fit.params.zero_mask)
    assert back.chosen == report.chosen
    assert len(back.selection_rows) == len(report.rows)
    assert back.selection_rows[0] == report.rows[0]
    for orig, rt in zip(models, back.fpca_models):
        npt.assert_array_equal(rt.mean_coeffs, orig.mean_coeffs)
        npt.assert_array_equal(rt.eigen_coeffs, orig.eigen_coeffs)
        npt.assert_array_equal(rt.eigenvalues, orig.eigenvalues)
        assert rt.standardization == orig.standardization
        assert rt.basis == orig.basis and hash(rt.basis) == hash(orig.basis)


def test_model_round_trip_preserves_hard_labels(tmp_path):
    design, data = small_dataset(seed=5)
    basis = build_basis(0, 30, 12, 3)
    models, B = fit_fpca(data, basis, q_c=2)
    grid = SearchGrid(m_values=(3,), gamma_values=(1.0,), lambda_multipliers=(0.0, 1.0))
    report = model_search(B, grid, "group", seed=6)
    labels_before = report.best_fit.hard_labels

    path = tmp_path / "model.json"
    write_model(ModelBundle.from_report(report, fpca_models=models, q_c=2), path)
    back = read_model(path)

    scores = [transform(m, data.values[:, s, :]) for s, m in enumerate(back.fpca_models)]
    B2 = CoefficientMatrix(np.concatenate(scores, axis=1), q_c=2, sensor_names=data.sensor_names)
    tau, _ = e_step(B2, back.mixture)
    npt.assert_array_equal(tau.argmax(axis=1), labels_before)


def test_model_version_mismatch(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(DataFormatError, match="version"):
        read_model(path)
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    with pytest.raises(DataFormatError, match="corrupted"):
        read_model(corrupt)


def test_model_rejects_zero_mask_disagreeing_with_means(tmp_path):
    mixture = MixtureParams(
        proportions=[0.5, 0.5], means=[[0.0, 1.0], [2.0, 0.0]], variances=[1.0, 1.0]
    )
    path = tmp_path / "model.json"
    write_model(ModelBundle(mixture=mixture), path)
    npt.assert_array_equal(read_model(path).mixture.zero_mask, [[True, False], [False, True]])
    doc = json.loads(path.read_text())
    doc["mixture"]["zero_mask"][0][0] = False
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="zero_mask"):
        read_model(path)


def test_model_rejects_non_finite_mixture(tmp_path):
    mixture = MixtureParams(proportions=[0.5, 0.5], means=[[0.0, 1.0], [2.0, 0.0]], variances=[1.0, 1.0])
    path = tmp_path / "model.json"
    write_model(ModelBundle(mixture=mixture), path)
    doc = json.loads(path.read_text())
    doc["mixture"]["means"][0][1] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="means must be finite"):
        read_model(path)


def read_assignments_csv(path):
    """Obs ids, hard labels and responsibility matrix of an assignments CSV."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[:2] == ["obs_id", "label"]
    labels = np.array([int(r[1]) for r in rows])
    return [r[0] for r in rows], labels, np.array([[float(x) for x in r[2:]] for r in rows])


def test_assignments_single_cluster(tmp_path):
    rng = np.random.default_rng(7)
    from mfclust.fpca import CoefficientMatrix

    B = CoefficientMatrix.from_scores(rng.standard_normal((8, 2)), 1)
    fit = run_em(B, 1, PenaltySpec("none"), seed=0)
    path = tmp_path / "assign.csv"
    write_assignments(fit, path)
    obs_ids, labels, resps = read_assignments_csv(path)
    assert resps.shape == (8, 1)
    npt.assert_allclose(resps, 1.0)
    npt.assert_array_equal(labels, 0)


def test_assignments_round_trip_consistency(tmp_path):
    design, data = small_dataset(seed=8)
    basis = build_basis(0, 30, 12, 3)
    _, B = fit_fpca(data, basis, q_c=2)
    fit = run_em(B, 3, PenaltySpec("none"), seed=9)
    path = tmp_path / "assign.csv"
    write_assignments(fit, path, obs_ids=[f"r{i}" for i in range(B.n)])
    obs_ids, labels, resps = read_assignments_csv(path)
    assert obs_ids[0] == "r0"
    npt.assert_allclose(resps.sum(axis=1), 1.0, atol=1e-8)
    npt.assert_array_equal(resps.argmax(axis=1), labels)
    npt.assert_array_equal(labels, fit.hard_labels)


def test_benchmark_csvs(tmp_path):
    grid = SearchGrid(m_values=(2, 3), gamma_values=(1.0,), lambda_multipliers=(0.0, 2.0))
    rows, _ = run_scenario(
        "signal-strength", reps=1, kinds=("group",), seed=10, levels=(1.5,), grid=grid
    )
    rows_path = tmp_path / "rows.csv"
    write_benchmark_rows(rows, rows_path)
    with open(rows_path) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 1
    assert parsed[0]["kind"] == "group"
    assert float(parsed[0]["mae_m"]) >= 0


def test_write_truth(tmp_path):
    design, data = small_dataset(seed=11)
    path = tmp_path / "truth.json"
    write_truth(design, data, path)
    doc = json.loads(path.read_text())
    assert doc["signal_sensors"] == ["sig01", "sig02"]
    assert len(doc["labels"]) == data.n
    assert doc["design"]["delta"] == design.delta
