"""File formats: long-CSV datasets, JSON model bundles, CSV results.

This is the one module that reads or writes the program's files, and a
record's file form is its fields, in UTF-8 whatever the locale. A record
stored as JSON (_to_json) is the object of its dataclass's init fields in
field order; a CSV of records (record_writer) has one column per field.

The dataset format is one row per (observation, sensor, time) sample with
header obs_id,sensor_id,time,value; every curve must cover the same time
grid. Fitted models are stored as a single JSON document with a schema
version; floats survive the round trip exactly because Python serializes
them with shortest-repr precision.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, islice, repeat
from typing import get_origin, get_type_hints

import numpy as np

from mfclust.em import FitResult, MixtureParams
from mfclust.fpca import CoefficientMatrix, FunctionalDataSet, SensorFpcaModel, reconstruct
from mfclust.select import SelectionRow
from mfclust.simbench import BASIS, GRID, M_TRUE, PROPORTIONS, BenchmarkRow, SimulationDesign

SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """A file failed structural validation."""


def _write_csv(path, header: list[str], rows) -> None:
    """A CSV file of the header, then each row of the iterable rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


# ---------------------------------------------------------------------------
# long CSV datasets

_HEADER = ["obs_id", "sensor_id", "time", "value"]


def write_long_csv(data: FunctionalDataSet, path) -> None:
    _write_csv(path, _HEADER, (
        [obs, sensor, repr(float(t)), repr(float(value))]
        for obs, curves in zip(data.obs_ids, data.values)
        for sensor, curve in zip(data.sensor_names, curves)
        for t, value in zip(data.times, curve)
    ))


def read_long_csv(path) -> FunctionalDataSet:
    """Assemble a dataset from long rows, insisting on a rectangular grid.

    The file follows Python's csv dialect: a quoted field may hold commas,
    quotes and line breaks, and LF, CRLF and CR line ends are all read.
    Rows may come in any order; blank lines are skipped. Observations and
    sensors keep their order of first appearance and times are sorted. A bad
    header, wrong field count, non-numeric field or non-finite time or
    value raises DataFormatError naming its line (the number of its csv
    record), and so does a record csv cannot parse, such as one with a
    field longer than csv.field_size_limit(). Repeated cells (the first in
    file order) and missing cells (the first 10) are found after parsing,
    so a later line's parse error is reported before an earlier repeat.

    The text is read and converted a block of lines at a time
    (read_long_columns); a block that fails a check is read again row by
    row, so the first bad row in file order is the one reported. Memory
    grows with the number of rows, at about 40 bytes per row, never with
    the grid.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(fh)
        if header != _HEADER:
            raise DataFormatError(f"expected header {','.join(_HEADER)}, got {header}")
        (obs_order, sensor_order, time_order), (obs_col, sensor_col, time_col, value_col) = (
            read_long_columns(fh)
        )

    if not value_col:
        raise DataFormatError("no data rows")
    # times got ids in order of appearance: sort the few distinct ones and rank them
    by_value = np.argsort(time_order)
    times = np.asarray(time_order)[by_value]
    rank = np.empty(len(times), np.intc)
    rank[by_value] = np.arange(len(times))
    time_idx = rank[np.frombuffer(time_col, np.intc)]
    shape = (len(obs_order), len(sensor_order), len(times))
    cell_idx = (np.frombuffer(obs_col, np.intc), np.frombuffer(sensor_col, np.intc), time_idx)
    flat = np.ravel_multi_index(cell_idx, shape)
    n_cells = math.prod(shape)
    # every array below holds at most one entry per row, however large the grid
    if len(flat) == n_cells:
        filled = np.zeros(n_cells, dtype=bool)
        filled[flat] = True
    if len(flat) != n_cells or not filled.all():
        cells, first = np.unique(flat, return_index=True)
        if len(cells) < len(flat):
            # the first row that is not the first of its cell repeats an earlier row
            r = np.setdiff1d(np.arange(len(flat)), first, assume_unique=True)[0]
            raise DataFormatError(
                f"duplicate sample for ({obs_order[obs_col[r]]}, {sensor_order[sensor_col[r]]}, "
                f"{time_order[time_col[r]]})"
            )
        # with no repeats, the first 10 missing cells lie below len(cells) + 10
        head = np.arange(min(n_cells, len(cells) + 10))
        missing = np.unravel_index(np.setdiff1d(head, cells, assume_unique=True)[:10], shape)
        listed = ", ".join(f"({obs_order[i]}, {sensor_order[s]}, {times[k]:g})" for i, s, k in zip(*missing))
        raise DataFormatError(f"incomplete grid; first missing cells: {listed}")

    values = np.empty(shape)
    values.flat[flat] = np.frombuffer(value_col)
    return FunctionalDataSet(times=times, values=values, sensor_names=sensor_order, obs_ids=obs_order)


def read_long_columns(fh) -> tuple[tuple[list, list, list], tuple[array, ...]]:
    """Parse the long rows after the header into columns, a block at a time.

    Returns the obs ids, sensor ids and times in order of first appearance,
    and four columns with one entry per row: the int positions of its obs,
    sensor and time in those lists, and its float value. Only these outlive
    the call, so the grid is built from about 20 bytes per row.
    """
    obs_index: dict[str, int] = {}
    sensor_index: dict[str, int] = {}
    time_index: dict[float, int] = {}
    obs_col, sensor_col, time_col = array("i"), array("i"), array("i")
    value_col = array("d")
    for obs, sensors, t, v in read_csv_blocks(fh, 4, read_long_fields):
        block_times, time_ids = np.unique(t, return_inverse=True)
        obs_col.frombytes(read_ids(obs_index, obs).tobytes())
        sensor_col.frombytes(read_ids(sensor_index, sensors).tobytes())
        time_col.frombytes(read_ids(time_index, block_times.tolist())[time_ids].tobytes())
        value_col.frombytes(v.tobytes())
    return (list(obs_index), list(sensor_index), list(time_index)), (obs_col, sensor_col, time_col, value_col)


def read_long_fields(fields: list[str], width: int) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Obs ids, sensor ids, times and values of long rows' flat fields.

    A converter of read_csv_blocks: its ValueError message describes the
    first row of fields, so it is exact for the single row read_block gives.
    """
    n = len(fields) // width
    try:
        t = np.fromiter(map(float, fields[2::width]), float, n)
        v = np.fromiter(map(float, fields[3::width]), float, n)
    except ValueError:
        raise ValueError(f"non-numeric time or value ({fields[2]!r}, {fields[3]!r})") from None
    if not np.isfinite(t).all():
        raise ValueError(f"non-finite time {fields[2]!r}")
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite value {fields[3]!r}")
    return fields[0::width], fields[1::width], t, v


def read_ids(index: dict, keys: list) -> np.ndarray:
    """Integer ids of keys; a key new to index gets the next id."""
    for key in dict.fromkeys(keys):
        index.setdefault(key, len(index))
    return np.fromiter(map(index.__getitem__, keys), np.intc, len(keys))


# ---------------------------------------------------------------------------
# csv records, a block at a time

_BLOCK = 1 << 15  # characters of lines read per block


def read_csv_blocks(fh, width: int, convert):
    """Convert the csv records that follow a header, a block at a time.

    Yields convert(fields, width) for each block that holds a non-blank
    record, where fields is the flat list of the fields of its non-blank
    records; read_block says what happens when a block fails. Records are
    numbered from 1 for the header. A record csv cannot parse raises
    DataFormatError naming it, after the block of the records before it.

    A block with no quote has one record per line, and str methods split
    it. From the first block with a quote on, one csv.reader reads the rest
    of the file, a block of records at a time. So does a block with a NUL
    (which csv rejects before Python 3.11) or one long enough to hold a
    field over csv.field_size_limit(), so that csv finds its own errors.
    """
    lineno = 2
    while lines := fh.readlines(_BLOCK):
        text = "".join(lines)
        if '"' in text or "\0" in text or len(text) > csv.field_size_limit():
            break
        records = list(filter(None, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))
        if records:
            even = set(map(str.count, records, repeat(","))) == {width - 1}
            fields = ",".join(records).split(",") if even else None
            yield read_block(csv.reader(lines), lineno, fields, width, convert)
        lineno += len(lines)
    if not lines:
        return
    reader = csv.reader(chain(lines, fh))
    while True:
        rows, error = [], None
        try:
            for row in islice(reader, len(lines)):
                rows.append(row)
        except csv.Error as exc:
            error = DataFormatError(f"line {lineno + len(rows)}: {exc}")
        if records := list(filter(None, rows)):
            even = set(map(len, records)) == {width}
            fields = list(chain.from_iterable(records)) if even else None
            yield read_block(rows, lineno, fields, width, convert)
        if error:
            raise error
        if not rows:
            return
        lineno += len(rows)


def read_block(rows, lineno: int, fields: list[str] | None, width: int, convert):
    """convert(fields, width) for one block; fields is None when a record
    has the wrong field count. A failing block is converted again row by
    row (blank rows are empty lists, numbered from lineno): the first bad
    row raises DataFormatError "line N: <message>", and if none fails on
    its own, the block's ValueError is raised."""
    try:
        if fields is None:
            raise ValueError("a record has the wrong field count")
        return convert(fields, width)
    except ValueError:
        for lineno, row in enumerate(rows, start=lineno):
            try:
                if row and len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                if row:
                    convert(row, width)
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from None
        raise


def read_header(fh) -> list[str] | None:
    """The first csv record of fh, None for an empty file; one that csv
    cannot parse raises DataFormatError naming line 1."""
    try:
        return next(csv.reader(fh), None)
    except csv.Error as exc:
        raise DataFormatError(f"line 1: {exc}") from None


# ---------------------------------------------------------------------------
# score matrices


def write_scores_csv(B: CoefficientMatrix, path, obs_ids: list[str]) -> None:
    """Score CSV with one column <sensor>_pc<l> per component, sensor-major.

    An empty sensor name gives columns that read_scores_csv rejects, so it
    raises DataFormatError before the file is opened.
    """
    if "" in B.sensor_names:
        raise DataFormatError("score columns need non-empty sensor names, got an empty sensor_id")
    if len(obs_ids) != B.n:
        raise ValueError("obs_ids length must match the score rows")
    header = ["obs_id"] + [f"{name}_pc{l + 1}" for name in B.sensor_names for l in range(B.q_c)]
    _write_csv(path, header, ([obs] + [repr(float(x)) for x in row] for obs, row in zip(obs_ids, B.scores)))


def read_scores_csv(path) -> tuple[CoefficientMatrix, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = read_header(fh)
        if not header or header[0] != "obs_id":
            raise DataFormatError("scores file must start with an obs_id column")
        names, comps = [], []
        for col in header[1:]:
            name, _, pc = col.rpartition("_pc")
            if not name or not pc.isdigit():
                raise DataFormatError(f"bad score column name {col!r}")
            names.append(name)
            comps.append(int(pc))
        if not names:
            raise DataFormatError("scores file has no score columns")
        q_c = max(comps)
        sensor_names = list(dict.fromkeys(names))
        expected = [f"{n}_pc{l + 1}" for n in sensor_names for l in range(q_c)]
        if header[1:] != expected:
            raise DataFormatError("score columns must be sensor-major, component-minor")
        obs_ids, blocks = [], []
        for ids, scores in read_csv_blocks(fh, len(header), read_score_fields):
            obs_ids += ids
            blocks.append(scores)
    if not blocks:
        raise DataFormatError("no data rows")
    seen = set()
    for obs in obs_ids:
        if obs in seen:
            raise DataFormatError(f"duplicate obs_id {obs!r}")
        seen.add(obs)
    return CoefficientMatrix(scores=np.concatenate(blocks), q_c=q_c, sensor_names=sensor_names), obs_ids


def read_score_fields(fields: list[str], width: int) -> tuple[list, np.ndarray]:
    """Obs ids and (rows, width - 1) scores of score rows' flat fields,
    which lose their ids; a converter like read_long_fields."""
    obs_ids = fields[0::width]
    del fields[0::width]
    try:
        scores = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        raise ValueError("non-numeric score") from None
    if not np.isfinite(scores).all():
        raise ValueError("non-finite score")
    return obs_ids, scores.reshape(-1, width - 1)


# ---------------------------------------------------------------------------
# model bundles


@dataclass
class ModelBundle:
    """Everything needed to reapply a fitted pipeline."""

    fpca_models: list[SensorFpcaModel] | None = None
    mixture: MixtureParams | None = None
    selection_rows: list[SelectionRow] | None = None
    chosen: tuple[int, float, float, str] | None = None
    removed_sensors: list[str] | None = None


_CHOSEN = ("m", "lam", "gamma", "kind")  # the keys of a bundle's chosen grid point


def _to_json(value):
    """The JSON form of a value: a dataclass is the object of its init
    fields, in field order; an array, tuple or list is a list."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


def _from_json(kind, value):
    """The value of type kind whose _to_json form is value. A dataclass is
    built from its init fields, each as its annotated type (a field value
    lacks keeps its default); an array, tuple, int or float is rebuilt
    from its JSON; any other value is returned as it is."""
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        return kind(**{f.name: _from_json(hints[f.name], value[f.name])
                       for f in fields(kind) if f.init and f.name in value})
    if kind is np.ndarray:
        return np.asarray(value)
    if get_origin(kind) is tuple:
        return tuple(value)
    return kind(value) if kind in (int, float) else value


def write_model(bundle: ModelBundle, path) -> None:
    """The bundle as one JSON document; the mixture's object starts with
    its cluster count m and ends with its zero_mask."""
    models, mixture, chosen = bundle.fpca_models, bundle.mixture, bundle.chosen
    doc = {
        "schema_version": SCHEMA_VERSION,
        "fpca": None if models is None else {"q_c": models[0].q_c, "sensors": _to_json(models)},
        "mixture": None if mixture is None else {
            "m": mixture.m, **_to_json(mixture), "zero_mask": _to_json(mixture.zero_mask)
        },
        "selection_table": _to_json(bundle.selection_rows),
        "chosen": None if chosen is None else dict(zip(_CHOSEN, chosen)),
        "removed_sensors": bundle.removed_sensors,
    }
    _write_json(path, doc)


def read_model(path) -> ModelBundle:
    """The ModelBundle of a model file. Raises DataFormatError, naming the
    problem, for a file that is not JSON, is of another schema version or
    lacks the structure write_model gives it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupted model file: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"model file must hold a JSON object, not a {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataFormatError(
            f"model schema version {version!r} not supported (expected {SCHEMA_VERSION})"
        )
    try:
        bundle = ModelBundle(removed_sensors=doc.get("removed_sensors"))
        if doc.get("fpca") is not None:
            bundle.fpca_models = [_from_json(SensorFpcaModel, o) for o in doc["fpca"]["sensors"]]
            q_c = doc["fpca"]["q_c"]
            for model in bundle.fpca_models:
                if model.q_c != q_c:
                    raise DataFormatError(
                        f"fpca q_c is {q_c}, but sensor {model.sensor!r} has {model.q_c} eigenfunctions"
                    )
        if doc.get("mixture") is not None:
            bundle.mixture = _from_json(MixtureParams, doc["mixture"])
            if not np.array_equal(np.asarray(doc["mixture"]["zero_mask"], dtype=bool), bundle.mixture.zero_mask):
                raise DataFormatError("mixture zero_mask must mark exactly the zero means")
        if doc.get("selection_table") is not None:
            bundle.selection_rows = [_from_json(SelectionRow, r) for r in doc["selection_table"]]
        if doc.get("chosen") is not None:
            bundle.chosen = tuple(doc["chosen"][key] for key in _CHOSEN)
    except KeyError as exc:
        raise DataFormatError(f"malformed model file: missing key {exc}") from None
    except TypeError as exc:
        raise DataFormatError(f"malformed model file: {exc}") from None
    return bundle


# ---------------------------------------------------------------------------
# assignments and benchmark results


def write_assignments(fit: FitResult, path, obs_ids: list[str]) -> None:
    """CSV of hard labels plus one responsibility column per cluster."""
    n, m = fit.responsibilities.shape
    if len(obs_ids) != n:
        raise ValueError("obs_ids length must match the fitted observations")
    _write_csv(path, ["obs_id", "label"] + [f"resp_{k + 1}" for k in range(m)], (
        [obs, int(label)] + [repr(float(r)) for r in resp]
        for obs, label, resp in zip(obs_ids, fit.hard_labels, fit.responsibilities)
    ))


def write_removed(sensors: list[str], path) -> None:
    """The removed sensors' names, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(name + "\n" for name in sensors)


@contextmanager
def record_writer(cls, path):
    """Stream cls records to a CSV with one column per field, named in the
    header. Yields the function that writes one record as a row. The file
    is line-buffered, so each row reaches it as it is written and an
    interrupted run leaves a valid partial file."""
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="", encoding="utf-8", buffering=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        yield lambda record: writer.writerow([getattr(record, name) for name in names])


def write_benchmark_rows(rows: list[BenchmarkRow], path) -> None:
    with record_writer(BenchmarkRow, path) as write:
        for row in rows:
            write(row)


def write_cluster_means(models: list[SensorFpcaModel], mixture: MixtureParams, path) -> None:
    """Tidy CSV of per-cluster mean curves, one row per (sensor, cluster, time).

    Cluster k's mean curve for a sensor is the sensor mean function plus
    the component functions weighted by that cluster's score means, in the
    sensor's standardized units.
    """
    _write_csv(path, ["sensor_id", "cluster", "time", "value"], (
        [model.sensor, k, repr(float(t)), repr(float(v))]
        for s, model in enumerate(models)
        for k, means in enumerate(mixture.means[:, s * model.q_c : (s + 1) * model.q_c])
        for t, v in zip(model.times, reconstruct(model, means))
    ))


def write_truth(design: SimulationDesign, data: FunctionalDataSet, path) -> None:
    """Companion file for simulated datasets: labels, the sensor split, and
    the design with the frozen population's fixed settings."""
    doc = {
        "labels": data.labels.tolist(),
        "obs_ids": data.obs_ids,
        "signal_sensors": design.signal_sensor_names,
        "noise_sensors": design.noise_sensor_names,
        "design": {
            **_to_json(design),
            "m_true": M_TRUE,
            "proportions": list(PROPORTIONS),
            "n_basis": BASIS.n_basis,
            "order": BASIS.order,
            "domain": [BASIS.domain_lo, BASIS.domain_hi],
            "n_times": GRID.size,
        },
    }
    _write_json(path, doc)
