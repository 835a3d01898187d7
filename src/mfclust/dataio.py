"""File formats: long-CSV datasets, JSON model bundles, CSV results.

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
from dataclasses import asdict, dataclass
from itertools import chain, islice, repeat

import numpy as np

from mfclust.basis import BasisSpec, build_basis
from mfclust.em import FitResult, MixtureParams
from mfclust.fpca import CoefficientMatrix, FunctionalDataSet, SensorFpcaModel, reconstruct
from mfclust.select import SelectionReport, SelectionRow
from mfclust.simbench import BASIS, GRID, M_TRUE, PROPORTIONS, BenchmarkRow, SimulationDesign

SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """A file failed structural validation."""


# ---------------------------------------------------------------------------
# long CSV datasets

_HEADER = ["obs_id", "sensor_id", "time", "value"]


def write_long_csv(data: FunctionalDataSet, path) -> None:
    obs_ids = data.obs_ids or [str(i) for i in range(data.n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for i, obs in enumerate(obs_ids):
            for s, sensor in enumerate(data.sensor_names):
                for t, value in zip(data.times, data.values[i, s, :]):
                    writer.writerow([obs, sensor, repr(float(t)), repr(float(value))])


def read_long_csv(path) -> FunctionalDataSet:
    """Assemble a dataset from long rows, insisting on a rectangular grid.

    The file follows Python's csv dialect: a quoted field may hold commas,
    quotes and line breaks, and LF, CRLF and CR line ends are all read.
    Rows may come in any order; blank lines are skipped. Observations and
    sensors keep their order of first appearance and times are sorted. A bad
    header, wrong field count, non-numeric field or non-finite time raises
    DataFormatError naming its line (the number of its csv record), and so
    does a record csv cannot parse, such as one with a field longer than
    csv.field_size_limit(). Repeated cells (the first in file order) and
    missing cells (the first 10) are found after parsing, so a later line's
    parse error is reported before an earlier repeat.

    The text is read and converted a block of lines at a time
    (read_long_columns); a block that fails a check is read again row by
    row, so the first bad row in file order is the one reported. Memory
    grows with the number of rows, at about 40 bytes per row, never with
    the grid.
    """
    with open(path, newline="") as fh:
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


def write_scores_csv(B: CoefficientMatrix, path, obs_ids: list[str] | None = None) -> None:
    """Score CSV with one column <sensor>_pc<l> per component, sensor-major.

    An empty sensor name gives columns that read_scores_csv rejects, so it
    raises DataFormatError before the file is opened.
    """
    if "" in B.sensor_names:
        raise DataFormatError("score columns need non-empty sensor names, got an empty sensor_id")
    obs_ids = obs_ids or [str(i) for i in range(B.n)]
    if len(obs_ids) != B.n:
        raise ValueError("obs_ids length must match the score rows")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["obs_id"] + [
            f"{name}_pc{l + 1}" for name in B.sensor_names for l in range(B.q_c)
        ]
        writer.writerow(header)
        for obs, row in zip(obs_ids, B.scores):
            writer.writerow([obs] + [repr(float(x)) for x in row])


def read_scores_csv(path) -> tuple[CoefficientMatrix, list[str]]:
    with open(path, newline="") as fh:
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
    q_c: int | None = None
    mixture: MixtureParams | None = None
    selection_rows: list[SelectionRow] | None = None
    chosen: tuple[int, float, float, str] | None = None
    removed_sensors: list[str] | None = None

    @classmethod
    def from_report(cls, report: SelectionReport, fpca_models=None, q_c=None) -> "ModelBundle":
        return cls(
            fpca_models=fpca_models,
            q_c=q_c,
            mixture=report.best_fit.params,
            selection_rows=report.rows,
            chosen=report.chosen,
            removed_sensors=sorted(report.best_fit.removed_sensors),
        )


def _basis_to_json(basis: BasisSpec) -> dict:
    return {
        "domain_lo": basis.domain_lo,
        "domain_hi": basis.domain_hi,
        "order": basis.order,
        "n_basis": basis.n_basis,
    }


def _sensor_model_to_json(model: SensorFpcaModel) -> dict:
    return {
        "sensor": model.sensor,
        "basis": _basis_to_json(model.basis),
        "times": model.times.tolist(),
        "mean_coeffs": model.mean_coeffs.tolist(),
        "eigen_coeffs": model.eigen_coeffs.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "variance_explained": model.variance_explained.tolist(),
        "standardization": list(model.standardization),
    }


def _sensor_model_from_json(obj: dict) -> SensorFpcaModel:
    b = obj["basis"]
    return SensorFpcaModel(
        sensor=obj["sensor"],
        basis=build_basis(b["domain_lo"], b["domain_hi"], b["n_basis"], b["order"]),
        times=np.asarray(obj["times"]),
        mean_coeffs=np.asarray(obj["mean_coeffs"]),
        eigen_coeffs=np.asarray(obj["eigen_coeffs"]),
        eigenvalues=np.asarray(obj["eigenvalues"]),
        variance_explained=np.asarray(obj["variance_explained"]),
        standardization=tuple(obj["standardization"]),
    )


def write_model(bundle: ModelBundle, path) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "fpca": None, "mixture": None,
           "selection_table": None, "chosen": None, "removed_sensors": bundle.removed_sensors}
    if bundle.fpca_models is not None:
        doc["fpca"] = {
            "q_c": bundle.q_c if bundle.q_c is not None else bundle.fpca_models[0].q_c,
            "sensors": [_sensor_model_to_json(m) for m in bundle.fpca_models],
        }
    if bundle.mixture is not None:
        doc["mixture"] = {
            "m": bundle.mixture.m,
            "proportions": bundle.mixture.proportions.tolist(),
            "means": bundle.mixture.means.tolist(),
            "variances": bundle.mixture.variances.tolist(),
            "zero_mask": bundle.mixture.zero_mask.tolist(),
        }
    if bundle.selection_rows is not None:
        doc["selection_table"] = [asdict(r) for r in bundle.selection_rows]
    if bundle.chosen is not None:
        m, lam, gamma, kind = bundle.chosen
        doc["chosen"] = {"m": m, "lam": lam, "gamma": gamma, "kind": kind}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def read_model(path) -> ModelBundle:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupted model file: {exc}") from None
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataFormatError(
            f"model schema version {version!r} not supported (expected {SCHEMA_VERSION})"
        )
    bundle = ModelBundle(removed_sensors=doc.get("removed_sensors"))
    if doc.get("fpca") is not None:
        bundle.q_c = doc["fpca"]["q_c"]
        bundle.fpca_models = [_sensor_model_from_json(o) for o in doc["fpca"]["sensors"]]
    if doc.get("mixture") is not None:
        mx = doc["mixture"]
        bundle.mixture = MixtureParams(
            proportions=np.asarray(mx["proportions"]),
            means=np.asarray(mx["means"]),
            variances=np.asarray(mx["variances"]),
        )
        if not np.array_equal(np.asarray(mx["zero_mask"], dtype=bool), bundle.mixture.zero_mask):
            raise DataFormatError("mixture zero_mask must mark exactly the zero means")
    if doc.get("selection_table") is not None:
        bundle.selection_rows = [SelectionRow(**r) for r in doc["selection_table"]]
    if doc.get("chosen") is not None:
        ch = doc["chosen"]
        bundle.chosen = (ch["m"], ch["lam"], ch["gamma"], ch["kind"])
    return bundle


# ---------------------------------------------------------------------------
# assignments and benchmark results


def write_assignments(fit: FitResult, path, obs_ids: list[str] | None = None) -> None:
    """CSV of hard labels plus one responsibility column per cluster."""
    n, m = fit.responsibilities.shape
    obs_ids = obs_ids or [str(i) for i in range(n)]
    if len(obs_ids) != n:
        raise ValueError("obs_ids length must match the fitted observations")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["obs_id", "label"] + [f"resp_{k + 1}" for k in range(m)])
        for obs, label, resp in zip(obs_ids, fit.hard_labels, fit.responsibilities):
            writer.writerow([obs, int(label)] + [repr(float(r)) for r in resp])


def write_benchmark_rows(rows: list[BenchmarkRow], path) -> None:
    fields = list(BenchmarkRow.__dataclass_fields__)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([getattr(row, f) for f in fields])


def write_cluster_means(
    models: list[SensorFpcaModel], mixture: MixtureParams, q_c: int, path
) -> None:
    """Tidy CSV of per-cluster mean curves, one row per (sensor, cluster, time).

    Cluster k's mean curve for a sensor is the sensor mean function plus
    the component functions weighted by that cluster's score means, in the
    sensor's standardized units.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor_id", "cluster", "time", "value"])
        for s, model in enumerate(models):
            for k in range(mixture.m):
                curve = reconstruct(model, mixture.means[k, s * q_c : (s + 1) * q_c])
                for t, v in zip(model.times, curve):
                    writer.writerow([model.sensor, k, repr(float(t)), repr(float(v))])


def write_truth(design: SimulationDesign, data: FunctionalDataSet, path) -> None:
    """Companion file for simulated datasets: labels, the sensor split, and
    the design with the frozen population's fixed settings."""
    doc = {
        "labels": data.labels.tolist(),
        "obs_ids": data.obs_ids or [str(i) for i in range(data.n)],
        "signal_sensors": design.signal_sensor_names,
        "noise_sensors": design.noise_sensor_names,
        "design": {
            "n": design.n,
            "p_signal": design.p_signal,
            "p_noise": design.p_noise,
            "delta": design.delta,
            "m_true": M_TRUE,
            "proportions": list(PROPORTIONS),
            "n_basis": BASIS.n_basis,
            "order": BASIS.order,
            "domain": [BASIS.domain_lo, BASIS.domain_hi],
            "n_times": GRID.size,
            "seed": design.seed,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
