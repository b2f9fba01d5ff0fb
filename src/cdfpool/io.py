"""File formats: Gaussian-component CSV datasets, parameter records, histograms.

All writers are atomic (temp file in the target directory, then rename) and
format floats with ``repr``, which round-trips exactly through ``float``.
"""

from __future__ import annotations

import csv
import os
import tempfile

import numpy as np

from .distributions import Gaussian, _RowStack
from .errors import LengthMismatch, SchemaError, WeightConstraintViolation
from .fitting import FitResult, ForecastBatch
from .pools import PoolSpec, spec_from_params, spec_params


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_lines(path: str, **open_args) -> list[str]:
    """The lines of a UTF-8 text file, without a leading byte-order mark.

    Raises SchemaError if the file cannot be read, and naming the first line
    that is not valid UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", **open_args) as fh:
            return fh.readlines()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _not_utf8(path: str, exc: UnicodeDecodeError) -> SchemaError:
    # a newline byte is never part of a multi-byte character, so each line decodes alone
    try:
        with open(path, "rb") as fh:
            for r, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    return SchemaError(f"{path}: line {r} is not valid UTF-8 "
                                       f"(byte {bad.start + 1}: {bad.reason})")
    except OSError:
        pass
    return SchemaError(f"{path}: not valid UTF-8 ({exc.reason})")


# ---------------------------------------------------------------------------
# dataset CSV: header y,mu_1,sd_1,...,mu_k,sd_k; '#' lines are comments


def dataset_header(k: int) -> list[str]:
    cols = ["y"]
    for i in range(1, k + 1):
        cols += [f"mu_{i}", f"sd_{i}"]
    return cols


# one parser decides what counts as a number: the whole block's, and a bad row's
_PARSE = {"delimiter": ",", "comments": None, "quotechar": '"'}
# a bad row alone: a text parse without max_rows makes room for 50000 rows of its width
_ONE_ROW = _PARSE | {"max_rows": 1}


def _bad_row(path: str, header: list[str], lines: list[str]) -> SchemaError | None:
    """The SchemaError naming the first of ``lines`` (file row 2 on) that the parser rejects.

    A row is judged whole first; only a rejected row is split into its fields, and
    each field is judged alone, by the same parser.  None if every row parses.
    """
    for r, line in enumerate(lines, start=2):
        try:
            if np.loadtxt([line], **_ONE_ROW, ndmin=2, dtype=float).shape[1] == len(header):
                continue
        except ValueError:
            pass
        row = np.loadtxt([line], **_ONE_ROW, ndmin=1, dtype=str)
        if row.size != len(header):
            return SchemaError(f"{path}: row {r} has {row.size} fields, expected {len(header)}")
        for i, (name, text) in enumerate(zip(header, row.tolist())):
            try:
                np.loadtxt([line], **_ONE_ROW, usecols=i, dtype=float)
            except ValueError:
                return SchemaError(f"{path}: row {r}: {name}: non-numeric value "
                                   f"(could not convert string to float: {text!r})")
    return None


def read_dataset_csv(path: str) -> ForecastBatch:
    """The cases of a dataset file; every component column is a view of one parsed array.

    The rows after the header are parsed in one ``np.loadtxt`` call: a field is a
    decimal or exponent number, ``inf`` or ``nan`` (case ignored), optionally quoted
    and padded with spaces or tabs; ``float`` syntax beyond that, such as
    underscore digit groups (``1_000``), is rejected.  The file is UTF-8, with or
    without a byte-order mark.  Raises SchemaError for a file
    without data rows, and naming the row (and column) of a short or long row, a
    non-numeric or non-finite value, or an ``sd`` that is not positive.
    """
    lines = [ln for ln in _read_lines(path, newline="")
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise SchemaError(f"{path}: empty dataset file")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    if not header or header[0] != "y" or len(header) < 3 or len(header) % 2 == 0:
        raise SchemaError(
            f"{path}: header must be y,mu_1,sd_1,...,mu_k,sd_k; got {','.join(header)}"
        )
    k = (len(header) - 1) // 2
    expected = dataset_header(k)
    for want, got in zip(expected, header):
        if want != got:
            raise SchemaError(f"{path}: missing or misplaced column {want!r} (found {got!r})")
    if len(lines) == 1:
        raise SchemaError(f"{path}: dataset file has a header but no rows")
    try:
        data = np.loadtxt(lines[1:], **_PARSE, ndmin=2, dtype=float)
    except ValueError as exc:  # the scan names the row; the parser's own message is the fallback
        raise _bad_row(path, header, lines[1:]) or SchemaError(f"{path}: {exc}") from exc
    if data.shape[1] != len(header):  # every row has the same wrong width
        raise _bad_row(path, header, lines[1:2])
    finite = np.isfinite(data)
    if not np.all(finite):
        j, i = divmod(int(np.argmin(finite)), len(header))
        raise SchemaError(
            f"{path}: row {j + 2}: {header[i]} must be finite, got {float(data[j, i])}"
        )
    positive = data[:, 2::2] > 0.0
    if not np.all(positive):
        j, i = divmod(int(np.argmin(positive)), k)
        raise SchemaError(
            f"{path}: row {j + 2}: sd_{i + 1} must be positive, got {float(data[j, 2 + 2 * i])}"
        )
    components = tuple(Gaussian._stacked(data[:, 1 + 2 * i:2 + 2 * i],
                                         data[:, 2 + 2 * i:3 + 2 * i]) for i in range(k))
    return ForecastBatch(data[:, 0], components)


def write_dataset_csv(path: str, cases) -> None:
    """Write a batch (or a list of cases) whose components are all Gaussian."""
    try:
        batch = ForecastBatch.from_cases(cases)
    except LengthMismatch as exc:
        raise SchemaError(str(exc)) from exc
    if not len(batch):
        raise SchemaError("refusing to write an empty dataset")
    if not all(isinstance(c, Gaussian) for c in batch.components):
        kind = next(c for c in batch.components if not isinstance(c, Gaussian))
        if isinstance(kind, _RowStack):  # a column of mixed kinds names its first non-Gaussian row
            kind = next(r for r in kind.rows if not isinstance(r, Gaussian))
        raise SchemaError(
            f"the CSV schema covers Gaussian components only; got {type(kind).__name__}"
        )
    columns = [batch.y[:, None]]
    for c in batch.components:
        columns += [c.mu, c.sigma]
    table = np.hstack([np.broadcast_to(col, (len(batch), 1)) for col in columns])
    out = [",".join(dataset_header(len(batch.components)))]
    out += [",".join(map(repr, row)) for row in table.tolist()]
    atomic_write_text(path, "\n".join(out) + "\n")


def write_latents_csv(path: str, latents: dict) -> None:
    names = list(latents.keys())
    if not names:
        raise SchemaError("no latent variables to write")
    n = len(np.asarray(latents[names[0]]))
    cols = [np.asarray(latents[name], dtype=float) for name in names]
    if any(c.size != n for c in cols):
        raise SchemaError("latent arrays must all have the same length")
    out = [",".join(["case"] + names)]
    for j in range(n):
        out.append(",".join([str(j)] + [_fmt(c[j]) for c in cols]))
    atomic_write_text(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# parameter records: flat "key value" lines


def write_params(path: str, result: FitResult) -> None:
    spec = result.spec
    lines = [f"method {spec.method}", f"k {spec.k}"]
    lines += [f"{name} {_fmt(value)}" for name, value in spec_params(spec).items()]
    if result.std_errors:
        for key in sorted(result.std_errors):
            lines.append(f"se_{key} {_fmt(result.std_errors[key])}")
    lines.append(f"converged {'true' if result.converged else 'false'}")
    lines.append(f"flags {','.join(result.flags) or 'none'}")
    lines.append(f"iterations {result.iterations}")
    lines.append(f"mean_log_score {_fmt(result.mean_log_score_train)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_params(path: str) -> tuple[PoolSpec, dict]:
    """The spec and every entry of a parameter file (UTF-8, with or without a byte-order mark)."""
    lines = [ln.strip() for ln in _read_lines(path) if ln.strip() and not ln.startswith("#")]
    kv: dict[str, str] = {}
    for ln in lines:
        parts = ln.split(None, 1)
        if len(parts) != 2:
            raise SchemaError(f"{path}: malformed line {ln!r}")
        kv[parts[0]] = parts[1]
    for required in ("method", "k"):
        if required not in kv:
            raise SchemaError(f"{path}: missing key {required!r}")
    method = kv["method"]
    n_weights = sum(key.startswith("w_") for key in kv)
    try:
        if int(kv["k"]) != n_weights:
            raise SchemaError(f"{path}: k is {kv['k']} but {n_weights} weights are given")
        spec = spec_from_params(method, kv)
    except (KeyError, ValueError) as exc:
        raise SchemaError(
            f"{path}: missing, non-numeric or unknown entry for method {method!r} ({exc})"
        ) from exc
    except WeightConstraintViolation as exc:
        raise SchemaError(f"{path}: parameters out of range for method {method!r} ({exc})") from exc
    meta: dict = {key: val for key, val in kv.items()}
    if "flags" in meta:
        meta["flags"] = () if meta["flags"] == "none" else tuple(meta["flags"].split(","))
    return spec, meta


# ---------------------------------------------------------------------------
# diagnostic CSVs and a minimal SVG bar chart


def write_histogram_csv(path: str, counts) -> None:
    counts = np.asarray(counts, dtype=int)
    bins = counts.size
    lines = ["bin_lo,bin_hi,count"]
    for b in range(bins):
        lines.append(f"{_fmt(b / bins)},{_fmt((b + 1) / bins)},{int(counts[b])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_reliability_csv(path: str, rows) -> None:
    lines = ["bin_center,freq,count,mean_forecast"]
    for center, freq, count, mean in rows:
        lines.append(f"{_fmt(center)},{_fmt(freq)},{int(count)},{_fmt(mean)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


_SVG_SIZE = (400, 240)  # width, height


def write_histogram_svg(path: str, counts) -> None:
    """Static SVG bar chart of PIT histogram counts."""
    width, height = _SVG_SIZE
    counts = np.asarray(counts, dtype=float)
    bins = counts.size
    top = max(float(counts.max()), 1.0)
    margin = 20
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    bar_w = plot_w / bins
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for b, cnt in enumerate(counts):
        h = plot_h * cnt / top
        x = margin + b * bar_w
        y = margin + plot_h - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w - 1:.2f}" '
            f'height="{h:.2f}" fill="steelblue"/>'
        )
    parts.append(
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" '
        f'y2="{margin + plot_h}" stroke="black"/>'
    )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
