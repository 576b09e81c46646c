"""Report serialization: one CSV per table, and report.json indexing them.

The CSVs hold the table numbers.  Tables are plot-ready: one row per knot
of the input's quadrature in a run's one table of samples in t (the knot t,
then a column per sampled quantity and level; a solve's phi and density are
read exactly from its diagonal x at the knots), one row per iteration for
residual histories.  A CSV has a header row of column names, then one row per entry;
a cell writes a float as %.17g, a bool as 1 or 0 and anything else as str().

report.json holds everything else, and in place of each table's columns its
index entry: name, file, column names in CSV order and row count.  It
validates against the schema shipped with the package and round-trips
exactly: it is the text of json.dump(report, indent=1, sort_keys=True) plus
a newline, floats in their shortest round-trip form (float.__repr__), NaN and
infinities spelled NaN, Infinity and -Infinity.
"""
import functools
import json
import os
import sys
from importlib import resources
from itertools import chain

import numpy as np
import jsonschema

from . import __version__


class ReportWriteError(RuntimeError):
    def __init__(self, path, reason):
        self.path = str(path)
        super().__init__("cannot write %s: %s" % (path, reason))


_JSON_SCALARS = frozenset((float, int, str, bool, type(None)))
# the CSV format of each number type, as _cell writes it
_CELL_FORMATS = {float: "%.17g", int: "%d", bool: "%d"}
_NUMBER_TYPES = frozenset(_CELL_FORMATS)


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON."""
    # exact types: np.float64 subclasses float but must still go to .item()
    if type(obj) in _JSON_SCALARS:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if _JSON_SCALARS.issuperset(map(type, obj)):
            return list(obj)
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # tolist gives Python floats, ints and bools, nested by dimension
        if obj.dtype.kind in "fiub":
            return obj.tolist()
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def load_schema():
    with resources.files("bergbal").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def build_report(config_echo):
    """Skeleton report; callers fill outputs/tables/verdicts/timing.  The
    versions name scipy only if this process has loaded it: a run loads it
    for tabulated input alone, whose config check already has."""
    versions = {"bergbal": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__}
    if "scipy" in sys.modules:
        versions["scipy"] = sys.modules["scipy"].__version__
    return {
        "report_version": 3,
        "config": _plain(config_echo),
        "versions": versions,
        "conventions": {
            "coordinate": "t = log|z|^2 on the punctured line",
            "reference_potential": "log(1 + e^t), volume normalized to 1",
            "residual": ("sup of |B_m - C_m| over the solve nodes, a "
                         "Gauss-Legendre rule in u = expit(t) (diagnostics."
                         "solve_nodes), and over t = -inf and +inf"),
            "weight_character": "section j carries the factor e^{j y}",
            "gram": ("beta and expand: Gram diagonals on a Gauss-Legendre "
                     "rule in u = expit(t) (tabulated input: the quadrature's "
                     "t-nodes), of outputs.gram_nodes nodes; kernels, beta "
                     "and the fit read at the knots, where the tables are"),
        },
        "outputs": {},
        "tables": [],
        "verdicts": {},
        "warnings": [],
        "error": None,
        "timing": {"seconds": 0.0},
    }


@functools.lru_cache(maxsize=1)
def _validator():
    """Validator of the shipped schema, checked against its metaschema once,
    on first use."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(report):
    """Raise the best-matching jsonschema.ValidationError, as
    jsonschema.validate does, if report breaks the schema."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(report))
    if error is not None:
        raise error


def write_report(report, out_dir, tables=True):
    """Write one CSV per table, then report.json; returns the written paths,
    report.json first.

    report.json replaces each table's columns by its index entry.  Nothing
    is written unless every table's columns have one length and the indexed
    report validates; the CSVs are written before report.json, so the
    report.json on disk indexes CSVs that exist.  With tables false no CSV
    is written and the index is empty.
    """
    report = _plain(report)
    csvs, index = [], []
    for table in (report["tables"] if tables else []):
        name, cols = table["name"], table["columns"]
        cpath = os.path.join(out_dir, name + ".csv")
        lengths = {len(col) for col in cols.values()}
        if len(lengths) > 1:
            sizes = ", ".join("%s %d" % (n, len(c)) for n, c in cols.items())
            raise ReportWriteError(cpath, "table %r has columns of unequal "
                                   "lengths: %s" % (name, sizes))
        rows = lengths.pop() if lengths else 0
        csvs.append((cpath, cols, rows))
        index.append({"name": name, "file": name + ".csv",
                      "columns": list(cols), "rows": rows})
    doc = dict(report, tables=index)
    validate_report(doc)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ReportWriteError(out_dir, e)
    for cpath, cols, rows in csvs:
        template, columns = _row_template(cols.values())
        try:
            with open(cpath, "w") as fh:
                fh.write(",".join(cols) + "\n")
                fh.write(template * rows % tuple(
                    chain.from_iterable(zip(*columns))))
        except OSError as e:
            raise ReportWriteError(cpath, e)
    jpath = os.path.join(out_dir, "report.json")
    try:
        with open(jpath, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ReportWriteError(jpath, e)
    return [jpath] + [cpath for cpath, _, _ in csvs]


def _row_template(columns):
    """One CSV row format with a %-field per column, and the columns it
    formats: a column whose entries are all one type among float, int and
    bool gets that type's field, any other column %s over its _cell text."""
    formats, values = [], []
    for col in columns:
        kinds = set(map(type, col))
        if len(kinds) == 1 and kinds <= _NUMBER_TYPES:
            formats.append(_CELL_FORMATS[kinds.pop()])
            values.append(col)
        else:
            formats.append("%s")
            values.append([_cell(v) for v in col])
    return ",".join(formats) + "\n", values


def _cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)
