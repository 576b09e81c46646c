"""Report serialization: one nested JSON document plus flat CSV tables.

The JSON document validates against the schema shipped with the package and
round-trips exactly.  report.json is the text of
json.dump(report, indent=1, sort_keys=True) plus a newline: floats in their
shortest round-trip form (float.__repr__), NaN and infinities spelled NaN,
Infinity and -Infinity.  Tables are plot-ready: one row per quadrature node
for sampled functions, one row per iteration for residual histories; a CSV
cell writes a float as %.17g, a bool as 1 or 0 and anything else as str().
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
# without an indent, JSONEncoder.encode runs the C encoder
_ENCODER = json.JSONEncoder(sort_keys=True)


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON."""
    # exact types: np.float64 subclasses float but must still go to .item()
    if type(obj) in _JSON_SCALARS:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
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
    """Skeleton report; callers fill outputs/tables/verdicts/timing."""
    versions = {"bergbal": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__}
    import scipy
    versions["scipy"] = scipy.__version__
    return {
        "report_version": 1,
        "config": _plain(config_echo),
        "versions": versions,
        "conventions": {
            "coordinate": "t = log|z|^2 on the punctured line",
            "reference_potential": "log(1 + e^t), volume normalized to 1",
            "residual": "sup over quadrature nodes of |B_m - C_m|",
            "weight_character": "section j carries the factor e^{j y}",
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
    """Write report.json and one CSV per table; returns the written paths."""
    report = _plain(report)
    validate_report(report)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ReportWriteError(out_dir, e)
    paths = []
    jpath = os.path.join(out_dir, "report.json")
    text = _json_text(report) + "\n"
    try:
        with open(jpath, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ReportWriteError(jpath, e)
    paths.append(jpath)
    if tables:
        for table in report.get("tables", []):
            cpath = os.path.join(out_dir, table["name"] + ".csv")
            cols = table["columns"]
            names = list(cols)
            rows = len(cols[names[0]]) if names else 0
            template = _row_template(cols.values(), rows)
            try:
                with open(cpath, "w") as fh:
                    fh.write(",".join(names) + "\n")
                    if template is not None:
                        fh.write(template * rows % tuple(
                            chain.from_iterable(zip(*cols.values()))))
                    else:
                        for r in range(rows):
                            fh.write(",".join(_cell(cols[n][r]) for n in names)
                                     + "\n")
            except OSError as e:
                raise ReportWriteError(cpath, e)
            paths.append(cpath)
    return paths


def _json_text(obj, indent=""):
    """The text json.dumps(obj, indent=1, sort_keys=True) gives for the plain
    tree obj; each list of numbers alone is one call of the C encoder."""
    inner = indent + " "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_ENCODER.encode(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _NUMBER_TYPES:
            # "[a, b]": numbers hold no ", ", so the separators are the items'
            body = _ENCODER.encode(obj)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_json_text(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + indent + "]"
    return _ENCODER.encode(obj)


def _row_template(columns, rows):
    """One CSV row format with a %-field per column, or None unless every
    column has rows entries of one type among float, int and bool."""
    formats = []
    for col in columns:
        kinds = set(map(type, col))
        if len(col) != rows or len(kinds) != 1 or not kinds <= _NUMBER_TYPES:
            return None
        formats.append(_CELL_FORMATS[kinds.pop()])
    return ",".join(formats) + "\n"


def _cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)
