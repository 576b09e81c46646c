"""Experiment configuration: YAML documents validated into typed configs.

Validation is whole-document: every problem found is collected and reported
together, with dotted field paths, rather than stopping at the first.  A
top-level key the command does not read (COMMAND_KEYS) is unknown: in strict
mode an error, otherwise a warning.
"""
import dataclasses
import math

import yaml

from .bergman import MAX_LEVEL
from .model import QUAD_ORDER
from .solvers import SolverOptions

# the top-level keys each command reads besides `command` and `output`; any
# other key is unknown to the command: a warning, or an error under strict,
# and neither checked nor echoed
_SOLVE_KEYS = ("potential", "levels", "solver", "quadrature")
COMMAND_KEYS = {
    "balance": _SOLVE_KEYS,
    "tbalance": _SOLVE_KEYS + ("freeze_weight",),
    "newton": _SOLVE_KEYS,
    "family": _SOLVE_KEYS,
    "expand": ("potential", "levels", "quadrature"),
    "beta": ("potential", "levels", "quadrature", "weight"),
    "fourier": ("sample", "profiles", "m_max"),
    "probe": ("seeds", "levels", "solver", "quadrature"),
}
COMMANDS = tuple(COMMAND_KEYS)
# the keys a command that reads them cannot do without
_REQUIRED = ("potential", "levels", "seeds", "sample", "profiles")

# the `quadrature` keys and their defaults; the window's default grows with
# the top level (model.default_window)
QUADRATURE = {"window": None, "grid": 512, "order": QUAD_ORDER}
# their number types; model._check_discretization holds the lower bounds
_QUADRATURE_KINDS = {"window": float, "grid": int, "order": int}
# the upper bounds: leggauss(order) diagonalizes an order x order matrix,
# and a run holds (top level + 1) x n_nodes float64 arrays
MAX_ORDER = 64
MAX_ARRAY_BYTES = 1 << 30

# the `output` keys and the type each value must have
_OUTPUT = {"directory": (str, "expected a path string"),
           "tables": (bool, "expected true or false")}

# commands that run an increasing sequence of levels, and its least length
_SEQUENCES = {"family": 2, "expand": 3}

# what a number field of each declared type is called in messages
_NUMBER_NAMES = {float: "a number", int: "an integer"}


class ConfigError(ValueError):
    """All validation problems for one document, as a list of messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" +
                         "\n".join("  - " + e for e in self.errors))


@dataclasses.dataclass
class ExperimentConfig:
    """A validated document.  Every field but `warnings` is a top-level key,
    declared in the order the echo lists it."""

    command: str
    potential: dict = None
    levels: list = None
    solver: SolverOptions = SolverOptions()
    quadrature: dict = dataclasses.field(default_factory=dict)
    output: dict = dataclasses.field(default_factory=dict)
    weight: float = None
    freeze_weight: float = None
    seeds: list = None
    sample: dict = None
    profiles: list = None
    m_max: int = 20
    warnings: list = dataclasses.field(default_factory=list)

    def echo(self):
        """Plain dict for embedding in reports: the command and each set key
        it reads, the solver with all its fields."""
        keys = ("command",) + COMMAND_KEYS[self.command]
        return {k: v for k, v in dataclasses.asdict(self).items()
                if k in keys and v is not None and v != {}}


def _number(value, kind, path, errors):
    """value as the number type kind (int or float), or None after an error
    if it is not a finite one; a boolean is no number."""
    if isinstance(value, bool) or \
            not isinstance(value, int if kind is int else (int, float)):
        errors.append("%s: expected %s" % (path, _NUMBER_NAMES[kind]))
        return None
    if isinstance(value, float) and not math.isfinite(value):
        errors.append("%s: expected a finite number" % path)
        return None
    return kind(value)


def _numbers(values, path, errors):
    """Each entry of the list values checked by _number as a float."""
    for i, v in enumerate(values):
        _number(v, float, "%s[%d]" % (path, i), errors)


def _check_quadrature_size(grid, order, levels, errors):
    """Errors for an order above MAX_ORDER or a (top level + 1) x n_nodes
    float64 array above MAX_ARRAY_BYTES, n_nodes as model.Quadrature has
    it; the top level is the largest valid entry of levels, else 0."""
    if grid is None or order is None:
        return
    if order > MAX_ORDER:
        errors.append("quadrature.order: %d above the maximum %d"
                      % (order, MAX_ORDER))
        return
    top = max((m for m in levels if type(m) is int and 1 <= m <= MAX_LEVEL),
              default=0)
    size = 8 * (top + 1) * ((grid - 1) * order + 2)
    if size > MAX_ARRAY_BYTES:
        errors.append("quadrature.grid: %d at order %d and level %d needs "
                      "%d bytes per array, above the maximum %d"
                      % (grid, order, top, size, MAX_ARRAY_BYTES))


def _check_mapping(doc, key, known, errors):
    """doc[key] if it is a mapping, else None; unknown keys are errors."""
    sub = doc[key]
    if not isinstance(sub, dict):
        errors.append("%s: expected a mapping" % key)
        return None
    for k in set(sub) - set(known):
        errors.append("%s.%s: unknown option" % (key, k))
    return sub


def _check_potential(desc, path, errors):
    if not isinstance(desc, dict):
        errors.append("%s: expected a mapping, got %s" % (path, type(desc).__name__))
        return
    kind = desc.get("type")
    if kind == "fubini-study":
        extra = set(desc) - {"type"}
        if extra:
            errors.append("%s: unexpected keys for fubini-study: %s"
                          % (path, ", ".join(sorted(map(str, extra)))))
    elif kind == "gaussian-bump":
        for field in ("amplitude", "width"):
            if field not in desc:
                errors.append("%s.%s: required for gaussian-bump" % (path, field))
        values = {f: _number(desc[f], float, "%s.%s" % (path, f), errors)
                  for f in ("amplitude", "width", "center") if f in desc}
        if values.get("width") is not None and values["width"] <= 0:
            errors.append("%s.width: must be positive" % path)
        extra = set(desc) - {"type", "amplitude", "width", "center"}
        if extra:
            errors.append("%s: unexpected keys for gaussian-bump: %s"
                          % (path, ", ".join(sorted(map(str, extra)))))
    elif kind == "tabulated":
        for field in ("t", "phi"):
            if field not in desc:
                errors.append("%s.%s: required for tabulated" % (path, field))
            elif not isinstance(desc[field], list):
                errors.append("%s.%s: expected a list of numbers" % (path, field))
            else:
                _numbers(desc[field], "%s.%s" % (path, field), errors)
    elif kind is None:
        errors.append("%s.type: required (fubini-study, gaussian-bump or "
                      "tabulated)" % path)
    else:
        errors.append("%s.type: unknown potential type %r" % (path, kind))


def _check_levels(levels, errors, minimum):
    if not isinstance(levels, list) or not levels:
        errors.append("levels: expected a non-empty list of integers")
        return
    for i, m in enumerate(levels):
        m = _number(m, int, "levels[%d]" % i, errors)
        if m is not None and not 1 <= m <= MAX_LEVEL:
            errors.append("levels[%d]: level %d outside [1, %d]"
                          % (i, m, MAX_LEVEL))
    if len(levels) < minimum:
        errors.append("levels: need at least %d levels" % minimum)


def _check_solver(doc, errors):
    """SolverOptions from the `solver` mapping, each number field checked
    against its declared type; None if they cannot be built."""
    fields = {f.name: f.type for f in dataclasses.fields(SolverOptions)}
    doc = _check_mapping(doc, "solver", fields, errors)
    if doc is None:
        return None
    n_errors = len(errors)
    kwargs = {k: _number(doc[k], kind, "solver." + k, errors)
              if kind in _NUMBER_NAMES else doc[k]
              for k, kind in fields.items() if k in doc}
    if len(errors) > n_errors:
        return None
    try:
        return SolverOptions(**kwargs)
    except (ValueError, TypeError) as e:
        errors.append("solver: %s" % e)
        return None


def parse_config(document, strict=False):
    """Validate a YAML document (text or already-loaded mapping).

    Raises ConfigError carrying every problem found.  Unknown keys are
    errors in strict mode and warnings otherwise.
    """
    if isinstance(document, str):
        try:
            doc = yaml.safe_load(document)
        except yaml.YAMLError as e:
            raise ConfigError(["not well-formed YAML: %s" % e])
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a mapping"])

    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(["command: expected one of %s, got %r"
                           % (", ".join(COMMANDS), command)])
    errors = []
    warnings = []
    read = COMMAND_KEYS[command] + ("command", "output")
    for key in sorted(set(doc) - set(read), key=str):
        (errors if strict else warnings).append("unknown key %r" % key)
    doc = {k: v for k, v in doc.items() if k in read}
    for key in _REQUIRED:
        if key in read and key not in doc:
            errors.append("%s: required for command %r" % (key, command))

    kwargs = {"command": command, "warnings": warnings}

    if "potential" in doc:
        _check_potential(doc["potential"], "potential", errors)
        kwargs["potential"] = doc["potential"]

    if "seeds" in doc:
        if not isinstance(doc["seeds"], list) or len(doc["seeds"]) < 2:
            errors.append("seeds: expected a list of at least two potential "
                          "descriptors")
        else:
            for i, s in enumerate(doc["seeds"]):
                _check_potential(s, "seeds[%d]" % i, errors)
            kwargs["seeds"] = doc["seeds"]

    if "sample" in doc:
        sample = doc["sample"]
        if not isinstance(sample, dict) or \
                not isinstance(sample.get("cos"), list) or \
                not isinstance(sample.get("sin", []), list):
            errors.append("sample: expected {cos: [...], sin: [...]} "
                          "trigonometric coefficients")
        else:
            for key in ("cos", "sin"):
                _numbers(sample.get(key, []), "sample." + key, errors)
            kwargs["sample"] = sample

    if "profiles" in doc:
        profiles = doc["profiles"]
        if not isinstance(profiles, list) or len(profiles) < 2:
            errors.append("profiles: expected a list of at least two "
                          "smoothing margins")
        else:
            _numbers(profiles, "profiles", errors)
            kwargs["profiles"] = profiles

    if "m_max" in doc:
        m_max = _number(doc["m_max"], int, "m_max", errors)
        if m_max is not None and m_max < 0:
            errors.append("m_max: expected a non-negative integer")
        kwargs["m_max"] = m_max

    if "levels" in doc:
        _check_levels(doc["levels"], errors, _SEQUENCES.get(command, 1))
        kwargs["levels"] = doc["levels"]
        if command in _SEQUENCES and isinstance(doc["levels"], list):
            ls = [m for m in doc["levels"] if isinstance(m, int)]
            if ls and any(b <= a for a, b in zip(ls, ls[1:])):
                errors.append("levels: must be strictly increasing for %r"
                              % command)

    # a section that fails its checks leaves an error, so no config is built
    if "solver" in doc:
        kwargs["solver"] = _check_solver(doc, errors)

    if "quadrature" in doc:
        quad = _check_mapping(doc, "quadrature", QUADRATURE, errors) or {}
        sizes = dict(QUADRATURE)
        for key, kind in _QUADRATURE_KINDS.items():
            if key in quad:
                sizes[key] = _number(quad[key], kind, "quadrature." + key,
                                     errors)
        levels = doc.get("levels")
        _check_quadrature_size(sizes["grid"], sizes["order"],
                               levels if isinstance(levels, list) else [],
                               errors)
        kwargs["quadrature"] = {k: quad[k] for k in QUADRATURE if k in quad}

    if "output" in doc:
        out = _check_mapping(doc, "output", _OUTPUT, errors) or {}
        for key, (kind, message) in _OUTPUT.items():
            if key in out and not isinstance(out[key], kind):
                errors.append("output.%s: %s" % (key, message))
        kwargs["output"] = out

    for key in ("weight", "freeze_weight"):
        if key in doc:
            kwargs[key] = _number(doc[key], float, key, errors)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**kwargs)
