"""Experiment configuration: YAML documents validated into typed configs.

Validation is whole-document: every problem found is collected and reported
together, with dotted field paths, rather than stopping at the first.  A
top-level key the command does not read (COMMAND_KEYS) is unknown: in strict
mode an error, otherwise a warning.
"""
import dataclasses
import math

import yaml

from .bergman import MAX_EXPONENT, MAX_LEVEL
from .circle import CircleSample, extension_errors, make_partition
# MAX_ORDER and MAX_ARRAY_BYTES are re-exported with the rule they bound
from .model import (MAX_ARRAY_BYTES, MAX_ORDER, POTENTIAL_FIELDS,
                    QUADRATURE, default_window, discretization_errors,
                    tabulated_errors)
from .solvers import SolverOptions

# the top-level keys each command reads besides `command` and `output`; any
# other key is unknown to the command: a warning, or an error under strict,
# and neither checked nor echoed
_SOLVE_KEYS = ("potential", "levels", "solver", "quadrature")
COMMAND_KEYS = {
    "balance": _SOLVE_KEYS,
    "tbalance": _SOLVE_KEYS,
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

# the number types of the `quadrature` keys (model.QUADRATURE)
_QUADRATURE_KINDS = {"window": float, "grid": int, "order": int}

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


def _build(path, errors, make, *args, **kwargs):
    """make(*args, **kwargs), or None after an error under path if it
    rejects its arguments with a ValueError or TypeError."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as e:
        errors.append("%s: %s" % (path, e))
        return None


def _check_mapping(doc, key, known, errors):
    """doc[key] if it is a mapping, else None; unknown keys are errors."""
    sub = doc[key]
    if not isinstance(sub, dict):
        errors.append("%s: expected a mapping" % key)
        return None
    for k in set(sub) - set(known):
        errors.append("%s.%s: unknown option" % (key, k))
    return sub


def _check_potential(desc, path, errors, tabulated):
    """Check the descriptor desc; if it is tabulated and passes, add (path,
    desc) to tabulated, whose samples need the run's window."""
    if not isinstance(desc, dict):
        errors.append("%s: expected a mapping, got %s" % (path, type(desc).__name__))
        return
    kind, kinds = desc.get("type"), list(POTENTIAL_FIELDS)
    if kind not in kinds:
        errors.append("%s.type: required (%s or %s)" % (
            path, ", ".join(kinds[:-1]), kinds[-1]) if kind is None else
            "%s.type: unknown potential type %r" % (path, kind))
        return
    n_errors = len(errors)
    required, optional = POTENTIAL_FIELDS[kind]
    errors.extend("%s.%s: required for %s" % (path, field, kind)
                  for field in required if field not in desc)
    for field in [f for f in required + optional if f in desc]:
        where = "%s.%s" % (path, field)
        if kind != "tabulated":
            value = _number(desc[field], float, where, errors)
            if field == "width" and value is not None and value <= 0:
                errors.append("%s: must be positive" % where)
        elif not isinstance(desc[field], list):
            errors.append("%s: expected a list of numbers" % where)
        else:
            _numbers(desc[field], where, errors)
    extra = set(desc) - {"type"} - set(required + optional)
    if extra:
        errors.append("%s: unexpected keys for %s: %s"
                      % (path, kind, ", ".join(sorted(map(str, extra)))))
    if kind == "tabulated" and len(errors) == n_errors:
        tabulated.append((path, desc))


def _check_levels(levels, errors, minimum):
    """The valid entries of levels, each distinct and in [1, MAX_LEVEL]."""
    if not isinstance(levels, list) or not levels:
        errors.append("levels: expected a non-empty list of integers")
        return []
    valid = []
    for i, m in enumerate(levels):
        m = _number(m, int, "levels[%d]" % i, errors)
        if m is not None and not 1 <= m <= MAX_LEVEL:
            errors.append("levels[%d]: level %d outside [1, %d]"
                          % (i, m, MAX_LEVEL))
        elif m is not None:
            if m in valid:
                errors.append("levels: level %d repeated" % m)
            valid.append(m)
    if len(levels) < minimum:
        errors.append("levels: need at least %d levels" % minimum)
    return valid


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
    return _build("solver", errors, SolverOptions, **kwargs)


def parse_config(document, strict=False):
    """Validate a YAML document (text or already-loaded mapping).

    Raises ConfigError carrying every problem found.  Unknown keys are
    errors in strict mode and warnings otherwise.
    """
    if isinstance(document, str):
        try:
            loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml
            doc = yaml.load(document, Loader=loader)
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

    tabulated = []
    if "potential" in doc:
        _check_potential(doc["potential"], "potential", errors, tabulated)
        kwargs["potential"] = doc["potential"]

    if "seeds" in doc:
        if not isinstance(doc["seeds"], list) or len(doc["seeds"]) < 2:
            errors.append("seeds: expected a list of at least two potential "
                          "descriptors")
        else:
            for i, s in enumerate(doc["seeds"]):
                _check_potential(s, "seeds[%d]" % i, errors, tabulated)
            kwargs["seeds"] = doc["seeds"]

    S = None        # the sample, once it is built
    if "sample" in doc:
        sample = doc["sample"]
        if not isinstance(sample, dict) or \
                not isinstance(sample.get("cos"), list) or \
                not isinstance(sample.get("sin", []), list):
            errors.append("sample: expected {cos: [...], sin: [...]} "
                          "trigonometric coefficients")
        else:
            n_errors = len(errors)
            for key in ("cos", "sin"):
                _numbers(sample.get(key, []), "sample." + key, errors)
            if len(errors) == n_errors:
                S = _build("sample", errors, CircleSample, sample["cos"],
                           sample.get("sin", []))
            kwargs["sample"] = sample

    if "profiles" in doc:
        profiles = doc["profiles"]
        if not isinstance(profiles, list) or len(profiles) < 2:
            errors.append("profiles: expected a list of at least two "
                          "smoothing margins")
        else:
            n_errors = len(errors)
            _numbers(profiles, "profiles", errors)
            if len(errors) == n_errors:
                for i, p in enumerate(profiles):
                    _build("profiles[%d]" % i, errors, make_partition, p)
                    if p in profiles[:i]:
                        errors.append("profiles: profile %g repeated" % p)
            kwargs["profiles"] = profiles

    m_max = kwargs["m_max"] = _number(doc.get("m_max", ExperimentConfig.m_max),
                                      int, "m_max", errors)
    if m_max is not None and m_max < 0:
        errors.append("m_max: expected a non-negative integer")
    elif m_max is not None and S is not None:
        errors.extend("m_max: " + e for e in extension_errors(m_max, S.degree))

    levels = []
    if "levels" in doc:
        levels = _check_levels(doc["levels"], errors,
                               _SEQUENCES.get(command, 1))
        kwargs["levels"] = doc["levels"]
        if command in _SEQUENCES and levels != sorted(levels):
            errors.append("levels: must be strictly increasing for %r"
                          % command)
        if command == "probe" and len(levels) > 1:
            errors.append("levels: probe runs at one level, got %d"
                          % len(levels))

    # a section that fails its checks leaves an error, so no config is built
    if "solver" in doc:
        kwargs["solver"] = _check_solver(doc, errors)

    # the window the run will use: quadrature.window, else the top level's
    window = default_window(max(levels)) if levels else None
    if "quadrature" in doc:
        quad = _check_mapping(doc, "quadrature", QUADRATURE, errors) or {}
        sizes = {k: _number(quad[k], kind, "quadrature." + k, errors)
                 if k in quad else QUADRATURE[k]
                 for k, kind in _QUADRATURE_KINDS.items()}
        errors.extend("quadrature.%s: %s" % e for e in discretization_errors(
            top=max(levels, default=0), **sizes))
        kwargs["quadrature"] = {k: quad[k] for k in QUADRATURE if k in quad}
        if "window" in quad:
            window = sizes["window"]
    for path, desc in tabulated if window is not None else []:
        errors.extend("%s: %s" % (path, e) for e in
                      tabulated_errors(desc["t"], desc["phi"], window))

    if "output" in doc:
        out = _check_mapping(doc, "output", _OUTPUT, errors) or {}
        for key, (kind, message) in _OUTPUT.items():
            if key in out and not isinstance(out[key], kind):
                errors.append("output.%s: %s" % (key, message))
        kwargs["output"] = out

    if "weight" in doc:
        kwargs["weight"] = _number(doc["weight"], float, "weight", errors)
    # |y| m = |w| / m at y = w / m^2: widest at the least level
    w, m = kwargs.get("weight"), min(levels, default=0)
    if w is not None and m and abs(w / float(m) ** 2) * m > MAX_EXPONENT:
        errors.append("weight: %g out of floating range at level %d: |w| / m "
                      "above %g" % (w, m, MAX_EXPONENT))

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**kwargs)
