"""Experiment configuration: YAML documents validated into typed configs.

Validation is whole-document: every problem found is collected and reported
together, with dotted field paths, rather than stopping at the first.  In
strict mode unknown keys are errors; otherwise they are returned as warnings.
"""
import yaml

from .bergman import MAX_LEVEL
from .solvers import SolverOptions

COMMANDS = ("balance", "tbalance", "newton", "family", "expand", "beta",
            "fourier", "probe")

_POTENTIAL_COMMANDS = ("balance", "tbalance", "newton", "family", "expand",
                       "beta")

_TOP_KEYS = {"command", "potential", "levels", "solver", "quadrature",
             "output", "weight", "freeze_weight", "seeds", "sample", "profiles",
             "m_max"}


class ConfigError(ValueError):
    """All validation problems for one document, as a list of messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" +
                         "\n".join("  - " + e for e in self.errors))


class ExperimentConfig:
    def __init__(self, command, potential=None, levels=None, solver=None,
                 quadrature=None, output=None, weight=None, freeze_weight=None,
                 seeds=None, sample=None, profiles=None, m_max=20,
                 warnings=()):
        self.command = command
        self.potential = potential
        self.levels = levels
        self.solver = solver or SolverOptions()
        self.quadrature = quadrature or {}
        self.output = output or {}
        self.weight = weight
        self.freeze_weight = freeze_weight
        self.seeds = seeds
        self.sample = sample
        self.profiles = profiles
        self.m_max = m_max
        self.warnings = list(warnings)

    def echo(self):
        """Plain dict for embedding in reports."""
        out = {"command": self.command}
        if self.potential is not None:
            out["potential"] = self.potential
        if self.levels is not None:
            out["levels"] = self.levels
        out["solver"] = {"tolerance": self.solver.tolerance,
                         "max_iterations": self.solver.max_iterations,
                         "recentering": self.solver.recentering,
                         "damping": self.solver.damping}
        if self.quadrature:
            out["quadrature"] = self.quadrature
        for key in ("weight", "freeze_weight", "seeds", "sample", "profiles"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.command == "fourier":
            out["m_max"] = self.m_max
        return out


def _check_potential(desc, path, errors):
    if not isinstance(desc, dict):
        errors.append("%s: expected a mapping, got %s" % (path, type(desc).__name__))
        return
    kind = desc.get("type")
    if kind == "fubini-study":
        extra = set(desc) - {"type"}
        if extra:
            errors.append("%s: unexpected keys for fubini-study: %s"
                          % (path, ", ".join(sorted(extra))))
    elif kind == "gaussian-bump":
        for field in ("amplitude", "width"):
            if field not in desc:
                errors.append("%s.%s: required for gaussian-bump" % (path, field))
            elif not isinstance(desc[field], (int, float)):
                errors.append("%s.%s: expected a number" % (path, field))
        if "width" in desc and isinstance(desc["width"], (int, float)) \
                and desc["width"] <= 0:
            errors.append("%s.width: must be positive" % path)
        if "center" in desc and not isinstance(desc["center"], (int, float)):
            errors.append("%s.center: expected a number" % path)
        extra = set(desc) - {"type", "amplitude", "width", "center"}
        if extra:
            errors.append("%s: unexpected keys for gaussian-bump: %s"
                          % (path, ", ".join(sorted(extra))))
    elif kind == "tabulated":
        for field in ("t", "phi"):
            if field not in desc:
                errors.append("%s.%s: required for tabulated" % (path, field))
            elif not (isinstance(desc[field], list) and
                      all(isinstance(v, (int, float)) for v in desc[field])):
                errors.append("%s.%s: expected a list of numbers" % (path, field))
    elif kind is None:
        errors.append("%s.type: required (fubini-study, gaussian-bump or "
                      "tabulated)" % path)
    else:
        errors.append("%s.type: unknown potential type %r" % (path, kind))


def _check_levels(levels, path, errors, minimum=1):
    if not isinstance(levels, list) or not levels:
        errors.append("%s: expected a non-empty list of integers" % path)
        return
    for i, m in enumerate(levels):
        if not isinstance(m, int) or isinstance(m, bool):
            errors.append("%s[%d]: expected an integer" % (path, i))
        elif not 1 <= m <= MAX_LEVEL:
            errors.append("%s[%d]: level %d outside [1, %d]"
                          % (path, i, m, MAX_LEVEL))
    if len(levels) < minimum:
        errors.append("%s: need at least %d levels" % (path, minimum))


def _check_solver(doc, errors):
    known = {"tolerance", "max_iterations", "recentering", "damping"}
    if not isinstance(doc, dict):
        errors.append("solver: expected a mapping")
        return None
    for key in set(doc) - known:
        errors.append("solver.%s: unknown option" % key)
    kwargs = {k: doc[k] for k in known if k in doc}
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

    errors = []
    warnings = []
    unknown = set(doc) - _TOP_KEYS
    for key in sorted(unknown):
        msg = "unknown key %r" % key
        (errors if strict else warnings).append(msg)

    command = doc.get("command")
    if command not in COMMANDS:
        errors.append("command: expected one of %s, got %r"
                      % (", ".join(COMMANDS), command))
        raise ConfigError(errors)

    kwargs = {"command": command, "warnings": warnings}

    if command in _POTENTIAL_COMMANDS:
        if "potential" not in doc:
            errors.append("potential: required for command %r" % command)
        else:
            _check_potential(doc["potential"], "potential", errors)
            kwargs["potential"] = doc["potential"]
        if "levels" not in doc:
            errors.append("levels: required for command %r" % command)
        else:
            minimum = {"family": 2, "expand": 3}.get(command, 1)
            _check_levels(doc["levels"], "levels", errors, minimum)
            kwargs["levels"] = doc["levels"]
        if command in ("family", "expand") and isinstance(doc.get("levels"), list):
            ls = [m for m in doc["levels"] if isinstance(m, int)]
            if ls and any(b <= a for a, b in zip(ls, ls[1:])):
                errors.append("levels: must be strictly increasing for %r"
                              % command)

    if command == "probe":
        if "seeds" not in doc:
            errors.append("seeds: required for command 'probe'")
        elif not isinstance(doc["seeds"], list) or len(doc["seeds"]) < 2:
            errors.append("seeds: expected a list of at least two potential "
                          "descriptors")
        else:
            for i, s in enumerate(doc["seeds"]):
                _check_potential(s, "seeds[%d]" % i, errors)
            kwargs["seeds"] = doc["seeds"]
        if "levels" not in doc:
            errors.append("levels: required for command 'probe'")
        else:
            _check_levels(doc["levels"], "levels", errors)
            kwargs["levels"] = doc["levels"]

    if command == "fourier":
        sample = doc.get("sample")
        if sample is None:
            errors.append("sample: required for command 'fourier'")
        elif not isinstance(sample, dict) or \
                not isinstance(sample.get("cos"), list):
            errors.append("sample: expected {cos: [...], sin: [...]} "
                          "trigonometric coefficients")
        else:
            kwargs["sample"] = sample
        profiles = doc.get("profiles")
        if profiles is None:
            errors.append("profiles: required for command 'fourier'")
        elif not isinstance(profiles, list) or len(profiles) < 2 or \
                not all(isinstance(p, (int, float)) for p in profiles):
            errors.append("profiles: expected a list of at least two "
                          "smoothing margins")
        else:
            kwargs["profiles"] = profiles
        m_max = doc.get("m_max", 20)
        if not isinstance(m_max, int) or m_max < 0:
            errors.append("m_max: expected a non-negative integer")
        else:
            kwargs["m_max"] = m_max

    if "solver" in doc:
        solver = _check_solver(doc["solver"], errors)
        if solver is not None:
            kwargs["solver"] = solver

    if "quadrature" in doc:
        quad = doc["quadrature"]
        if not isinstance(quad, dict):
            errors.append("quadrature: expected a mapping")
        else:
            for key in set(quad) - {"window", "grid", "order"}:
                errors.append("quadrature.%s: unknown option" % key)
            for key in ("window", "grid", "order"):
                if key in quad and not isinstance(quad[key], (int, float)):
                    errors.append("quadrature.%s: expected a number" % key)
            kwargs["quadrature"] = {k: quad[k] for k in ("window", "grid", "order")
                                    if k in quad}

    if "output" in doc:
        out = doc["output"]
        if not isinstance(out, dict):
            errors.append("output: expected a mapping")
        else:
            for key in set(out) - {"directory", "tables"}:
                errors.append("output.%s: unknown option" % key)
            if "directory" in out and not isinstance(out["directory"], str):
                errors.append("output.directory: expected a path string")
            if "tables" in out and not isinstance(out["tables"], bool):
                errors.append("output.tables: expected true or false")
            kwargs["output"] = out

    if "weight" in doc:
        if not isinstance(doc["weight"], (int, float)):
            errors.append("weight: expected a number")
        else:
            kwargs["weight"] = float(doc["weight"])
    if "freeze_weight" in doc:
        if not isinstance(doc["freeze_weight"], (int, float)):
            errors.append("freeze_weight: expected a number")
        else:
            kwargs["freeze_weight"] = float(doc["freeze_weight"])

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**kwargs)
