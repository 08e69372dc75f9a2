"""System files (schema 1): one JSON document, read and checked on load.

:func:`load_system_file` reads a document and :class:`SystemFile` checks
each key it holds: bad input is an :class:`~opfrob.errors.InputError`
with a one-line message (exit code 2).  New input checks belong here; the
keys each subcommand requires are checked in ``opfrob.cli``.
"""

from __future__ import annotations

import json
import sys

from .errors import InputError, OpfrobError
from .exprs import parse_expr
from .fields import OneFormField, OperatorField
from .frobalg import OperatorBasis
from .integ import QuadraticHamiltonian
from .sampling import (
    DEFAULT_GUARD,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SampleConfig,
)

# the largest sample count: a batch holds a few (count, n, n, n) stacks and
# the xi search a (count * 32, n, n) one, so 10^9 points would ask for tens
# of GiB
MAX_SAMPLES = 100_000


class SystemFile:
    """Parsed JSON system document (schema 1)."""

    def __init__(self, doc: dict, path: str = "<doc>"):
        if not isinstance(doc, dict):
            raise InputError(f"{path}: top level must be an object")
        if doc.get("schema") != 1:
            raise InputError(f"{path}: missing or unsupported schema version")
        self.dimension = n = _integer(doc.get("dimension"),
                                      f"{path}: dimension", 1)
        self.doc = doc
        self.path = path

        raw_fields = doc.get("fields", {})
        if not isinstance(raw_fields, dict):
            raise InputError(f"{path}: 'fields' must map names to grids")
        self.fields = {name: _parsed(f"{path}: field {name!r}",
                                     OperatorField.parse, grid, n)
                       for name, grid in raw_fields.items()}

        self.basis_names = doc.get("basis")
        if self.basis_names is not None and not (
                isinstance(self.basis_names, list)
                and all(isinstance(b, str) for b in self.basis_names)):
            raise InputError(f"{path}: basis must be a list of field names")
        self.covector = self._vector(doc, "covector")
        self.xi = self._vector(doc, "xi")
        self.candidate_name = doc.get("candidate")
        if not isinstance(self.candidate_name, (str, type(None))):
            raise InputError(f"{path}: candidate must be a field name")
        self.chart = doc.get("chart")
        if self.chart is not None:
            if not (isinstance(self.chart, list) and len(self.chart) == n
                    and all(isinstance(c, str) for c in self.chart)):
                raise InputError(
                    f"{path}: chart must be a list of {n} expressions")
            self.chart = [_parsed(f"{path}: chart", parse_expr, c, n)
                          for c in self.chart]
        self.initial_curve = self._number_rows(doc, "initial_curve")
        self.flow_order = _integer(doc.get("flow_order", 4),
                                   f"{path}: flow_order", 1)
        self.polynomials = self._number_rows(doc, "polynomials")
        self.one_form = None if "one_form" not in doc else _parsed(
            f"{path}: one_form", OneFormField.parse, doc["one_form"], n)
        self.hamiltonians = None if "hamiltonians" not in doc else _parsed(
            f"{path}: hamiltonians",
            lambda grids: [QuadraticHamiltonian.parse(g, n) for g in grids],
            doc["hamiltonians"])

    def _vector(self, doc, key):
        """``doc[key]`` as floats (None when absent): one finite number per
        coordinate, where a bool or a numeric string is not a number."""
        if key not in doc:
            return None
        v = doc[key]
        if not (isinstance(v, list)
                and all(type(x) in (int, float) for x in v)):
            raise InputError(f"{self.path}: {key} must be a number list")
        if len(v) != self.dimension:
            raise InputError(
                f"{self.path}: {key} needs {self.dimension} components")
        if not all(map(_is_number, v)):
            raise InputError(f"{self.path}: {key} components must be finite")
        return [float(x) for x in v]

    def _number_rows(self, doc, key):
        """``doc[key]`` (None when absent), checked to be one list of
        finite numbers per coordinate."""
        rows = doc.get(key)
        if rows is not None and not (
                isinstance(rows, list) and len(rows) == self.dimension
                and all(isinstance(r, list) and all(map(_is_number, r))
                        for r in rows)):
            raise InputError(f"{self.path}: {key} must be {self.dimension} "
                             "lists of finite numbers")
        return rows

    def basis_fields(self) -> list:
        if not self.basis_names:
            raise InputError(f"{self.path}: no basis listed")
        missing = [b for b in self.basis_names if b not in self.fields]
        if missing:
            raise InputError(f"{self.path}: basis names not defined: {missing}")
        return [self.fields[b] for b in self.basis_names]

    def basis(self) -> OperatorBasis:
        fields = self.basis_fields()
        try:
            return OperatorBasis(fields)
        except (OpfrobError, ValueError) as exc:
            raise InputError(f"{self.path}: {exc}")

    def sample_config(self, args) -> SampleConfig:
        """The ``sampling`` object, whose seed and count ``--seed`` and
        ``--samples`` replace; ``--guard`` is the default guard ``min``."""
        s = self.doc.get("sampling", {})
        if not isinstance(s, dict):
            raise InputError(f"{self.path}: sampling must be an object")
        seed = _seed(args, s.get("seed", DEFAULT_SEED),
                     f"{self.path}: sampling seed")
        count = _sample_count(args, s.get("samples", DEFAULT_SAMPLES))
        box = s.get("box", 1.0)
        if not (_is_number(box) and box > 0):
            raise InputError(f"{self.path}: sampling box must be a positive "
                             f"number, got {box!r}")
        guard_floor = args.guard or DEFAULT_GUARD
        guards = []
        try:
            for g in s.get("guards", []):
                floor = g.get("min", guard_floor)
                if not (_is_number(floor) and floor > 0):
                    raise InputError(
                        f"{self.path}: sampling guards: min must be a "
                        f"finite number above 0, got {floor!r}")
                guards.append((parse_expr(g["expr"], self.dimension),
                               float(floor)))
        except (OpfrobError, KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"{self.path}: sampling guards: {exc}")
        return SampleConfig(seed=seed, count=count, box=float(box),
                            guards=tuple(guards))


def options_config(args) -> SampleConfig:
    """The default sample config under ``--seed`` and ``--samples``."""
    return SampleConfig(seed=_seed(args, DEFAULT_SEED, "seed"),
                        count=_sample_count(args, DEFAULT_SAMPLES))


def _parsed(what: str, parse, *args):
    """``parse(*args)``; its errors are input errors about ``what``."""
    try:
        return parse(*args)
    except (OpfrobError, ValueError, TypeError) as exc:
        raise InputError(f"{what}: {exc}")


def _is_number(x) -> bool:
    # a finite float, or an integer that converts to one (nan fails too)
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _integer(value, what: str, least: int) -> int:
    """``value`` if it is an integer of at least ``least``; a float, a
    string or a bool is an input error, never truncated."""
    if type(value) is not int or value < least:
        raise InputError(
            f"{what} must be an integer of at least {least}, got {value!r}")
    return value


def _seed(args, default, what: str) -> int:
    """The sampling seed: ``--seed`` if given, else ``default``."""
    if args.seed is not None:
        return _integer(args.seed, "--seed", 0)
    return _integer(default, what, 0)


def _sample_count(args, default) -> int:
    """The sample count, ``--samples`` if given, else ``default``: from 1
    to MAX_SAMPLES."""
    count = args.samples if args.samples is not None else default
    if type(count) is not int:
        raise InputError(f"sample count must be an integer, got {count!r}")
    if count < 1:
        raise InputError(f"sample count must be at least 1, got {count}")
    if count > MAX_SAMPLES:
        raise InputError(f"sample count must be at most {MAX_SAMPLES}, "
                         f"got {count}")
    return count


def load_system_file(path: str) -> SystemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer literal of more digits than Python
        # converts, or arrays or objects nested beyond the recursion limit
        raise InputError(f"{path}: invalid JSON: {exc}")
    return SystemFile(doc, path)
