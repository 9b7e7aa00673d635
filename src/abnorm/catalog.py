"""Catalog of 4D real Lie algebras: bracket tables, parameter constraints,
automorphism families and the known generating subspaces.

The data lives in ``data/catalog.json`` (override with the ABNORM_CATALOG
environment variable); this module checks it when it loads, compiles each
expression once and exposes typed accessors.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import CodeType

import numpy as np

from .lie import StructureConstants, automorphism_defect
from .tolerances import AUTOMORPHISM_TOL

FAMILIES = [
    "g3.1+g1", "g3.2+g1", "g3.3+g1", "g3.4+g1", "g3.5+g1", "g3.6+g1",
    "g3.7+g1", "g4.1", "g4.2", "g4.3", "g4.4", "g4.5", "g4.6", "g4.7",
    "g4.8", "g4.9", "g4.10",
]


class CatalogError(ValueError):
    pass


class CatalogCorruptError(CatalogError):
    """The catalog data file is unreadable or structurally invalid."""


@dataclass(frozen=True)
class _Expr:
    """A catalog expression, checked and compiled, with its source text."""

    text: str
    code: CodeType


def _eval(expr: _Expr, env: dict) -> float:
    try:
        value = eval(expr.code, {"__builtins__": {}}, env)  # noqa: S307 - checked at load
    except OverflowError as exc:  # float ** raises where * would give inf
        raise CatalogError(f"catalog expression {expr.text!r} overflows: "
                           "parameters out of numerical range") from exc
    except ZeroDivisionError as exc:
        raise CatalogCorruptError(f"catalog expression {expr.text!r} divides by zero") from exc
    try:
        return float(value)
    # the parameters are floats, so only the file's integer constants give an
    # integer beyond the float range
    except OverflowError as exc:
        raise CatalogCorruptError(f"catalog expression {expr.text!r} has no float value: "
                                  f"{exc}") from exc


#: the syntax of catalog expressions: numbers, names, arithmetic, comparisons
#: and ``and``/``or``
_SYNTAX = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp,
           ast.Compare, ast.BoolOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
           ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.And, ast.Or)
_PARAMS = {"alpha", "beta"}
_FREE = {f"a{i}" for i in range(1, 8)}
_DISCRETE = {"sigma"}
_FAMILY_KEYS = {"name", "params", "param_constraint", "constraint_text", "rows",
                "automorphisms", "known_subspace"}


def _expr(text, names) -> _Expr:
    """``text`` compiled, after checking that it is an expression over
    ``names`` in the catalog syntax."""
    if not isinstance(text, str):
        raise CatalogCorruptError(f"expression {text!r:.60} is not a string")
    try:
        tree = ast.parse(text, mode="eval")
        code = compile(tree, "<catalog>", "eval")
    # ValueError: a null byte; RecursionError and MemoryError: the parser's
    # nesting limits
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise CatalogCorruptError(f"expression {text!r:.60} does not parse: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in names:
            raise CatalogCorruptError(f"expression {text!r:.60} reads the unknown name "
                                      f"{node.id!r}")
        if not isinstance(node, _SYNTAX) or (
                isinstance(node, ast.Constant) and type(node.value) not in (int, float, bool)):
            raise CatalogCorruptError(f"expression {text!r:.60} may not contain "
                                      f"{type(node).__name__}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not (
                isinstance(node.left, ast.Name) and isinstance(node.right, ast.Constant)
                and type(node.right.value) is int and 0 <= node.right.value <= 4):
            # a bounded power evaluates at once; 9 ** 999999999 would run for minutes
            raise CatalogCorruptError(f"expression {text!r:.60} has a power that is not "
                                      "a name to an integer 0..4")
    return _Expr(text, code)


def _list(x, n: int | None = None) -> list:
    if not isinstance(x, list) or n is not None and len(x) != n:
        raise CatalogCorruptError(f"expected a list of {n or 'any number of'} "
                                  f"entries, got {x!r:.60}")
    return x


def _names(x, allowed: set) -> list:
    if not set(_list(x)) <= allowed:
        raise CatalogCorruptError(f"names {x!r:.60} not among {sorted(allowed)}")
    return x


def _index(k) -> int:
    """A 1-based basis index, 1..4, of a bracket row."""
    i = int(k) if isinstance(k, str) else k
    if type(i) is not int or not 1 <= i <= 4:
        raise CatalogCorruptError(f"basis index {k!r:.60} is not 1..4")
    return i


def _compile_family(raw) -> dict:
    """The family entry with its structure checked and every expression
    compiled."""
    if not isinstance(raw, dict):
        raise CatalogCorruptError(f"catalog family entry {raw!r:.60} is not an object")
    name = raw.get("name")
    try:
        if set(raw) != _FAMILY_KEYS:
            raise CatalogCorruptError(f"keys {sorted(set(raw) ^ _FAMILY_KEYS)} missing or "
                                      "unknown")
        if not isinstance(name, str) or not isinstance(raw["constraint_text"], str):
            raise CatalogCorruptError("name and constraint_text must be strings")
        params = _names(raw["params"], _PARAMS)
        autos = []
        for b in _list(raw["automorphisms"]):
            discrete = b.get("discrete", {})
            if not set(discrete) <= _DISCRETE or not all(
                    _list(c) and all(type(v) in (int, float) for v in c)
                    for c in discrete.values()):
                raise CatalogCorruptError("discrete automorphism parameters must be "
                                          "sigma with a list of numbers")
            free = _names(b["free"], _FREE)
            names = {*params, *free, *discrete}
            autos.append({
                "condition": _expr(b["condition"], params),
                "free": free,
                "discrete": discrete,
                "nonzero": [_expr(e, names) for e in _list(b["nonzero"])],
                "matrix": [[_expr(e, names) for e in _list(row, 4)]
                           for row in _list(b["matrix"], 4)],
            })
        ks = raw["known_subspace"]
        if ks is not None:
            span = [[float(x) for x in _list(v, 4)] for v in _list(ks["span"], 2)]
            if not np.isfinite(span).all():
                raise CatalogCorruptError("known subspace must be finite")
            ks = {"condition": _expr(ks["condition"], params), "span": span}
        return {
            "name": name,
            "params": params,
            "param_constraint": _expr(raw["param_constraint"], params),
            "constraint_text": raw["constraint_text"],
            "rows": [
                {"condition": _expr(row["condition"], params),
                 "brackets": [(_index(i), _index(j),
                               {_index(k): _expr(e, params) for k, e in comps.items()})
                              for i, j, comps in _list(row["brackets"])]}
                for row in _list(raw["rows"])
            ],
            "automorphisms": autos,
            "known_subspace": ks,
        }
    except CatalogCorruptError as exc:
        raise CatalogCorruptError(f"catalog family {name!r:.40}: {exc}") from None
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CatalogCorruptError(f"catalog family {name!r:.40}: malformed entry: "
                                  f"{exc!r:.80}") from exc


def _normalize_family(name: str) -> str:
    s = name.strip().lower().replace(" ", "")
    s = s.replace("⊕", "+").replace("+r", "+g1")
    m = re.fullmatch(r"g(\d)\.?(\d+)(\+g1)?", s)
    if not m:
        raise CatalogError(f"unknown family {name!r}")
    cand = f"g{m.group(1)}.{m.group(2)}" + ("+g1" if m.group(1) == "3" else "")
    if cand not in FAMILIES:
        raise CatalogError(f"unknown family {name!r}")
    return cand


@dataclass(frozen=True)
class AlgebraId:
    family: str
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", _normalize_family(self.family))
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            try:
                finite = val is None or math.isfinite(val)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise CatalogError(f"{self.family}: {name} must be finite, got {val!r}")

    @property
    def params(self) -> dict:
        env = {}
        if self.alpha is not None:
            env["alpha"] = float(self.alpha)
        if self.beta is not None:
            env["beta"] = float(self.beta)
        return env

    def __str__(self):
        parts = [self.family]
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if self.beta is not None:
            parts.append(f"beta={self.beta:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class AutomorphismMatrix:
    m: np.ndarray


@dataclass
class AutomorphismFamily:
    """Parametrized automorphism family of one catalog algebra."""

    algebra_id: AlgebraId
    branches: list

    def matrix(self, branch: int, **values) -> AutomorphismMatrix:
        spec = self.branches[branch]
        env = dict(self.algebra_id.params)
        for name in spec["free"]:
            env[name] = float(values.get(name, 0.0))
        for name, choices in spec.get("discrete", {}).items():
            env[name] = float(values.get(name, choices[0]))
            if env[name] not in [float(c) for c in choices]:
                raise CatalogError(f"{name} must be one of {choices}")
        for expr in spec["nonzero"]:
            if _eval(expr, env) == 0:
                raise CatalogError(f"constraint {expr.text} != 0 violated")
        m = np.array(
            [[_eval(entry, env) for entry in row] for row in spec["matrix"]]
        )
        return AutomorphismMatrix(m=m)

    def sample(self, rng: np.random.Generator, scale: float = 3.0) -> AutomorphismMatrix:
        """Random member with parameters in [-scale, scale], constraints respected."""
        branch = int(rng.integers(len(self.branches)))
        spec = self.branches[branch]
        while True:
            values = {name: float(rng.uniform(-scale, scale)) for name in spec["free"]}
            for name, choices in spec.get("discrete", {}).items():
                values[name] = float(rng.choice(choices))
            env = dict(self.algebra_id.params) | values
            # keep a margin away from the singular locus
            if all(abs(_eval(expr, env)) > 0.05 for expr in spec["nonzero"]):
                return self.matrix(branch, **values)


@dataclass(frozen=True)
class KnownSubspace:
    span: list


def _load_raw() -> dict:
    return _load_raw_cached(os.environ.get("ABNORM_CATALOG"))


@lru_cache(maxsize=None)
def _load_raw_cached(path: str | None) -> dict:
    try:
        if path is None:
            text = (resources.files(__package__) / "data" / "catalog.json").read_text()
        else:
            with open(path) as fh:
                text = fh.read()
        families = _list(json.loads(text)["families"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CatalogCorruptError(f"cannot load catalog data: {exc}") from exc
    by_name = {fam["name"]: fam for fam in map(_compile_family, families)}
    missing = set(FAMILIES) - set(by_name)
    if missing:
        raise CatalogCorruptError(f"catalog data missing families: {sorted(missing)}")
    return by_name


def _family_entry(id: AlgebraId) -> dict:
    entry = _load_raw()[id.family]
    env = id.params
    for name in entry["params"]:
        if name not in env:
            raise CatalogError(f"{id.family} requires parameter {name}")
    for name in env:
        if name not in entry["params"]:
            raise CatalogError(f"{id.family} takes no parameter {name}")
    if not _eval(entry["param_constraint"], env):
        raise CatalogError(
            f"invalid parameters for {id.family}: need {entry['constraint_text']}"
        )
    return entry


def instantiate(id: AlgebraId) -> StructureConstants:
    """Bracket table of the catalog algebra with the given parameters."""
    entry = _family_entry(id)
    env = id.params
    for row in entry["rows"]:
        if _eval(row["condition"], env):
            brackets = [
                (i, j, {k: _eval(expr, env) for k, expr in comps.items()})
                for i, j, comps in row["brackets"]
            ]
            return StructureConstants.from_brackets(brackets)
    raise CatalogCorruptError(f"no catalog bracket row matches parameters of {id}")


def automorphism_family(id: AlgebraId) -> AutomorphismFamily:
    """The tabulated automorphism family, or 'no table entry' error."""
    entry = _family_entry(id)
    env = id.params
    branches = [b for b in entry["automorphisms"] if _eval(b["condition"], env)]
    if not branches:
        raise CatalogError(f"no table entry for automorphisms of {id}")
    return AutomorphismFamily(algebra_id=id, branches=branches)


def known_generating_subspace(id: AlgebraId) -> KnownSubspace | None:
    """The generating 2D subspace exhibited in the proofs, if one exists."""
    entry = _family_entry(id)
    ks = entry["known_subspace"]
    if ks is None or not _eval(ks["condition"], id.params):
        return None
    span = [np.array(vec) for vec in ks["span"]]
    return KnownSubspace(span=span)


def list_families() -> list[str]:
    return list(FAMILIES)


def default_id(family: str, alpha: float | None = None, beta: float | None = None) -> AlgebraId:
    """AlgebraId with representative parameters filled in where needed."""
    family = _normalize_family(family)
    defaults = {
        "g3.4+g1": (0.5, None),
        "g3.5+g1": (0.5, None),
        "g4.2": (2.0, None),
        "g4.5": (0.25, 0.5),
        "g4.6": (1.0, 0.5),
        "g4.8": (0.5, None),
        "g4.9": (0.5, None),
    }
    d_alpha, d_beta = defaults.get(family, (None, None))
    return AlgebraId(
        family,
        alpha if alpha is not None else d_alpha,
        beta if beta is not None else d_beta,
    )


def verify_automorphism(alg: StructureConstants, m: AutomorphismMatrix) -> bool:
    return automorphism_defect(alg, m.m) <= AUTOMORPHISM_TOL
