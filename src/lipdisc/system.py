"""Continuous-time plants dx/dt = A x + f(x, u), y = C x on a box region.

A :class:`SystemSpec` carries the matrices, the nonlinearity f as one
expression per state, the operating box D, the input box U (possibly
zero-dimensional) and the sampling time.  First and second derivative
expressions of f are differentiated symbolically once at construction
and cached, since the estimators evaluate them at thousands of points.
Instances are immutable and safe for concurrent evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex


class SpecValidationError(ValueError):
    """A system description is inconsistent; ``path`` names the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True, eq=False)
class BoxRegion:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise SpecValidationError("region", "lower and upper must be equal-length vectors")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise SpecValidationError("region", "bounds must be finite")
        if np.any(lower > upper):
            raise SpecValidationError("region", "lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def scaled(self, factor: float) -> "BoxRegion":
        """Box with the same center and widths scaled by ``factor``."""
        c, h = self.center, 0.5 * factor * self.width
        return BoxRegion(c - h, c + h)

    @staticmethod
    def empty() -> "BoxRegion":
        return BoxRegion(np.zeros(0), np.zeros(0))


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """The plant dx/dt = A x + f(x, u) with y = C x, on D x U."""

    name: str
    a: np.ndarray
    c: np.ndarray
    f: tuple
    region: BoxRegion
    input_region: BoxRegion = field(default_factory=BoxRegion.empty)
    sampling_time: float = 0.1

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f", tuple(self.f))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpecValidationError("A", f"must be square, got shape {a.shape}")
        n = a.shape[0]
        if not np.all(np.isfinite(a)):
            raise SpecValidationError("A", "entries must be finite")
        if c.ndim != 2 or c.shape[1] != n:
            raise SpecValidationError("C", f"must have {n} columns, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise SpecValidationError("C", "entries must be finite")
        if len(self.f) != n:
            raise SpecValidationError("f", f"expected {n} components, got {len(self.f)}")
        if self.region.dim != n:
            raise SpecValidationError("region", f"dimension {self.region.dim} != n = {n}")
        m = self.input_region.dim
        t = float(self.sampling_time)
        object.__setattr__(self, "sampling_time", t)
        if not (t > 0.0 and np.isfinite(t)):
            raise SpecValidationError("T", f"sampling time must be positive and finite, got {t}")
        for i, comp in enumerate(self.f):
            max_x, max_u = ex.max_indices(comp)
            if max_x > n:
                raise SpecValidationError(f"f[{i}]", f"references x{max_x} but n = {n}")
            if max_u > m:
                raise SpecValidationError(f"f[{i}]", f"references u{max_u} but m = {m}")
        if not (np.all(self.region.lower <= 0.0) and np.all(self.region.upper >= 0.0)):
            warnings.warn(
                f"region of system {self.name!r} does not contain the origin; "
                "estimates remain valid on the given box",
                UserWarning,
                stacklevel=2,
            )
        # cache symbolic derivatives: jac[i][j] = df_i/dx_j,
        # hess[i][j][k] = d^2 f_i / dx_j dx_k
        names = [f"x{j + 1}" for j in range(n)]
        jac = tuple(
            tuple(ex.differentiate(comp, names[j]) for j in range(n)) for comp in self.f
        )
        hess = tuple(
            tuple(
                tuple(ex.differentiate(jac[i][j], names[k]) for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        object.__setattr__(self, "_jac_exprs", jac)
        object.__setattr__(self, "_hess_exprs", hess)
        # constant entries once, as arrays, for the batch evaluators
        flat_jac = [e for row in jac for e in row]
        flat_hess = [e for plane in hess for row in plane for e in row]
        object.__setattr__(self, "_jac_template", _template(flat_jac, (n, n)))
        object.__setattr__(self, "_hess_template", _template(flat_hess, (n, n, n)))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.input_region.dim

    @property
    def p(self) -> int:
        return self.c.shape[0]

    def with_sampling_time(self, t: float) -> "SystemSpec":
        return replace(self, sampling_time=t)

    # ------------------------------------------------------------------
    # pointwise evaluation

    def eval_f(self, x, u=()) -> np.ndarray:
        """Nonlinear part f(x, u) as a length-n vector."""
        return np.array([ex.evaluate(comp, x, u) for comp in self.f])

    def jacobian(self, x, u=()) -> np.ndarray:
        """df/dx at (x, u); entry (i, j) = df_i/dx_j."""
        n = self.n
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = ex.evaluate(self._jac_exprs[i][j], x, u)
        return out

    def second_derivative(self, x, u=()) -> np.ndarray:
        """d^2 f/dx^2 at (x, u): an (n, n, n) tensor, symmetric in (j, k)."""
        n = self.n
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i, j, k] = ex.evaluate(self._hess_exprs[i][j][k], x, u)
        return out

    # ------------------------------------------------------------------
    # vectorized evaluation; bad samples come back non-finite

    def eval_f_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        cnt = x.shape[0]
        out = np.empty((cnt, self.n))
        for i, comp in enumerate(self.f):
            out[:, i] = ex.evaluate_batch(comp, x, u)
        return out

    def jacobian_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _fill_batch(self._jac_template, x, u)

    def second_derivative_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _fill_batch(self._hess_template, x, u)

    # ------------------------------------------------------------------
    # construction from plain data (the JSON system-spec object)

    @staticmethod
    def from_dict(data: dict) -> "SystemSpec":
        if not isinstance(data, dict):
            raise SpecValidationError("$", "system spec must be a JSON object")
        name = _require(data, "name", str)
        a = _matrix(data, "A")
        c = _matrix(data, "C")
        raw_f = _require(data, "f", list)
        f = []
        for i, text in enumerate(raw_f):
            if not isinstance(text, str):
                raise SpecValidationError(f"f[{i}]", "expression must be a string")
            try:
                f.append(ex.parse(text))
            except ex.ExprSyntaxError as err:
                raise SpecValidationError(f"f[{i}]", str(err)) from err
        region = _box(data, "region", required=True)
        input_region = _box(data, "input_region", required=False)
        t = data.get("T")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise SpecValidationError("T", "sampling time must be a number")
        return SystemSpec(
            name=name,
            a=a,
            c=c,
            f=tuple(f),
            region=region,
            input_region=input_region,
            sampling_time=float(t),
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "A": self.a.tolist(),
            "C": self.c.tolist(),
            "f": [ex.unparse(comp) for comp in self.f],
            "region": {
                "lower": self.region.lower.tolist(),
                "upper": self.region.upper.tolist(),
            },
            "T": self.sampling_time,
        }
        if self.m > 0:
            out["input_region"] = {
                "lower": self.input_region.lower.tolist(),
                "upper": self.input_region.upper.tolist(),
            }
        return out


def _template(entries: list, shape: tuple) -> tuple[np.ndarray, tuple]:
    """Split a flattened stack of derivative trees into an array holding
    every constant entry and the distinct non-constant trees, each with
    the flat indices of the entries it fills."""
    consts = np.zeros(len(entries))
    live: dict[str, tuple] = {}
    for idx, tree in enumerate(entries):
        if isinstance(tree, ex.Const):
            consts[idx] = tree.value
        else:
            # keyed by repr, which unlike == tells 0.0 from -0.0
            live.setdefault(repr(tree), (tree, []))[1].append(idx)
    return consts.reshape(shape), tuple((tree, np.array(idx)) for tree, idx in live.values())


def _fill_batch(template: tuple, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(N, *shape) stack: the constants broadcast to every row, then each
    live tree evaluated once over the batch.  Bitwise equal to evaluating
    every entry, since a constant evaluates to a full array of its value."""
    consts, live = template
    out = np.empty((x.shape[0],) + consts.shape)
    out[...] = consts
    flat = out.reshape(x.shape[0], consts.size)
    for tree, idx in live:
        flat[:, idx] = ex.evaluate_batch(tree, x, u)[:, None]
    return out


def _require(data: dict, key: str, typ):
    if key not in data:
        raise SpecValidationError(key, "missing required field")
    value = data[key]
    if not isinstance(value, typ):
        raise SpecValidationError(key, f"expected {typ.__name__}")
    return value


def _matrix(data: dict, key: str) -> np.ndarray:
    rows = _require(data, key, list)
    if not rows or not all(isinstance(r, list) for r in rows):
        raise SpecValidationError(key, "expected a non-empty array of arrays")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SpecValidationError(f"{key}[{i}]", f"row length {len(row)} != {width}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SpecValidationError(f"{key}[{i}][{j}]", "expected a number")
    return np.asarray(rows, dtype=float)


def _box(data: dict, key: str, required: bool) -> BoxRegion:
    if key not in data:
        if required:
            raise SpecValidationError(key, "missing required field")
        return BoxRegion.empty()
    obj = data[key]
    if not isinstance(obj, dict) or "lower" not in obj or "upper" not in obj:
        raise SpecValidationError(key, "expected an object with 'lower' and 'upper'")
    for side in ("lower", "upper"):
        vec = obj[side]
        if not isinstance(vec, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in vec
        ):
            raise SpecValidationError(f"{key}.{side}", "expected an array of numbers")
    try:
        return BoxRegion(np.asarray(obj["lower"], float), np.asarray(obj["upper"], float))
    except SpecValidationError as err:
        raise SpecValidationError(f"{key}", str(err)) from err
