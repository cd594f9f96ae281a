"""Continuous-time plants dx/dt = A x + f(x, u), y = C x on a box region.

A :class:`SystemSpec` carries the matrices, the nonlinearity f as one
expression per state, the operating box D, the input box U (possibly
zero-dimensional) and the sampling time.  First and second derivative
expressions of f are differentiated symbolically once at construction
and cached, since the estimators evaluate them at thousands of points;
a point evaluates them through compiled kernels built on first use.
Instances are immutable apart from that cache and safe for concurrent
evaluation.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

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
        object.__setattr__(self, "sampling_time", _sampling_time(self.sampling_time))
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
        # symbolic derivatives in C order, jac[i*n + j] = df_i/dx_j and
        # hess[(i*n + j)*n + k] = d^2 f_i / dx_j dx_k, cached as templates
        # that split off the constant entries for every evaluator
        names = [f"x{j + 1}" for j in range(n)]
        jac = [ex.differentiate(comp, name) for comp in self.f for name in names]
        hess = [ex.differentiate(dj, name) for dj in jac for name in names]
        object.__setattr__(self, "_f_template", _Template(self.f, (n,)))
        object.__setattr__(self, "_jac_template", _Template(jac, (n, n)))
        object.__setattr__(self, "_hess_template", _Template(hess, (n, n, n)))

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
        """The same plant at sampling time ``t``.  The copy shares the
        derivative templates and their kernels, which depend only on f."""
        out = copy.copy(self)
        object.__setattr__(out, "sampling_time", _sampling_time(t))
        return out

    # ------------------------------------------------------------------
    # pointwise evaluation

    def eval_f(self, x, u=()) -> np.ndarray:
        """Nonlinear part f(x, u) as a length-n vector."""
        return _fill_point(self._f_template, x, u)

    def jacobian(self, x, u=()) -> np.ndarray:
        """df/dx at (x, u); entry (i, j) = df_i/dx_j."""
        return _fill_point(self._jac_template, x, u)

    def second_derivative(self, x, u=()) -> np.ndarray:
        """d^2 f/dx^2 at (x, u): an (n, n, n) tensor, symmetric in (j, k)."""
        return _fill_point(self._hess_template, x, u)

    @property
    def hessian_support(self) -> tuple:
        """The (i, j, k) of every entry of d^2 f/dx^2 that is not a
        constant zero, in C order; every other entry is 0.0 or -0.0."""
        return self._hess_template.support

    # ------------------------------------------------------------------
    # vectorized evaluation; bad samples come back non-finite

    def eval_f_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _fill_batch(self._f_template, x, u)

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


class _Template:
    """A flattened stack of trees in C order split into a flat array
    holding every constant entry and the distinct non-constant trees,
    each with the flat indices of the entries it fills.  ``support``
    lists, in C order, the index tuples of the entries that are not a
    constant zero.  The point kernel of the live trees is generated on
    the first pointwise call, so a spec that is only evaluated in
    batches never builds it."""

    def __init__(self, entries, shape: tuple):
        self.shape = shape
        self.consts = np.zeros(int(np.prod(shape)))
        live: dict[str, tuple] = {}
        for j, tree in enumerate(entries):
            if isinstance(tree, ex.Const):
                self.consts[j] = tree.value
            else:
                # keyed by repr, which unlike == tells 0.0 from -0.0
                live.setdefault(repr(tree), (tree, []))[1].append(j)
        self.live = tuple((tree, tuple(filled)) for tree, filled in live.values())
        nonzero = self.consts != 0.0
        nonzero[[j for _, filled in self.live for j in filled]] = True
        self.support = tuple(zip(*(ix.tolist() for ix in np.nonzero(nonzero.reshape(shape)))))
        self.kernel = None


def _fill(out: np.ndarray, live: tuple, values) -> None:
    """Store each live tree's value from ``values`` in every entry it
    fills of ``out``, which holds the constants, entries on the first
    axis.  Equal to evaluating every entry, since a constant evaluates
    to its value."""
    for (_, filled), v in zip(live, values):
        for j in filled:
            out[j] = v


def _fill_point(template: _Template, x, u) -> np.ndarray:
    """One point through the template's kernel.  On an error the walk
    runs instead: a domain error raises for the first failing entry,
    naming its node, and an overflow saturates."""
    live = template.live
    if template.kernel is None:
        template.kernel = ex.point_kernel([t for t, _ in live], [j for _, j in live])
    out = template.consts.copy()
    try:
        template.kernel(x, u, out)
    except (ArithmeticError, ValueError, IndexError):
        _fill(out, live, [ex.evaluate(tree, x, u) for tree, _ in live])
    return out.reshape(template.shape)


def _fill_batch(template: _Template, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """An (N, *shape) stack; bad rows come back non-finite."""
    out = np.empty((x.shape[0], template.consts.shape[0]))
    out[...] = template.consts
    _fill(out.T, template.live, (ex.evaluate_batch(tree, x, u) for tree, _ in template.live))
    return out.reshape(x.shape[:1] + template.shape)


def _sampling_time(t) -> float:
    t = float(t)
    if not (t > 0.0 and np.isfinite(t)):
        raise SpecValidationError("T", f"sampling time must be positive and finite, got {t}")
    return t


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
