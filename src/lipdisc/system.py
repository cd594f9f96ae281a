"""Continuous-time plants dx/dt = A x + f(x, u), y = C x on a box region.

A :class:`SystemSpec` carries the matrices, the nonlinearity f as one
expression per state, the operating box D, the input box U (possibly
zero-dimensional) and the sampling time.  First and second derivative
expressions of f are differentiated symbolically once at construction
and cached as templates, since the estimators evaluate them at
thousands of points; a batch evaluates f, J and H, and a point J,
through compiled kernels built on first use.  The Taylor-Lie terms and
the reference integrator belong to :mod:`lipdisc.discretize`, which
keeps them in a cache on the spec that every sampling time shares.
Instances are immutable apart from those caches and safe for concurrent
evaluation.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex


class SpecValidationError(ValueError):
    """An input is invalid: ``path`` names a spec field or a library
    parameter, ``message`` says what is wrong with it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


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

    def contains(self, x: np.ndarray):
        """Whether a point, or each row of a stack of points, lies in the
        box; a point with a NaN coordinate does not."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower) & (x <= self.upper), axis=-1)

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
        if n == 0:
            raise SpecValidationError("A", "must have at least one state, got shape (0, 0)")
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
                stacklevel=3,  # past the dataclass __init__ to its caller
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
        object.__setattr__(self, "_discretize_cache", {})  # filled by discretize only

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
        """The same plant at sampling time ``t``.  The copy shares every
        template and kernel, built or yet to be built, and the cache of
        :mod:`lipdisc.discretize`, since none depends on T."""
        out = copy.copy(self)
        object.__setattr__(out, "sampling_time", _sampling_time(t))
        return out

    # ------------------------------------------------------------------
    # pointwise evaluation

    def jacobian(self, x, u=()) -> np.ndarray:
        """df/dx at (x, u); entry (i, j) = df_i/dx_j."""
        return np.array(self._jac_template.point(x, u)).reshape(self._jac_template.shape)

    # ------------------------------------------------------------------
    # vectorized evaluation; bad samples come back non-finite

    def eval_f_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._f_template.batch(x, u)

    def jacobian_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._jac_template.batch(x, u)

    def second_derivative_batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._hess_template.batch(x, u)

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


class _Template:
    """A flattened stack of trees in C order split into the constant
    entries and the live ones, each tree with its flat index.  ``support``
    lists, in C order, the index tuples of the entries that are not a
    constant zero, and ``support_flat`` their flat indices.  The point and
    the batch kernels of the live trees, which compute equal subtrees once,
    are generated on first use."""

    def __init__(self, entries, shape: tuple):
        self.shape = shape
        self.consts = np.zeros(int(np.prod(shape)))
        live = []
        for j, tree in enumerate(entries):
            if isinstance(tree, ex.Const):
                self.consts[j] = tree.value
            else:
                live.append((tree, j))
        self.live = tuple(live)
        nonzero = self.consts != 0.0
        nonzero[[j for _, j in self.live]] = True
        self.support = tuple(zip(*(ix.tolist() for ix in np.nonzero(nonzero.reshape(shape)))))
        self.support_flat = tuple(np.flatnonzero(nonzero).tolist())
        self.const_list = self.consts.tolist()
        self.kernel, self.batch_kernels = None, {}  # the batch kernel for each (n, m)

    def point(self, x, u) -> list:
        """Every entry at one point as a flat list of floats in C order,
        through the point kernel.  On an error the walk runs instead: a
        domain error raises for the first failing entry in C order, naming
        its node, and an overflow saturates."""
        if self.kernel is None:
            self.kernel = ex.point_kernel(self.live)
        out = self.const_list.copy()
        try:
            return self.kernel(x, u, out)
        except (ArithmeticError, ValueError, IndexError):
            for tree, j in self.live:
                out[j] = ex.evaluate(tree, x, u)
            return out

    def batch(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """An (N, *shape) stack; bad rows come back non-finite."""
        out = np.empty((x.shape[0], self.consts.shape[0]))
        out[...] = self.consts
        self._batch_into(out.T, x, u)
        return out.reshape(x.shape[:1] + self.shape)

    def support_batch(self, x: np.ndarray, u: np.ndarray) -> list:
        """The entries at ``support`` over the rows of (x, u), in its
        order: a live entry as its column, or as a scalar if it reads no
        variable, and a constant one as its float.
        No (N, *shape) stack is filled."""
        values = self._batch_into(self.const_list.copy(), x, u)
        return [values[j] for j in self.support_flat]

    def _batch_into(self, out, x, u):
        """Store the live entries over the rows of (x, u) into ``out``, the
        constants with entries on the first axis, through the batch kernel."""
        x, u = np.asarray(x, dtype=float).T, np.asarray(u, dtype=float).T
        dims = len(x), len(u)  # a variable beyond them raises ExprEvalError naming it
        if dims not in self.batch_kernels:
            self.batch_kernels[dims] = ex.batch_kernel(self.live, *dims)
        with np.errstate(all="ignore"):
            return self.batch_kernels[dims](x, u, out)


def _sampling_time(t, path: str = "T") -> float:
    """The sampling-time rule of the spec and of every study time: a
    positive finite number, as a float; ``path`` names it in the error."""
    t = float(t)
    if not (t > 0.0 and np.isfinite(t)):
        raise SpecValidationError(path, f"must be positive and finite, got {t!r}")
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
        raise SpecValidationError(key, err.message) from err
