"""Uniform time grids on [0, T].

A grid with ``n`` cells has nodes ``0 = t_0 < ... < t_n = T`` and constant
step ``dt = T/n``.  Grid functions are sampled at the left endpoints
``t_0, ..., t_{n-1}``; integrals over [0, T] use the left rectangle rule
unless an operation documents otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    n: int

    @property
    def dt(self) -> float:
        return self.horizon / self.n

    @property
    def nodes(self) -> np.ndarray:
        """All n+1 nodes including the terminal time."""
        return np.linspace(0.0, self.horizon, self.n + 1)


def make_grid(horizon: float, n: int) -> TimeGrid:
    """Build a uniform grid on [0, horizon] with n cells.

    Parameters
    ----------
    horizon : float
        Terminal time T, strictly positive.
    n : int
        Number of cells, at least 2; an integral float is read as an int.
    """
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive and finite, got {horizon!r}")
    if not (isinstance(n, (int, np.integer)) or (isinstance(n, float) and n.is_integer())):
        raise InvalidArgumentError(f"grid cells must be an integer, got {n!r}")
    if n < 2:
        raise InvalidArgumentError(f"grid needs at least 2 cells, got {n}")
    return TimeGrid(float(horizon), int(n))


def coefficients(value, name: str, shape: tuple = (), shown: str = None):
    """A model or kernel coefficient as a float array of ``shape``, or as a float for shape ().

    A number or a one-element list fills a (d,) vector, and a number or a row reads as a matrix
    (np.atleast_2d).  A letter in ``shape`` takes any length, the same at each of its axes.  Any other
    shape ("<name> must be <shown>", by default the shape) and any non-finite entry is an InvalidArgumentError.
    """
    arr = np.array(value, dtype=float)
    if len(shape) == 1:
        if arr.shape not in ((), (1,), shape):
            raise InvalidArgumentError(f"{name} must be a number or a length-{shape[0]} list, got shape {arr.shape}")
        arr = np.broadcast_to(arr, shape).copy()
    arr = np.atleast_2d(arr) if len(shape) == 2 else arr
    sizes = {}
    if arr.ndim != len(shape) or any(sizes.setdefault(want, got) != got if isinstance(want, str) else want != got
                                     for want, got in zip(shape, arr.shape)):
        raise InvalidArgumentError(f"{name} must be {shown or str(shape or 'a number')}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite values")
    return arr if shape else float(arr)


def g0_nodes(g0, grid: TimeGrid, dim: int = None, name: str = "g0") -> np.ndarray:
    """A curve g0 sampled at all n+1 nodes, shape (n+1, dim), or (n+1,) for a scalar curve (dim None).

    g0 is a scalar, a callable of time, a (dim,) vector or a table of node
    values of the returned shape; ``name`` names it in the errors, which
    refuse any other shape and any non-finite sample.
    """
    shape = (grid.n + 1,) if dim is None else (grid.n + 1, dim)
    if callable(g0):
        g0 = [np.broadcast_to(np.asarray(g0(x), dtype=float), shape[1:]) for x in grid.nodes]
    arr = np.asarray(g0, dtype=float)
    if arr.shape not in ((), shape[1:], shape):
        shapes = f"({grid.n + 1},)" if dim is None else f"({dim},) or ({grid.n + 1}, {dim})"
        raise InvalidArgumentError(f"{name} must be scalar, callable, shape {shapes}; got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite values")
    return np.broadcast_to(arr, shape).copy()


def node_index(k, last: int, many: bool = False):
    """Node k as an int in [0, last], or with ``many`` an integer array of one node or a nonempty 1-d sequence.

    Any other index (a float or boolean, an empty or nested sequence, a node
    out of range) is an InvalidArgumentError naming the range.
    """
    try:
        nodes = np.asarray(k)
    except ValueError:  # a ragged sequence
        nodes = np.empty(0)
    if nodes.ndim > many or nodes.size == 0 or nodes.dtype.kind not in "iu" or np.any((nodes < 0) | (nodes > last)):
        what = "an integer, or a nonempty sequence of them," if many else "an integer"
        raise InvalidArgumentError(f"node index must be {what} in [0, {last}]")
    return nodes if many else int(nodes)


def curve_rows(g, shape: tuple):
    """Curve samples as a (P,) + shape stack and whether one curve was given; refuses other shapes, NaN and inf."""
    rows = np.asarray(g, dtype=float)
    single = rows.ndim == len(shape)
    if single:
        rows = rows[None]
    if rows.shape[1:] != shape or not len(rows):  # an empty stack holds no curve
        raise InvalidArgumentError(f"curve samples must be {shape} or (P, {', '.join(map(str, shape))}), "
                                   f"got {np.shape(g)}")
    if not np.all(np.isfinite(rows)):
        raise InvalidArgumentError("curve samples contain non-finite values")
    return rows, single
