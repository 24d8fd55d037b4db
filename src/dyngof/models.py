"""Growth models for dynamic random graphs.

A model is a rule for how vertex t attaches to the existing graph. The
graph starts as vertex 1 carrying m self-loops (degree 2m), and every
arrival t >= 2 draws m targets among {1, ..., t-1}, independently given
the previous snapshot. Every supported mechanism is one affine rule in
the candidate's degree,

  P(v) = (beta * deg(v) + a) / ((2m * beta + a) * t),

with (beta, a) = (1, 0) for pa (linear preferential attachment), (0, 1)
for uniform and (1, a) for affine-pa (degree plus constant shift a).
The normalizer holds because the total degree at time t is exactly 2mt.

All three factor through the degree of the candidate vertex, change at
most 2m vertex degrees per step, and have a power-law probability
spectrum, so they sit inside the model class the test targets.

A trajectory is stored as the (n-1) x m array of attachment choices; the
graph at any time is recovered by replay. Vertices are 1-indexed in all
public structures; arrays are 0-indexed internally (degrees[v-1]).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

KIND_PA = "pa"
KIND_UNIFORM = "uniform"
KIND_AFFINE = "affine-pa"

# (beta, base shift) of the affine rule per kind. The model's own a adds to
# the shift; it is nonzero only for affine-pa.
_AFFINE_RULE = {KIND_PA: (1, 0.0), KIND_UNIFORM: (0, 1.0), KIND_AFFINE: (1, 0.0)}

# Sum-to-one tolerance for conditional attachment distributions.
PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """A named growth mechanism with its parameters.

    m is the number of edges per arriving vertex (all mechanisms); a is
    the additive degree shift (affine-pa only). The label is cosmetic and
    excluded from equality; it names the model in trajectory file headers,
    so it must not contain whitespace. Left empty, it is derived from kind,
    m and a, and dataclasses.replace derives it again from the new fields.
    """

    kind: str
    m: int = 1
    a: float = 0.0
    label: str = field(default="", compare=False)
    # (beta, a) of the affine rule, derived from kind and a.
    beta: int = field(init=False, repr=False, compare=False)
    shift: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _AFFINE_RULE:
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "m", _check_edges(self.m))
        if not 0 <= self.a < math.inf:
            raise ValueError("a must be finite and nonnegative")
        if self.kind != KIND_AFFINE and self.a != 0.0:
            raise ValueError("a is only meaningful for affine-pa")
        if not self.label or isinstance(self.label, _DerivedLabel):
            object.__setattr__(self, "label", _DerivedLabel(self._default_label()))
        _check_label(self.label)
        beta, base_shift = _AFFINE_RULE[self.kind]
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "shift", base_shift + self.a)

    def _default_label(self) -> str:
        if self.kind == KIND_AFFINE:
            return f"affine-pa(a={self.a:g},m={self.m})"
        return f"{self.kind}(m={self.m})"

    def attachment_probability(self, degrees, t: int):
        """P(one choice of arrival t+1 picks a vertex of the given degree(s)).

        The single float evaluation of the affine rule: the shift is added
        only when nonzero and beta = 0 fills a constant, so each mechanism
        costs no more than its own closed form and gives the same bits. t
        may be an array of the degrees' shape, one time per degree; each
        entry then has the bits of the scalar call.
        """
        beta, shift = self.beta, self.shift
        norm = 2 * self.m * beta * t + shift * t
        if beta == 0:
            return np.full(np.shape(degrees), shift / norm)
        if shift:
            degrees = degrees + shift
        return degrees / norm


class _DerivedLabel(str):
    """A label ModelSpec filled in from its fields rather than one given."""


def _integer(name: str, value) -> int:
    """value as an int; a float, string or bool raises ValueError rather than truncating."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _check_edges(m: int) -> int:
    """m as an int; a non-integral, bool or nonpositive m raises ValueError."""
    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return m


def _check_label(label: str) -> None:
    if any(ch.isspace() for ch in label):
        raise ValueError(f"model label {label!r} must not contain whitespace")


def pref_attach(m: int = 1) -> ModelSpec:
    return ModelSpec(KIND_PA, m=m)


def uniform_attach(m: int = 1) -> ModelSpec:
    return ModelSpec(KIND_UNIFORM, m=m)


def affine_pref_attach(a: float, m: int = 1) -> ModelSpec:
    return ModelSpec(KIND_AFFINE, m=m, a=a)


@dataclass
class DegreeState:
    """Degrees of the graph at time t (t vertices present).

    degrees[v-1] is the degree of vertex v. For every mechanism here the
    total degree at time t is exactly 2mt.
    """

    t: int
    degrees: np.ndarray


@dataclass(frozen=True)
class ProbVector:
    """Conditional attachment distribution for the arrival at time t.

    mass[v-1] = probability that one choice of arrival t goes to vertex v,
    for v in {1, ..., t-1}.
    """

    t: int
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if mass.shape != (self.t - 1,):
            raise ValueError(f"mass must have length t-1 = {self.t - 1}")
        if np.any(mass < 0):
            raise ValueError("negative probability mass")
        total = float(np.sum(mass))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"mass sums to {total}, not 1")


@dataclass(frozen=True)
class Trajectory:
    """The full record of attachment choices of one growing graph.

    choices[i] holds the m targets picked by arrival t = i + 2, each in
    {1, ..., t-1}. This is the single observable the test consumes.
    """

    n: int
    m: int
    choices: np.ndarray
    model_label: str
    seed: int

    def __post_init__(self):
        _check_label(self.model_label)
        object.__setattr__(self, "m", _check_edges(self.m))
        choices = np.ascontiguousarray(self.choices, dtype=np.int64)
        if choices.shape != (self.n - 1, self.m):
            raise ValueError(f"choices must have shape {(self.n - 1, self.m)}")
        upper = np.arange(1, self.n, dtype=np.int64)[:, None]  # t-1 per row
        if np.any(choices < 1) or np.any(choices > upper):
            raise ValueError("choice targets must lie in {1, ..., t-1}")
        choices.setflags(write=False)
        object.__setattr__(self, "choices", choices)


def step_distribution(model: ModelSpec, state: DegreeState) -> ProbVector:
    """Conditional distribution of the next arrival's choices given state.

    Returns the distribution for arrival time state.t + 1, over targets
    {1, ..., state.t}.
    """
    t = state.t
    if t < 1:
        raise ValueError("empty graph")
    return ProbVector(t=t + 1, mass=model.attachment_probability(state.degrees, t))


class IncrementalReplay:
    """Forward scan of a trajectory, exposing the state at increasing times.

    One pass over the choices, O(m) amortized per step. state() returns a
    view into the internal buffer, valid only until the next advance.
    """

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._buf = np.zeros(traj.n, dtype=np.int64)
        self._buf[0] = 2 * traj.m
        self.t = 1

    def advance(self, to_t: int) -> None:
        if to_t > self.traj.n:
            raise ValueError(f"t must be in [1, {self.traj.n}]")
        if to_t <= self.t:
            return
        hits = self.traj.choices[self.t - 1 : to_t - 1].ravel()
        self._buf[:to_t] += np.bincount(hits - 1, minlength=to_t)
        self._buf[self.t : to_t] += self.traj.m
        self.t = to_t

    def state(self) -> DegreeState:
        return DegreeState(self.t, self._buf[: self.t])


def sample_trajectory(model: ModelSpec, n: int, seed: int) -> Trajectory:
    """Sample one trajectory of n vertices from the model.

    The m choices of each arrival are drawn iid from the frozen
    distribution of the previous snapshot; degrees update only after the
    whole arrival. Identical (model, n, seed) gives bit-identical output.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    m = model.m
    rng = stream(seed)
    # Arrival t = i + 2 (row i) draws from {1, ..., t-1}. Each draw below is
    # one broadcast call over all rows, which gives the same stream as one
    # call of size m per arrival.
    rows = np.arange(1, n, dtype=np.int64)[:, None]  # t - 1
    if model.beta == 0:
        return Trajectory(n, m, rng.integers(1, np.broadcast_to(rows + 1, (n - 1, m))), model.label, seed)
    # P(v) = w * deg(v) / (2mt) + (1 - w) / t with w = 2m*beta / (2m*beta + a),
    # independent of t: a fixed-weight mixture of a degree-proportional pick
    # and a uniform pick. The degree part is a uniform pick from an endpoint
    # urn holding each vertex once per unit of degree: vertex 1 fills slots
    # [0, 2m), then arrival t appends its m targets and m copies of t, so
    # arrival t picks among slots [0, 2m(t-1)). Only a slot's content
    # depends on earlier draws, so all slot indices are drawn at once.
    two_m = 2 * m
    x = rng.integers(0, np.broadcast_to(two_m * rows, (n - 1, m)))
    # Slot s = 2m*r + c holds vertex r + 1 if r == 0 or c >= m; otherwise it
    # holds the target of the earlier choice k = (r-1)*m + c, which x keeps
    # as the pointer -(k + 1) = (m - 1 - c) - m*r < 0 until it is resolved.
    # In place, so r is the only extra (n-1) x m array: x becomes c, then
    # 1 or m - 1 - c, then adds r or -m*r.
    r = np.empty_like(x)
    np.divmod(x, two_m, out=(r, x))
    pointer = (x < m) & (r > 0)
    np.subtract(m - 1, x, out=x)
    np.copyto(x, 1, where=~pointer)
    np.multiply(r, -m, out=r, where=pointer)
    x += r
    del r, pointer
    if model.shift:
        # Block order: all slots, then all uniform picks, then all coins;
        # a choice whose coin is not below w takes its uniform pick.
        picks = rng.integers(1, np.broadcast_to(rows + 1, (n - 1, m)))
        w = two_m * model.beta / (two_m * model.beta + model.shift)
        np.copyto(x, picks, where=rng.random((n - 1, m)) >= w)
        del picks
    # Pointer jumping: each pass replaces a pointer by what it points at, a
    # vertex or that choice's own pointer, so a chain of length L resolves
    # in about log2(L) + 1 passes.
    x = x.ravel()
    todo = np.flatnonzero(x < 0)
    while todo.size:
        ahead = x[-1 - x[todo]]
        x[todo] = ahead
        todo = todo[ahead < 0]
    return Trajectory(n, m, x.reshape(n - 1, m), model.label, seed)


def replay(traj: Trajectory, t: int) -> DegreeState:
    """DegreeState of the graph after arrival t, from one IncrementalReplay pass."""
    if not 1 <= t <= traj.n:
        raise ValueError(f"t must be in [1, {traj.n}]")
    scan = IncrementalReplay(traj)
    scan.advance(t)
    return scan.state()


# --- trajectory file format (versioned, line oriented) ---

_MAGIC = "dyngof-traj"
_VERSION = "v1"


def write_trajectory(traj: Trajectory, path: str) -> None:
    """Write the v1 text format: header, then one line of targets per arrival.

    The body is one %-format over all (n-1)*m targets, so no Python code runs
    per target; the bytes are those of joining str(v) row by row.
    """
    header = f"{_MAGIC} {_VERSION} n={traj.n} m={traj.m} model={traj.model_label} seed={traj.seed}\n"
    row = " ".join(["%d"] * traj.m) + "\n"
    body = "".join([row] * (traj.n - 1)) % tuple(traj.choices.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(body)


def read_trajectory(path: str) -> Trajectory:
    """Parse the v1 format, rejecting malformed headers and out-of-range targets.

    A body line holds m targets separated by whitespace (str.split); each
    target is a token that int() accepts and lies in {1, ..., t-1} for the
    arrival t = line number + 1.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty trajectory file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != _MAGIC or head[1] != _VERSION:
        raise ValueError(f"bad trajectory header: {lines[0]!r}")
    fields = {}
    for token in head[2:]:
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        n = int(fields["n"])
        m = int(fields["m"])
        seed = int(fields["seed"])
        label = fields["model"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad trajectory header: {lines[0]!r}") from exc
    _check_edges(m)
    body = lines[1:]
    if len(body) != n - 1:
        raise ValueError(f"expected {n - 1} choice lines, found {len(body)}")
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a body of blank lines (and numpy < 2 warns
            # on a float such as 3.0 read as an integer): both are rejects.
            warnings.simplefilter("error")
            choices = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        return Trajectory(n, m, choices, label, seed)
    except (ValueError, Warning):
        pass
    # Trajectory rejected the shape or range, or loadtxt the text: the row
    # parse gives the error message, or accepts what int() reads and
    # loadtxt does not, such as 1_0.
    return Trajectory(n, m, _parse_rows(body, n, m), label, seed)


def _parse_rows(body: list[str], n: int, m: int) -> np.ndarray:
    """Row-by-row parse with int(): the reference reader and every error message."""
    # A line of m targets has at least 2m - 1 characters. A body shorter than
    # that in total has a short line; it is reported before the (n-1) x m
    # array is allocated, so a huge m in the header costs no memory.
    if (n - 1) * (2 * m - 1) > sum(map(len, body)):
        for t, line in enumerate(body, start=2):
            _split_row(line, t, m)
    choices = np.empty((n - 1, m), dtype=np.int64)
    for i, line in enumerate(body):
        t = i + 2
        for j, part in enumerate(_split_row(line, t, m)):
            try:
                v = int(part)
            except ValueError as exc:
                raise ValueError(f"arrival {t}: non-integer target {part!r}") from exc
            if not 1 <= v <= t - 1:
                raise ValueError(f"arrival {t}: target {v} out of range")
            choices[i, j] = v
    return choices


def _split_row(line: str, t: int, m: int) -> list[str]:
    parts = line.split()
    if len(parts) != m:
        raise ValueError(f"arrival {t}: expected {m} targets, found {len(parts)}")
    return parts
