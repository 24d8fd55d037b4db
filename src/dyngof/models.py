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

import locale
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import _integer, stream

KIND_PA = "pa"
KIND_UNIFORM = "uniform"
KIND_AFFINE = "affine-pa"

# (beta, base shift) of the affine rule per kind. The model's own a adds to
# the shift; it is nonzero only for affine-pa.
_AFFINE_RULE = {KIND_PA: (1, 0.0), KIND_UNIFORM: (0, 1.0), KIND_AFFINE: (1, 0.0)}
KINDS = tuple(_AFFINE_RULE)

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
        if _string("kind", self.kind) not in _AFFINE_RULE:
            raise ValueError(f"unknown model {self.kind!r} (choose from {', '.join(KINDS)})")
        object.__setattr__(self, "m", _check_edges(self.m))
        object.__setattr__(self, "a", _real("a", self.a))
        if not 0 <= self.a < math.inf:
            raise ValueError("a must be finite and nonnegative")
        if self.kind != KIND_AFFINE and self.a != 0.0:
            raise ValueError("a is only meaningful for affine-pa")
        if not _string("label", self.label) or isinstance(self.label, _DerivedLabel):
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

        The single float evaluation of the affine rule, one expression for
        every mechanism. t may be an array of the degrees' shape, one time
        per degree; each entry then has the bits of the scalar call.
        """
        beta, shift = self.beta, self.shift
        return (beta * degrees + shift) / (2 * self.m * beta * t + shift * t)


class _DerivedLabel(str):
    """A label ModelSpec filled in from its fields rather than one given."""


def _real(name: str, value) -> float:
    """value as a float; a bool, string, other non-real or value past float range raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: expected a number within float range") from None


def _integer_array(name: str, values) -> np.ndarray:
    """values as an array; a nonempty one whose dtype is not an integer kind raises ValueError."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name}: expected integers, got {values.dtype} values")
    return values


def _string(name: str, value) -> str:
    """value unchanged; anything but a str raises ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {value!r}")
    return value


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
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        _check_label(_string("model_label", self.model_label))
        object.__setattr__(self, "m", _check_edges(self.m))
        choices = np.ascontiguousarray(_integer_array("choices", self.choices), dtype=np.int64)
        if choices.shape != (self.n - 1, self.m):
            raise ValueError(f"choices must have shape {(self.n - 1, self.m)}")
        check_targets(choices)
        choices.setflags(write=False)
        object.__setattr__(self, "choices", choices)


def check_targets(choices: np.ndarray) -> None:
    """Raise ValueError unless every target of arrival t = row + 2 lies in {1, ..., t-1}.

    Rows run along the second-to-last axis, so a (K, n-1, m) stack of
    trajectories is checked in one pass.
    """
    upper = np.arange(1, choices.shape[-2] + 1, dtype=np.int64)[:, None]  # t-1 per row
    if np.any(choices < 1) or np.any(choices > upper):
        raise ValueError("choice targets must lie in {1, ..., t-1}")


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
    This is sample_choices on one seed.
    """
    return Trajectory(n, model.m, sample_choices(model, n, [seed])[0], model.label, seed)


def _stacked(rngs: list[np.random.Generator], draw, *args) -> np.ndarray:
    """draw(rng, *args) of each stream along a new first axis; a lone stream's draw is not copied."""
    if len(rngs) == 1:
        return draw(rngs[0], *args)[None]
    return np.stack([draw(rng, *args) for rng in rngs])


def sample_choices(model: ModelSpec, n: int, seeds: list[int]) -> np.ndarray:
    """The (K, n-1, m) choices of K trajectories of n vertices, one per seed.

    Entry k is the choices array of sample_trajectory(model, n, seeds[k]):
    each seed's stream draws as it would alone, and every pass after the
    draws runs once over the whole stack. One seed's draws are worked on in
    place, with no copy into a stack.
    """
    n = _integer("n", n)
    if n < 2:
        raise ValueError("n must be at least 2")
    m, reps = model.m, len(seeds)
    rngs = [stream(seed) for seed in seeds]
    # Arrival t = i + 2 (row i) draws from {1, ..., t-1}. Each draw below is
    # one broadcast call over all rows, which gives the same stream as one
    # call of size m per arrival.
    rows = np.arange(1, n, dtype=np.int64)[:, None]  # t - 1
    shape = (n - 1, m)
    integers = np.random.Generator.integers
    if model.beta == 0:
        return _stacked(rngs, integers, 1, np.broadcast_to(rows + 1, shape))
    # P(v) = w * deg(v) / (2mt) + (1 - w) / t with w = 2m*beta / (2m*beta + a),
    # independent of t: a fixed-weight mixture of a degree-proportional pick
    # and a uniform pick. The degree part is a uniform pick from an endpoint
    # urn holding each vertex once per unit of degree: vertex 1 fills slots
    # [0, 2m), then arrival t appends its m targets and m copies of t, so
    # arrival t picks among slots [0, 2m(t-1)). Only a slot's content
    # depends on earlier draws, so all slot indices are drawn at once.
    two_m = 2 * m
    x = _stacked(rngs, integers, 0, np.broadcast_to(two_m * rows, shape))
    # Slot s = 2m*r + c holds vertex r + 1 if r == 0 or c >= m; otherwise it
    # holds the target of the earlier choice k = (r-1)*m + c, which x keeps
    # as the pointer -(k + 1) = (m - 1 - c) - m*r < 0 until it is resolved.
    # Unmasked integer steps in place, so r is the only extra array of x's
    # size: x becomes c, then pointer - vertex = (m - 2 - c) - (m + 1)*r,
    # then that times pointer (0 where the slot holds a vertex), plus the
    # vertex r + 1.
    r = x // two_m
    r *= two_m
    x -= r
    pointer = (x < m) & (r > 0)
    np.subtract(m - 2, x, out=x)
    r >>= 1  # m*r
    x -= r
    r //= m
    x -= r
    # A pointer of replication k also skips the k*(n-1)*m choices of the
    # replications before it in the flat stack (none for a lone block).
    x -= (n - 1) * m * np.arange(reps)[:, None, None]
    x *= pointer
    r += 1
    x += r
    del r, pointer
    if model.shift:
        # Block order: all slots, then all uniform picks, then all coins;
        # a choice whose coin is not below w takes its uniform pick, as
        # x + (picks - x) * (coin >= w).
        picks = _stacked(rngs, integers, 1, np.broadcast_to(rows + 1, shape))
        w = two_m * model.beta / (two_m * model.beta + model.shift)
        picks -= x
        picks *= _stacked(rngs, np.random.Generator.random, shape) >= w
        x += picks
        del picks
    # Pointer jumping: each pass replaces a pointer by what it points at, a
    # vertex or that choice's own pointer, so a chain of length L resolves
    # in about log2(L) + 1 passes.
    flat = x.reshape(-1)
    todo = np.flatnonzero(flat < 0)
    while todo.size:
        ahead = flat[-1 - flat[todo]]
        flat[todo] = ahead
        todo = todo[ahead < 0]
    return x


def stack_shape(choices: np.ndarray) -> tuple[int, int, int]:
    """(K, n, m) of a (K, n-1, m) stack of choices; any other shape, or an empty one, raises ValueError."""
    if choices.ndim != 3 or 0 in choices.shape:
        raise ValueError(f"choices must be a nonempty stack of shape (K, n-1, m), got {choices.shape}")
    return choices.shape[0], choices.shape[1] + 1, choices.shape[2]


def hit_keys(choices: np.ndarray) -> tuple[np.ndarray, int]:
    """The sorted keys (vertex << shift) | element of every hit of a (K, n-1, m) stack, and shift.

    Replication k's vertex v is k*n + v and its element e = row*m + j is
    k*n*m + e, so element // m is its row k*n + row. The keys are distinct,
    so one sort orders the hits by replication, target and time, as a
    stable argsort would.
    """
    reps, n, m = choices.shape[0], choices.shape[1] + 1, choices.shape[2]
    shift = (reps * n * m).bit_length()
    key = np.left_shift(choices.reshape(reps, -1), shift, dtype=np.int64)
    key += np.arange(0, reps * n, n)[:, None] << shift
    key |= np.arange(reps * n * m).reshape(reps, n * m)[:, : key.shape[1]]
    key = key.ravel()
    key.sort()
    return key, shift


def sorted_hits(choices: np.ndarray) -> tuple:
    """Every hit of a (K, n-1, m) stack, ordered by replication, target and time.

    The statistic kernel, sampling.probe_tvs_block, is its one caller.
    Returns (key, shift, target, row, rank, degree): hit_keys' keys and
    shift, each hit's target k*n + v and row k*n + row, its rank (the
    earlier hits on the target) and degree = rank + m, plus m on vertex 1:
    the target's degree before the arrival plus that arrival's earlier hits
    on it.
    """
    reps, n, m = choices.shape[0], choices.shape[1] + 1, choices.shape[2]
    key, shift = hit_keys(choices)
    target, row = key >> shift, (key & ((1 << shift) - 1)) // m
    # A hit's rank is its distance from the start of its target's run; one
    # running maximum of the run starts gives every run's start.
    index = np.arange(key.size)
    run_start = np.empty(key.size, dtype=bool)
    run_start[:1] = True
    np.not_equal(target[1:], target[:-1], out=run_start[1:])
    rank = index - np.maximum.accumulate(np.where(run_start, index, 0))
    degree = rank + m
    degree[(target.reshape(reps, -1) == np.arange(1, reps * n, n)[:, None]).ravel()] += m  # vertex 1 starts at 2m
    return key, shift, target, row, rank, degree


def final_degrees(choices: np.ndarray) -> np.ndarray:
    """The (K, n) final degrees of a (K, n-1, m) stack: one bincount of the targets plus m, 2m on vertex 1."""
    reps, n, m = choices.shape[0], choices.shape[1] + 1, choices.shape[2]
    targets = choices.reshape(reps, -1)  # a lone trajectory's targets are not copied
    if reps > 1:
        targets = targets + n * np.arange(reps)[:, None]  # replication k's vertex v at k*n + v
    degrees = np.bincount(targets.ravel(), minlength=reps * n + 1)[1:].reshape(reps, n)
    degrees += m
    degrees[:, 0] += m
    return degrees


def replay(traj: Trajectory, t: int) -> DegreeState:
    """DegreeState of the graph after arrival t: final_degrees of the first t-1 arrivals."""
    if not 1 <= t <= traj.n:
        raise ValueError(f"t must be in [1, {traj.n}]")
    return DegreeState(t, final_degrees(traj.choices[None, : t - 1])[0])


# --- trajectory file format (versioned, line oriented) ---

_MAGIC = "dyngof-traj"
_VERSION = "v1"


def write_trajectory(traj: Trajectory, path: str) -> None:
    """Write the v1 text format: header, then one line of targets per arrival.

    The body is built by numpy as one ASCII buffer (_ascii_body), so no
    Python code runs per target; the bytes are those of joining str(v) row
    by row. The header is encoded as text mode would encode it.
    """
    header = f"{_MAGIC} {_VERSION} n={traj.n} m={traj.m} model={traj.model_label} seed={traj.seed}\n"
    header = header.encode(locale.getpreferredencoding(False))
    body = _ascii_body(traj.choices)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def _ascii_body(choices: np.ndarray) -> bytes:
    """The targets as decimal text: ' ' between the m of a row, '\\n' after it.

    Each target fills one row of a digit-plane matrix, its digits right
    aligned and its separator last, one column per pass. Leading-zero cells
    hold NUL, and one bytes.translate over the C-order matrix deletes them.
    """
    values = choices.ravel()
    if values.size == 0:
        return b""
    top = int(values.max())
    if top < 2**32:
        values = values.astype(np.uint32)  # a uint32 // 10 is a multiply and a shift
    width = len(str(top))
    m = choices.shape[1]
    cells = np.empty((values.size, width + 1), dtype=np.uint8)
    cells[:, width] = ord(" ")
    cells[m - 1 :: m, width] = ord("\n")
    rest = values
    for col in range(width - 1, -1, -1):
        quotient = rest // 10
        # The cell is '0' + digit, or NUL left of the leading digit.
        base = ord("0") if col == width - 1 else (values >= 10 ** (width - 1 - col)) * np.uint32(ord("0"))
        np.subtract(rest, quotient * 10 - base, out=cells[:, col], casting="unsafe")
        rest = quotient
    return cells.tobytes().translate(None, b"\0")


def read_trajectory(path: str) -> Trajectory:
    """Parse the v1 format, rejecting malformed headers and out-of-range targets.

    A body line holds m targets separated by whitespace (str.split); each
    target is a token that int() accepts and lies in {1, ..., t-1} for the
    arrival t = line number + 1. The file is read once, as bytes, and seen
    as text mode sees it: in the locale's encoding, with "\r\n" and "\r" as
    "\n". When the header decodes to one line, a body in the writer's own
    layout is parsed from the bytes (_canonical_body); every other file, and
    any body Trajectory rejects, takes one splitlines() row parse of the
    decoded text, which gives every error message.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    encoding = locale.getpreferredencoding(False)
    traj = _read_canonical(raw, encoding)
    if traj is not None:
        return traj
    lines = raw.decode(encoding).splitlines()  # splitlines breaks at "\r\n" and "\r" as at "\n"
    if not lines:
        raise ValueError("empty trajectory file")
    n, m, seed, label = _parse_header(lines[0])
    if len(lines) != n:
        raise ValueError(f"expected {n - 1} choice lines, found {len(lines) - 1}")
    return Trajectory(n, m, _parse_rows(lines[1:], n, m), label, seed)


def _read_canonical(raw: bytes, encoding: str) -> Trajectory | None:
    """The trajectory of a file with a one-line header and a canonical body, else None."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # text mode's newline translation
    end = raw.find(b"\n")
    if end < 0:
        end = len(raw)
    try:
        head = raw[:end].decode(encoding)
        if head.splitlines() != [head]:  # the "\n" is not the header's only line break
            return None
        n, m, seed, label = _parse_header(head)
    except ValueError:
        return None  # the row parse decodes the whole file first, as text mode does, then reports the header
    choices = _canonical_body(raw, end + 1, n, m)
    if choices is None:
        return None
    try:
        return Trajectory(n, m, choices, label, seed)
    except ValueError:
        return None  # the row parse names the target at fault


def _parse_header(line: str) -> tuple[int, int, int, str]:
    """(n, m, seed, label) of a v1 header line."""
    head = line.split()
    if len(head) != 6 or head[0] != _MAGIC or head[1] != _VERSION:
        raise ValueError(f"bad trajectory header: {line!r}")
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
        raise ValueError(f"bad trajectory header: {line!r}") from exc
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return n, _check_edges(m), seed, label


def _canonical_body(data: bytes, start: int, n: int, m: int) -> np.ndarray | None:
    """The targets of the body data[start:] if it is laid out as the writer lays it out, else None.

    Canonical means ASCII digits only, tokens of 1-18 digits (no int64
    overflow), one ' ' between the m targets of a row and one '\\n' after
    each of the n-1 rows. Such a body splits into the lines and tokens the
    row parse would see. data[:start] is a valid header, at least 36 bytes,
    so the words that _eight_digits reads before the first token stay in
    the buffer.
    """
    rows = n - 1
    count = rows * m
    if rows == 0:
        return np.empty((0, m), dtype=np.int64) if len(data) <= start else None
    if data[-1] != ord("\n"):
        data += b"\n"  # splitlines reads a body without its last newline the same way
    # Every target takes 1-18 digits and a separator. The size is checked
    # before any array is made, so a huge n or m in the header costs nothing.
    if not 2 * count <= len(data) - start <= 19 * count:
        return None
    text = np.frombuffer(data, dtype=np.uint8, offset=start)
    seps = np.flatnonzero(text < ord("0"))
    if seps.size != count or text.max() > ord("9"):
        return None
    gaps = np.diff(seps)  # the digits of every token after the first, plus one
    top = max(int(seps[0]), int(gaps.max(initial=0)) - 1)  # the digits of the longest token
    if seps[0] == 0 or gaps.min(initial=2) < 2 or top > 18:
        return None
    row = np.full(m, ord(" "), dtype=np.uint8)
    row[-1] = ord("\n")
    if np.any(text[seps].reshape(rows, m) != row):
        return None
    digits = np.empty(count, dtype=np.uint8)
    digits[0] = seps[0]
    np.subtract(gaps, 1, out=digits[1:], casting="unsafe")
    del gaps  # before the parse allocates the targets
    # Word k of a token holds its digits 8k+1 to 8k+8 counted from the
    # right, in the 8 bytes that end 8k bytes before its separator. One
    # little-endian view of the buffer with a stride of one byte holds the
    # word at every offset; gathering by fancy index reads only those used.
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    seps += start - 8  # the offset in data of each token's last word
    value = _eight_digits(words[seps], digits)
    for k in range(1, (top + 7) // 8):  # the earlier words of tokens of 9-18 digits
        longer = np.flatnonzero(digits > 8 * k)
        value[longer] += _eight_digits(words[seps[longer] - 8 * k], digits[longer] - 8 * k) * np.uint64(10 ** (8 * k))
    return value.view(np.int64).reshape(rows, m)


# Each round joins neighbouring lanes a, b of a word into 10^j * a + b, for
# bytes, 16-bit and 32-bit lanes: mask every other lane, multiply by
# 10^j * 2^bits + 1 (the product wraps), shift right by bits.
_WORD_ROUNDS = tuple(
    tuple(map(np.uint64, rule))
    for rule in ((0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8), (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
                 (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32))
)


def _eight_digits(word: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The value of the last min(digits, 8) ASCII digits of each little-endian word, computed in place.

    The word's lowest byte is its leftmost character, so the digits sit in
    its top bytes. Shifting the bytes before them out and back in clears
    them; the first round's mask keeps the low nibble of each byte, which
    is a digit's value. This is the eight-digit parse of Langdale and
    Lemire, "Parsing Gigabytes of JSON per Second" (2019).
    """
    drop = 64 - 8 * np.minimum(digits, 8)
    word >>= drop
    word <<= drop
    for mask, mul, bits in _WORD_ROUNDS:
        word &= mask
        word *= mul
        word >>= bits
    return word


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
