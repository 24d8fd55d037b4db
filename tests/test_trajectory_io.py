"""Fuzz tests of the trajectory file reader and writer against per-target references.

`reference_read` and `reference_bytes` keep the row-by-row reader and the
per-target writer that the vectorized `read_trajectory` and
`write_trajectory` replaced. Written files must be byte-identical to the
reference, and every file, well formed or not, must read back as the same
trajectory or fail with the same `ValueError` message.
"""

import numpy as np
import pytest

from dyngof import models
from dyngof.models import (
    Trajectory,
    affine_pref_attach,
    pref_attach,
    read_trajectory,
    sample_trajectory,
    uniform_attach,
    write_trajectory,
)


def reference_bytes(traj):
    """The v1 file as the writer produced it one target at a time."""
    lines = [f"dyngof-traj v1 n={traj.n} m={traj.m} model={traj.model_label} seed={traj.seed}"]
    for row in traj.choices:
        lines.append(" ".join(str(int(v)) for v in row))
    return ("\n".join(lines) + "\n").encode()


def reference_read(path):
    """The row-by-row reader: int() per target, checks in file order."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty trajectory file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != "dyngof-traj" or head[1] != "v1":
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
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    body = lines[1:]
    if len(body) != n - 1:
        raise ValueError(f"expected {n - 1} choice lines, found {len(body)}")

    def split_row(line, t):
        parts = line.split()
        if len(parts) != m:
            raise ValueError(f"arrival {t}: expected {m} targets, found {len(parts)}")
        return parts

    if (n - 1) * (2 * m - 1) > sum(map(len, body)):
        for t, line in enumerate(body, start=2):
            split_row(line, t)
    choices = np.empty((n - 1, m), dtype=np.int64)
    for i, line in enumerate(body):
        t = i + 2
        for j, part in enumerate(split_row(line, t)):
            try:
                v = int(part)
            except ValueError as exc:
                raise ValueError(f"arrival {t}: non-integer target {part!r}") from exc
            if not 1 <= v <= t - 1:
                raise ValueError(f"arrival {t}: target {v} out of range")
            choices[i, j] = v
    return Trajectory(n, m, choices, label, seed)


def outcome(read, path):
    try:
        traj = read(str(path))
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", traj.n, traj.m, traj.model_label, traj.seed, traj.choices.tolist())


def random_trajectory(rng, n, m, label, seed):
    t = np.arange(2, n + 1)[:, None]  # arrival of each row
    choices = 1 + (rng.random((n - 1, m)) * (t - 1)).astype(np.int64)
    return Trajectory(n, m, choices, label, seed)


def round_trip_cases():
    rng = np.random.default_rng(20261018)
    labels = [None, "custom", "a=b", "pä"]
    cases = []
    for k in range(24):
        n = [1, 2, int(rng.integers(3, 3001))][k % 3]
        m = 1 + k % 5
        seed = int(rng.integers(-2**62, 2**62))
        cases.append((n, m, labels[k % len(labels)], seed, k))
    return cases


class TestRoundTrip:
    @pytest.mark.parametrize("n,m,label,seed,k", round_trip_cases())
    def test_write_matches_reference_and_reads_back(self, tmp_path, n, m, label, seed, k):
        rng = np.random.default_rng(k)
        traj = random_trajectory(rng, n, m, label or pref_attach(m).label, seed)
        path = tmp_path / "t.traj"
        write_trajectory(traj, str(path))
        assert path.read_bytes() == reference_bytes(traj)
        back = read_trajectory(str(path))
        assert (back.n, back.m, back.model_label, back.seed) == (n, m, traj.model_label, seed)
        np.testing.assert_array_equal(back.choices, traj.choices)

    @pytest.mark.parametrize("model", [pref_attach(3), uniform_attach(1), affine_pref_attach(0.5, m=2)],
                             ids=lambda model: model.label)
    def test_sampled_trajectory(self, tmp_path, model):
        traj = sample_trajectory(model, 2500, seed=7)
        path = tmp_path / "t.traj"
        write_trajectory(traj, str(path))
        assert path.read_bytes() == reference_bytes(traj)
        np.testing.assert_array_equal(read_trajectory(str(path)).choices, traj.choices)

    def test_well_formed_file_skips_row_parse(self, tmp_path, monkeypatch):
        traj = sample_trajectory(affine_pref_attach(1.0, m=2), 300, seed=3)
        path = tmp_path / "t.traj"
        write_trajectory(traj, str(path))

        def refuse(*args):
            raise AssertionError("row-by-row parse used on a well-formed file")

        monkeypatch.setattr(models, "_parse_rows", refuse)
        np.testing.assert_array_equal(read_trajectory(str(path)).choices, traj.choices)


# A valid n = 12, m = 2 file; the label is non-ASCII, so some truncations
# split a UTF-8 sequence.
BASE_TRAJ = random_trajectory(np.random.default_rng(5), 12, 2, "pä", -3)
BASE = reference_bytes(BASE_TRAJ)
HEADER, _, BODY = BASE.partition(b"\n")
ROWS = BODY.splitlines()

TOKENS = [
    "+3", "-0", "0", "3.0", "1e2", "1_0", "0_1", "\u0663", "\uff13", "007",
    str(2**63), str(-2**63 - 1), "3\x00", "\x003", "0x1", "3,", "#3", "'3'",
    "nan", "", "3 3", "11", "12", "\ufeff3",
]
SEPARATORS = ["\t", "  ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u200b", "\u3000"]


def with_rows(rows):
    return HEADER + b"\n" + b"".join(row + b"\n" for row in rows)


def malformed_corpus():
    corpus = {f"truncated-{k}": BASE[:k] for k in range(len(BASE))}
    corpus["crlf"] = BASE.replace(b"\n", b"\r\n")
    corpus["cr"] = BASE.replace(b"\n", b"\r")
    corpus["no-final-newline"] = BASE[:-1]
    corpus["trailing-blank-line"] = BASE + b"\n"
    corpus["trailing-spaces"] = with_rows([row + b"  " for row in ROWS])
    corpus["all-blank"] = with_rows([b""] * len(ROWS))
    corpus["all-whitespace"] = with_rows([b" \t"] * len(ROWS))
    corpus["tabs"] = with_rows([b"\t" + row.replace(b" ", b"\t") + b"\t" for row in ROWS])
    for i in (0, 5, len(ROWS) - 1):
        for filler in (b"", b" ", b"\t \t"):
            corpus[f"blank-{i}-{ascii(filler)}"] = with_rows(ROWS[:i] + [filler] + ROWS[i + 1:])
            corpus[f"extra-blank-{i}-{ascii(filler)}"] = with_rows(ROWS[:i] + [filler] + ROWS[i:])
        for token in TOKENS:
            row = (token + " " + ROWS[i].split()[1].decode()).encode()
            corpus[f"token-{i}-{ascii(token)}"] = with_rows(ROWS[:i] + [row] + ROWS[i + 1:])
        for sep in SEPARATORS:
            row = ROWS[i].replace(b" ", sep.encode())
            corpus[f"sep-{i}-{ascii(sep)}"] = with_rows(ROWS[:i] + [row] + ROWS[i + 1:])
        corpus[f"nul-{i}"] = with_rows(ROWS[:i] + [ROWS[i] + b"\x00"] + ROWS[i + 1:])
        corpus[f"non-utf8-{i}"] = with_rows(ROWS[:i] + [ROWS[i] + b"\xff"] + ROWS[i + 1:])
        corpus[f"latin1-{i}"] = with_rows(ROWS[:i] + [b"\xe9 1"] + ROWS[i + 1:])
    corpus["huge-int-last"] = with_rows(ROWS[:-1] + [f"1 {2**64 + 1}".encode()])
    corpus["nul-header"] = BASE.replace(b"seed=", b"seed=\x00")
    corpus["wrong-m"] = BASE.replace(b"m=2", b"m=3")
    corpus["huge-m"] = BASE.replace(b"m=2", b"m=1000000000000")
    return corpus


CORPUS = malformed_corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_malformed_file_reads_like_reference(tmp_path, name):
    path = tmp_path / "f.traj"
    path.write_bytes(CORPUS[name])
    assert outcome(read_trajectory, path) == outcome(reference_read, path)


def test_corpus_has_accepted_and_rejected_files(tmp_path):
    # The corpus pins both directions: files the fast parse refuses that
    # int() accepts (1_0, Unicode digits) and files every reader rejects.
    path = tmp_path / "f.traj"
    kinds = set()
    for name in ("crlf", "token-10-'1_0'", "token-5-'\\u0663'", "token-0-'3.0'", "non-utf8-0"):
        path.write_bytes(CORPUS[name])
        kinds.add((name, outcome(read_trajectory, path)[0]))
    assert kinds == {
        ("crlf", "ok"), ("token-10-'1_0'", "ok"), ("token-5-'\\u0663'", "ok"),
        ("token-0-'3.0'", "error"), ("non-utf8-0", "error"),
    }
