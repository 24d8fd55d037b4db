"""Fuzz tests of the trajectory file reader and writer against per-target references.

`reference_read` and `reference_bytes` keep the row-by-row reader and the
per-target writer that the vectorized `read_trajectory` and
`write_trajectory` replaced. Written files must be byte-identical to the
reference, and every file, well formed or not, must read back as the same
trajectory or fail with the same `ValueError` message. The golden hashes
were recorded from the `%`-format writer that the digit-plane writer
replaced.
"""

import hashlib
import os
import tracemalloc

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
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
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

    def test_any_constructed_trajectory_reads_back(self, tmp_path):
        # Every field fuzzed over Python and numpy ints, bools, floats, strings and negatives: each Trajectory
        # either raises ValueError or writes a file that the reader returns equal.
        rng = np.random.default_rng(20261020)
        path, outcomes = tmp_path / "t.traj", {"built": 0, "rejected": 0}

        def pick(valid, invalid):
            values = valid if rng.random() < 0.75 else valid + invalid
            return values[int(rng.integers(len(values)))]

        for _ in range(400):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            choices = random_trajectory(rng, n, m, "x", 0).choices
            fields = {
                "n": pick([n, np.int64(n), np.uint16(n)], [float(n), str(n), True, -n, 0]),
                "m": pick([m, np.int8(m)], [float(m), str(m), True, False, -m]),
                "choices": pick(
                    [choices, choices.tolist(), choices.astype(np.uint32)],
                    [choices.astype(float), choices > 1, choices.astype(str), -choices, choices + 1],
                ),
                "model_label": pick(
                    ["x", "pa(m=1)", "a=b", "pä", "", "\x00"], ["my pa", "tab\t", "\x85", 5, None, b"x"]
                ),
                "seed": pick([7, -3, 2**70, np.int64(-5), np.uint64(2**64 - 1)], [True, False, 1.5, 2.0, "7", None]),
            }
            try:
                traj = Trajectory(**fields)
            except ValueError:
                outcomes["rejected"] += 1
                continue
            outcomes["built"] += 1
            write_trajectory(traj, str(path))
            back = read_trajectory(str(path))
            assert (back.n, back.m, back.model_label, back.seed) == (traj.n, traj.m, traj.model_label, traj.seed)
            assert (traj.n, traj.m, traj.model_label, traj.seed) == tuple(
                fields[name] for name in ("n", "m", "model_label", "seed")
            )
            np.testing.assert_array_equal(back.choices, np.asarray(fields["choices"]).reshape(n - 1, m))
        assert min(outcomes.values()) >= 50, outcomes

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
        written = path.read_bytes()

        def refuse(*args):
            raise AssertionError("row-by-row parse used on a well-formed file")

        monkeypatch.setattr(models, "_parse_rows", refuse)
        # Text mode reads CRLF line ends as "\n"; splitlines reads a body
        # without its last newline as the same lines.
        for data in (written, written.replace(b"\n", b"\r\n"), written[:-1]):
            path.write_bytes(data)
            np.testing.assert_array_equal(read_trajectory(str(path)).choices, traj.choices)

    # top: the largest target, so every target 1..top and each power-of-ten
    # boundary of the digit planes is written and read.
    @pytest.mark.parametrize("top", [10**k + d for k in range(1, 7) for d in (-1, 0)])
    def test_power_of_ten_boundaries(self, tmp_path, top):
        n = top + 1
        rows = np.arange(1, n)  # row i may hold 1..i+1
        choices = np.column_stack([rows, 1 + (rows - 1) * 7919 % rows])
        traj = Trajectory(n, 2, choices, "pa(m=2)", 0)
        path = tmp_path / "t.traj"
        write_trajectory(traj, str(path))
        body = "".join(f"{a} {b}\n" for a, b in choices.tolist())
        assert path.read_bytes() == f"dyngof-traj v1 n={n} m=2 model=pa(m=2) seed=0\n{body}".encode()
        np.testing.assert_array_equal(read_trajectory(str(path)).choices, choices)

    def test_targets_of_64_bits(self):
        # No trajectory has a target of 2**32 or more, but the body writer
        # keeps int64 arithmetic for one.
        choices = np.array([[2**40, 1], [10**18, 9], [2**63 - 1, 10**9]])
        assert models._ascii_body(choices) == "".join(f"{a} {b}\n" for a, b in choices.tolist())


# (model label, n) -> SHA-256 of the file written for that model's trajectory
# on seed 1 (n = 1: the empty trajectory).
GOLDEN_FILES = {
    ("pa(m=1)", 1): "ee3c6864b0ae00758a345c679f43a375ed6fe9feb8b7120116b3044c5e740d7a",
    ("pa(m=1)", 2): "dfc1d9c6340a6e97c7ead053f405b20df3f8f380aa95bff9f8e84fbd00b9f097",
    ("pa(m=1)", 3): "17e95f4c70f706476812c824d936e545a6f42bf7d07d341f17381d4b747082a6",
    ("pa(m=1)", 1000): "fb0cbf87f0a2914036aa8ca6e972e5e111152d96923b5184168145c7f53eaa61",
    ("pa(m=1)", 20000): "7302871f81c01dc8286a39377073656823dbfc006835e15659327655a498e750",
    ("pa(m=3)", 1): "53bc133cde2163b50628185c1e8b714df88549165fe97edfc297e75476f10751",
    ("pa(m=3)", 2): "a8b0e6f5b4ada1eb3b9dcd057e2aff6063c44f99f938812f4cb5a232d716fb26",
    ("pa(m=3)", 3): "956c6b61d86d4f33ab491f581ba4403874382ef6a74b10926c84d3669919693b",
    ("pa(m=3)", 1000): "089237f8602ab5c47c9eac44a2d99f9a98a717a0f823d2ea53feab2ad5ae28ff",
    ("pa(m=3)", 20000): "4e011e9b591aa01870cf7db4919fb825bf47361c4d686607befe3bbdd07954e0",
    ("uniform(m=2)", 1): "fce94e0cf86b15a7bd9f4d5b52ccf0a7b2d8aea46f0b3d42a75c7e2f2ae31660",
    ("uniform(m=2)", 2): "e5d5cc110ef2f469a9929bef43507977d4253a3bde4f7bd1323a337134297f5b",
    ("uniform(m=2)", 3): "2d8548f6d04273762076bacba9ed8ebfaee70abacd3f4f67f9160741cbf8c2a5",
    ("uniform(m=2)", 1000): "2a664b78257b1a6fe2cce9150387b7b6ac68643262082bc5c6b42ff636b7f291",
    ("uniform(m=2)", 20000): "ebf50a67226cbf5822951aa70a629576985297483d968cf837b629503f739609",
    ("affine-pa(a=1,m=2)", 1): "62f3035ce047f6c912aac3848d12925e03db2f75ade04e83c82fd7c001b85193",
    ("affine-pa(a=1,m=2)", 2): "a6c75f355d85436018d0d8059b1a317531d6dfa7960ab69b7a960b9abb6299da",
    ("affine-pa(a=1,m=2)", 3): "1d9b3f56bb00a17e30554633b691d56e7e3373a9a006b4a51253dc1354193242",
    ("affine-pa(a=1,m=2)", 1000): "6d7194447362e60921894879912e2fc8cf1025181027e688e5445d47178b8a9c",
    ("affine-pa(a=1,m=2)", 20000): "0c746543a01da826227cc9b30b63b1cb741b69df52f344a60eb810cd1825d55a",
    ("affine-pa(a=2.5,m=3)", 1): "96610bf83c708c97b5337f1c44ed570d3bd468743b45b34422c00b51f587db47",
    ("affine-pa(a=2.5,m=3)", 2): "e836da98511c06b6dfea46c0ec31bd7fbd43e860ff9b85e07694957e629f06d9",
    ("affine-pa(a=2.5,m=3)", 3): "3e74f43125ebc39f6f2363d45d5b8f9a07e892001f019ba3e9a8e9b250e8b35f",
    ("affine-pa(a=2.5,m=3)", 1000): "92f9256ce4495370bd2f3cfd9bb9d7ad6883a93651346d3e2cb5d5991b1cd5e7",
    ("affine-pa(a=2.5,m=3)", 20000): "d88e3ced36514af984085dd07af38424c3407a51e1c21d08e1ed8a2251c760ee",
}
GOLDEN_MODELS = {
    model.label: model
    for model in (
        pref_attach(1), pref_attach(3), uniform_attach(2), affine_pref_attach(1.0, 2), affine_pref_attach(2.5, 3)
    )
}


@pytest.mark.parametrize("label,n", sorted(GOLDEN_FILES))
def test_written_bytes_match_golden_hash(tmp_path, label, n):
    model = GOLDEN_MODELS[label]
    if n == 1:
        traj = Trajectory(1, model.m, np.empty((0, model.m)), label, 1)
    else:
        traj = sample_trajectory(model, n, 1)
    path = tmp_path / "t.traj"
    write_trajectory(traj, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_FILES[label, n]


def test_peak_memory_is_a_few_file_sizes(tmp_path):
    # The reader holds the text, the body's bytes, the separator offsets and
    # the targets; the writer the targets, the digit planes and the text.
    # Both peak near six times the file here.
    traj = sample_trajectory(pref_attach(1), 100000, seed=1)
    path = str(tmp_path / "t.traj")
    write_trajectory(traj, path)
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        write_trajectory(traj, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        read_trajectory(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= 8 * size
    assert read_peak <= 10 * size


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
    # Aimed at the reader's check that a body is in the writer's layout.
    corpus["leading-space"] = with_rows([b" " + ROWS[0]] + ROWS[1:])
    corpus["double-space"] = with_rows(ROWS[:4] + [ROWS[4].replace(b" ", b"  ")] + ROWS[5:])
    corpus["row-of-m+1-beside-m-1"] = with_rows(ROWS[:6] + [ROWS[6] + b" 1", ROWS[7].split()[0]] + ROWS[8:])
    corpus["lone-cr-inside-row"] = with_rows(ROWS[:3] + [ROWS[3].replace(b" ", b"\r")] + ROWS[4:])
    corpus["lone-cr-row-end"] = BASE.replace(b"\n", b"\r", 3)
    corpus["space-before-newline"] = with_rows(ROWS[:-1] + [ROWS[-1] + b" "])
    corpus["space-at-end-no-newline"] = with_rows(ROWS)[:-1] + b" "
    corpus["leading-newline"] = HEADER + b"\n\n" + b"\n".join(ROWS)
    for digits in (18, 19, 20):
        row = ROWS[-1].split()[0] + b" " + b"1".rjust(digits, b"0")
        corpus[f"{digits}-digit-token"] = with_rows(ROWS[:-1] + [row])
        corpus[f"{digits}-digit-value"] = with_rows(ROWS[:-1] + [b"1 1" + b"0" * (digits - 1)])
    corpus["zero-target-last"] = with_rows(ROWS[:-1] + [ROWS[-1].split()[0] + b" 0"])
    corpus["header-vt-before-newline"] = BASE.replace(b"\n", b"\x0b\n", 1)
    corpus["header-vt-inside"] = BASE.replace(b" m=2", b"\x0bm=2", 1)
    corpus["header-ff-then-rows"] = BASE.replace(b"\n", b"\x0c", 1)
    corpus["n-1"] = b"dyngof-traj v1 n=1 m=2 model=x seed=0\n"
    corpus["n-1-no-newline"] = b"dyngof-traj v1 n=1 m=2 model=x seed=0"
    corpus["n-1-with-row"] = b"dyngof-traj v1 n=1 m=2 model=x seed=0\n1 1\n"
    corpus["n-2-no-newline"] = b"dyngof-traj v1 n=2 m=1 model=x seed=0\n1"
    corpus["n-0"] = b"dyngof-traj v1 n=0 m=2 model=x seed=0\n"
    corpus["n-negative"] = b"dyngof-traj v1 n=-5 m=2 model=x seed=0\n"
    corpus["n-0-with-rows"] = BASE.replace(b"n=12", b"n=0")
    corpus["n-negative-and-m-0"] = BASE.replace(b"n=12 m=2", b"n=-5 m=0")
    corpus["huge-n-short-body"] = BASE.replace(b"n=12", b"n=1000000000000000")
    corpus["huge-n-and-m"] = BASE.replace(b"n=12 m=2", b"n=1000000000000000 m=1000000000000")
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
