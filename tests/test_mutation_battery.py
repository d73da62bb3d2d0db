"""Seeded mutation battery over the files the CLI reads.

Each mutation of a small valid window, support, Zak or spreading file runs
through the commands that read that kind of file, in-process, with warnings
raised as errors.  The battery checks the input contract of README and cli:

- every exit code is 0, 2, 3 or 4, and no exception escapes cli.main;
- a refused command writes nothing (recover-support writes its --report-out
  on exit 3 by design);
- a file that loads re-saves, through its own save_*, to a file that loads to
  the same object, and a spreading file that loads has one data row per mask
  point.

The seed, the seed files and the mutation list are fixed, so every run checks
the same files.
"""

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from opsample import cli, formats, gabor, presets
from opsample.errors import MalformedFile
from opsample.support import CellSupport

SEED = 26
MUTATIONS = 300
#: written in place of numbers: overflow, non-finite, negative, limits and other JSON types
TOKENS = ["1e309", "nan", "-1", "0", "-0.0", "1.5", "257", "4097", "true", '"x"', "[]", "null"]
CHARS = '0123456789,.-+e[]"x #\n'
NUMBER = re.compile(r"-?\d+(\.\d+)?(e[+-]?\d+)?")
LOADERS = {
    "window": (formats.load_window, formats.save_window),
    "support": (formats.load_support, formats.save_support),
    "zak": (formats.load_zak, lambda zak, path: formats.save_zak(*zak, path)),
    "eta": (formats.load_spreading, formats.save_spreading),
}


def _main(argv):
    """(exit code, escaped exception) of cli.main under warnings-as-errors, output muted."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            return cli.main(argv), None
        except (Exception, SystemExit) as exc:  # main returns its codes, never exits
            return None, exc


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid files at L = 3 and L = 5 (P = 4), each with the files its commands read,
    plus a window above MAX_L and a spreading file without its column names line."""
    d = tmp_path_factory.mktemp("battery")
    families = {}
    stairs = presets.staircase_support(P=4)
    for L, support in (
        (3, CellSupport(T=1.0, L=3, P=4, mask=stairs.mask, shift=(1 / 4, 1 / 12))),
        (5, CellSupport(T=1.0, L=5, P=4, cells=[(1, 3), (4, 0)])),
    ):
        f = {kind: str(d / f"{kind}{L}{ext}") for kind, ext in
             (("window", ".json"), ("support", ".json"), ("zak", ".csv"), ("eta", ".csv"))}
        formats.save_support(support, f["support"])
        assert _main(["gen-window", "--L", str(L), "--seed", "7", "--out", f["window"]]) == (0, None)
        assert _main(["simulate", "--support", f["support"], "--window", f["window"], "--seed",
                      "5", "--zak-out", f["zak"], "--eta-out", f["eta"]]) == (0, None)
        families[L] = f
    big = d / "big.json"
    big.write_text(json.dumps({"L": gabor.MAX_L + 1, "weights": [[1, 0]] * (gabor.MAX_L + 1)}))
    lines = Path(families[3]["eta"]).read_text().splitlines(keepends=True)
    (d / "no_names.csv").write_text("".join(lines[:1] + lines[2:]))
    seeds = [(kind, L, f[kind]) for L, f in families.items() for kind in LOADERS]
    return d, families, seeds, {"window": str(big), "eta": str(d / "no_names.csv")}


def _commands(kind, f, path, out):
    """The argv lists that read a file of this kind, the rest from family f."""
    w, s, z = f["window"], f["support"], f["zak"]
    return {
        "window": [
            ["spark", "--window", path, "--matrix-out", out("G.csv")],
            ["identify", "--zak", z, "--window", path, "--support", s,
             "--eta-out", out("eta.csv"), "--report-out", out("report.json")],
        ],
        "support": [
            ["rectify", "--support", path, "--report-out", out("report.json")],
            ["simulate", "--support", path, "--window", w, "--seed", "1",
             "--zak-out", out("z.csv"), "--eta-out", out("eta.csv")],
            ["rates", "--support", path, "--window", w, "--eps", "0.5",
             "--report-out", out("report.json")],
        ],
        "zak": [
            ["identify", "--zak", path, "--window", w, "--support", s,
             "--eta-out", out("eta.csv"), "--report-out", out("report.json")],
            ["recover-support", "--zak", path, "--window", w, "--kmax", "2",
             "--eta-out", out("eta.csv"), "--report-out", out("report.json")],
        ],
        "eta": [
            ["simulate", "--eta", path, "--window", w, "--zak-out", out("z.csv"),
             "--eta-out", out("eta.csv")],
            ["identify", "--zak", z, "--window", w, "--support", s, "--eta-true", path,
             "--report-out", out("report.json")],
        ],
    }[kind]


def _mutate(text, rng):
    """One fixed-seed edit: a truncation, a line deleted, repeated or swapped with the
    next, one character replaced, or 1-4 numbers replaced by TOKENS."""
    op = rng.integers(6)
    lines = text.splitlines(keepends=True)
    k = int(rng.integers(len(lines)))
    n = int(rng.integers(len(text)))
    if op == 0:
        return text[:n]
    if op == 1:
        return "".join(lines[:k] + lines[k + 1 :])
    if op == 2:
        return "".join(lines[: k + 1] + lines[k:])
    if op == 3:
        return "".join(lines[:k] + lines[k + 1 : k + 2] + lines[k : k + 1] + lines[k + 2 :])
    if op == 4:
        return text[:n] + CHARS[rng.integers(len(CHARS))] + text[n + 1 :]
    numbers = list(NUMBER.finditer(text))
    for match in sorted(rng.choice(numbers, min(len(numbers), rng.integers(1, 5)),
                               replace=False), key=lambda m: -m.start()):
        text = text[: match.start()] + TOKENS[rng.integers(len(TOKENS))] + text[match.end() :]
    return text


def _same(kind, a, b):
    if kind == "window":
        return (a.L, a.seed, a.weights.tobytes()) == (b.L, b.seed, b.weights.tobytes())
    if kind == "zak":
        return a[1:] == b[1:] and a[0].tobytes() == b[0].tobytes()
    if kind == "eta":
        return _same("support", a.support, b.support) and a.values.tobytes() == b.values.tobytes()
    return ((a.T, a.L, a.P, a.shift, a.offsets, a.cells) == (b.T, b.L, b.P, b.shift, b.offsets,
            b.cells) and a.mask.tobytes() == b.mask.tobytes())


def _check_file(kind, path, saved):
    """Problems with loading the file at path: a loader error other than MalformedFile, a
    re-save that loads to another object, a spreading file with a row count off its mask."""
    load, save = LOADERS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            obj = load(path)
        except MalformedFile:
            return []
        except Exception as exc:
            return [f"{kind} loader raised {exc!r}"]
        save(obj, saved)
        problems = [] if _same(kind, obj, load(saved)) else [f"{kind} re-save loads differently"]
    if kind == "eta":
        lines = Path(path).read_text().splitlines()[1:]  # after the header
        rows = sum(1 for line in lines if line.split(",")[0].strip().isdigit())
        if rows != np.count_nonzero(obj.support.mask):
            problems.append(f"{rows} rows for {np.count_nonzero(obj.support.mask)} mask points")
    return problems


def _run_file(kind, f, path, d):
    """Problems of every command reading path, and the exit codes they gave."""
    out_dir = d / "out"
    out_dir.mkdir(exist_ok=True)
    problems, codes = _check_file(kind, path, str(d / "saved")), []
    for argv in _commands(kind, f, path, lambda name: str(out_dir / name)):
        for stale in out_dir.iterdir():
            stale.unlink()
        code, exc = _main(argv)
        codes.append(code)
        if exc is not None or code not in (0, 2, 3, 4):
            problems.append(f"{argv[0]}: exit {code}, escaped {exc!r}")
            continue
        written = {p.name for p in out_dir.iterdir()}
        allowed = {"report.json"} if (argv[0], code) == ("recover-support", 3) else set()
        if code != 0 and not written <= allowed:
            problems.append(f"{argv[0]} exited {code} and wrote {sorted(written - allowed)}")
    return problems, codes


def test_mutation_battery(seeds):
    d, families, files, refused = seeds
    failures = []
    for kind, path in refused.items():  # the two seeds the loaders must refuse
        problems, codes = _run_file(kind, families[3], path, d)
        failures += problems
        assert set(codes) == {4}, (kind, codes)
    for kind, L, path in files:  # each valid seed meets the contract and passes some command
        problems, codes = _run_file(kind, families[L], path, d)
        assert problems == [] and 0 in codes, (kind, L, problems, codes)
    rng = np.random.default_rng(SEED)
    seen = set()
    pool = files + [(kind, 3, path) for kind, path in refused.items()]
    texts = {path: Path(path).read_text() for *_, path in pool}
    for i in range(MUTATIONS):
        kind, L, source = pool[i % len(pool)]
        mutated = d / f"mutated{i}{source[-5:]}"
        mutated.write_text(_mutate(texts[source], rng))
        problems, codes = _run_file(kind, families[L], str(mutated), d)
        failures += [f"mutation {i} of {source}: {p}" for p in problems]
        seen.update(codes)
    assert failures == [], failures[:10]
    assert {0, 4} <= seen  # mutations both pass and get refused
