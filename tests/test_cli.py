"""End-to-end tests of the command-line interface.

Each test drives cli.main with an argv list and checks printed output, exit
codes, and the files written.  No subprocesses: main() returns the exit code.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsample import cli, formats, presets, random_spreading
from opsample.errors import InvalidParameters
from opsample.gabor import Window
from opsample.support import CellSupport


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path):
    formats.save_support(presets.seven_cell_support(), str(tmp_path / "seven.json"))
    formats.save_support(presets.staircase_support(), str(tmp_path / "stairs.json"))
    return tmp_path


def test_gen_window_and_spark(workdir, capsys):
    out_path = str(workdir / "w.json")
    code, out, _ = run(["gen-window", "--L", "3", "--seed", "7", "--out", out_path], capsys)
    assert code == 0
    assert out.strip() == "spark=4"

    matrix_path = str(workdir / "g.csv")
    code, out, _ = run(["spark", "--window", out_path, "--matrix-out", matrix_path], capsys)
    assert code == 0
    assert out.strip() == "spark=4"
    assert (workdir / "g.csv").read_text().splitlines()[0] == "p,q,m,re,im"


def test_rectify_reports_classes(workdir, capsys):
    report_path = str(workdir / "rect.json")
    code, out, _ = run(
        ["rectify", "--support", str(workdir / "seven.json"), "--report-out", report_path],
        capsys,
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["identifiable"] == "true"
    assert lines["classes"] == "3"
    assert lines["max_cover"] == "3"
    report = json.loads((workdir / "rect.json").read_text())
    assert len(report["gamma"]) == 7


def test_simulate_identify_round_trip(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    args = [
        "simulate", "--support", str(workdir / "seven.json"), "--window", window_path,
        "--seed", "11",
        "--eta-out", str(workdir / "eta.csv"),
        "--zak-out", str(workdir / "zak.csv"),
    ]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert out.startswith("response_l2=")

    code, out, _ = run(
        [
            "identify", "--zak", str(workdir / "zak.csv"), "--window", window_path,
            "--support", str(workdir / "seven.json"),
            "--eta-true", str(workdir / "eta.csv"),
            "--eta-out", str(workdir / "etahat.csv"),
        ],
        capsys,
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["formula"] == "multiclass"
    assert float(lines["relative_l2_error"]) <= 1e-9

    eta = formats.load_spreading(str(workdir / "eta.csv"))
    eta_hat = formats.load_spreading(str(workdir / "etahat.csv"))
    assert np.linalg.norm(eta_hat.values - eta.values) <= 1e-9 * np.linalg.norm(eta.values)


def test_reruns_are_byte_identical(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    base = [
        "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
        "--seed", "5",
    ]
    run(base + ["--zak-out", str(workdir / "a.csv")], capsys)
    run(base + ["--zak-out", str(workdir / "b.csv")], capsys)
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_env_seed_fallback(workdir, capsys, monkeypatch):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    explicit = [
        "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
        "--seed", "5", "--zak-out", str(workdir / "a.csv"),
    ]
    run(explicit, capsys)
    monkeypatch.setenv("OPSAMPLE_SEED", "5")
    implicit = [
        "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
        "--zak-out", str(workdir / "b.csv"),
    ]
    run(implicit, capsys)
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_recover_support_pipeline(workdir, capsys):
    window_path = str(workdir / "w5.json")
    run(["gen-window", "--L", "5", "--seed", "235", "--out", window_path], capsys)
    support_path = str(workdir / "two.json")
    formats.save_support(CellSupport(T=0.5, L=5, cells=[(1, 3), (4, 0)]), support_path)
    run(
        [
            "simulate", "--support", support_path, "--window", window_path, "--seed", "3",
            "--eta-out", str(workdir / "eta.csv"), "--zak-out", str(workdir / "zak.csv"),
        ],
        capsys,
    )
    report_path = str(workdir / "est.json")
    code, out, _ = run(
        [
            "recover-support", "--zak", str(workdir / "zak.csv"), "--window", window_path,
            "--kmax", "2", "--eta-true", str(workdir / "eta.csv"),
            "--report-out", report_path,
        ],
        capsys,
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert json.loads(lines["gamma_hat"]) == [[1, 3], [4, 0]]
    assert float(lines["residual"]) <= 1e-10
    report = json.loads((workdir / "est.json").read_text())
    assert report["exact_match"] is True


def test_recover_support_no_convergence_exits_3(workdir, capsys):
    window_path = str(workdir / "w5.json")
    run(["gen-window", "--L", "5", "--seed", "235", "--out", window_path], capsys)
    support_path = str(workdir / "three.json")
    formats.save_support(CellSupport(T=0.5, L=5, cells=[(0, 0), (2, 2), (4, 4)]), support_path)
    run(
        [
            "simulate", "--support", support_path, "--window", window_path, "--seed", "3",
            "--zak-out", str(workdir / "zak.csv"),
        ],
        capsys,
    )
    # k_max = 1 cannot flatten the residual of a 3-cell channel.
    report_path = str(workdir / "est.json")
    code, out, err = run(
        [
            "recover-support", "--zak", str(workdir / "zak.csv"), "--window", window_path,
            "--kmax", "1", "--report-out", report_path,
        ],
        capsys,
    )
    assert code == 3
    assert "residual=" in out
    assert "error:" in err
    report = json.loads((workdir / "est.json").read_text())
    assert len(report["gamma_hat"]) == 1


def test_rates_report_and_plan(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    code, out, _ = run(
        ["rates", "--support", str(workdir / "seven.json"), "--window", window_path],
        capsys,
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(lines["rate"]) == pytest.approx(1.0)  # 3 deltas per 3 seconds
    assert lines["necessary_ok"] == "true"
    assert float(lines["area"]) == pytest.approx(1.0)

    support_path = str(workdir / "two11.json")
    formats.save_support(CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)]), support_path)
    plan_window = str(workdir / "plan.json")
    code, out, _ = run(
        [
            "rates", "--support", support_path, "--plan", "--eps", "1.5", "--seed", "4",
            "--window-out", plan_window, "--report-out", str(workdir / "rr.json"),
        ],
        capsys,
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["L"] == "11"
    assert lines["support_count"] == "2"
    assert float(lines["sufficient_margin"]) > 0

    code, out, _ = run(
        ["verify", "--support", support_path, "--window", plan_window, "--seed", "6"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "ok=true"


def test_verify_round_trip(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    code, out, _ = run(
        [
            "verify", "--support", str(workdir / "seven.json"), "--window", window_path,
            "--seed", "11",
        ],
        capsys,
    )
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(lines["system_identity_residual"]) <= 1e-10
    assert float(lines["round_trip_error"]) <= 1e-9
    assert lines["ok"] == "true"


def test_spilling_mask_is_refused_before_writing(tmp_path):
    S = presets.translate_collision_support(L=3, P=4)  # overflow rows: mask 16 x 12
    for save, obj in ((formats.save_support, S), (formats.save_spreading, random_spreading(S))):
        path = tmp_path / "out"
        with pytest.raises(InvalidParameters):
            save(obj, str(path))
        assert not path.exists()


def test_exit_codes(workdir, capsys):
    # 4: file missing / unparseable
    code, _, err = run(["spark", "--window", str(workdir / "missing.json")], capsys)
    assert code == 4 and "error:" in err
    bad = workdir / "bad.json"
    bad.write_text("not json")
    code, _, _ = run(["spark", "--window", str(bad)], capsys)
    assert code == 4

    # 2: precondition failure (spark_k needs a prime period)
    code, _, err = run(
        ["gen-window", "--L", "4", "--target", "spark_k", "--k", "2", "--seed", "1"], capsys
    )
    assert code == 2 and "error:" in err

    # 2: usage error (identify without --support)
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    run(
        [
            "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
            "--seed", "5", "--zak-out", str(workdir / "z.csv"),
        ],
        capsys,
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["identify", "--zak", str(workdir / "z.csv"), "--window", window_path])
    capsys.readouterr()
    assert exc.value.code == 2

    # 2: usage errors argparse does not express are returned, not raised
    stairs = str(workdir / "stairs.json")
    for argv in (
        ["identify", "--zak", str(workdir / "z.csv"), "--window", window_path,
         "--support", stairs, "--smooth"],
        ["rates", "--support", stairs, "--plan"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2 and "usage error:" in err

    # 2: off-grid or non-finite chirp rate, non-finite eps
    for argv in (
        ["simulate", "--support", stairs, "--window", window_path, "--seed", "5",
         "--chirp-a", "0.1"],
        ["simulate", "--support", stairs, "--window", window_path, "--seed", "5",
         "--chirp-a", "nan"],
        ["identify", "--zak", str(workdir / "z.csv"), "--window", window_path,
         "--support", stairs, "--smooth", "--eps", "nan"],
        ["rates", "--support", stairs, "--plan", "--eps", "nan"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert "error:" in err and "Traceback" not in err


def test_bad_grid_csv_exits_4(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    zak, eta = workdir / "z.csv", workdir / "eta.csv"
    run(
        [
            "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
            "--seed", "5", "--zak-out", str(zak), "--eta-out", str(eta),
        ],
        capsys,
    )
    zak_lines = zak.read_text().splitlines(keepends=True)
    eta_lines = eta.read_text().splitlines(keepends=True)

    def with_row(lines, n, row):
        return "".join(lines[:n] + [row] + lines[n + 1 :])

    bad_zak = {
        "index": with_row(zak_lines, 2, "999,0,1,0\n"),
        "negative": with_row(zak_lines, 2, "-1,0,1,0\n"),
        "truncated": "".join(zak_lines[:3]),
        "duplicate": with_row(zak_lines, 3, zak_lines[2]),
        "nan": with_row(zak_lines, 2, "0,0,nan,0\n"),
        "inf": with_row(zak_lines, 2, "0,0,1,inf\n"),
        "short_row": with_row(zak_lines, 2, "0,0,1\n"),
        "T_nan": with_row(zak_lines, 0, zak_lines[0].replace("T=1 ", "T=nan ")),
        "T_inf": with_row(zak_lines, 0, zak_lines[0].replace("T=1 ", "T=inf ")),
    }
    bad_eta = {
        "index": with_row(eta_lines, 2, "999,0,1,0\n"),
        "nan": with_row(eta_lines, 2, eta_lines[2].rsplit(",", 1)[0] + ",nan\n"),
    }
    base = ["identify", "--window", window_path, "--support", str(workdir / "stairs.json")]
    cases = [("--zak", text) for text in bad_zak.values()]
    cases += [("--eta-true", text) for text in bad_eta.values()]
    for n, (flag, text) in enumerate(cases):
        path = workdir / f"bad{n}.csv"
        path.write_text(text)
        loader = formats.load_zak if flag == "--zak" else formats.load_spreading
        with pytest.raises(InvalidParameters):
            loader(str(path))
        files = {"--zak": str(zak), "--eta-true": str(eta), flag: str(path)}
        code, _, err = run(base + [x for pair in files.items() for x in pair], capsys)
        assert code == 4, (flag, text[:80])
        assert "error:" in err and "Traceback" not in err

    # a finite value so large that the solve overflows is a numerical failure
    path = workdir / "huge_value.csv"
    path.write_text(with_row(zak_lines, 2, "0,0,1.7e308,0\n"))
    code, _, err = run(base + ["--zak", str(path)], capsys)
    assert code == 3
    assert "error:" in err and "Traceback" not in err

    # recover-support builds its search region from the header's T
    path = workdir / "bad_header.csv"
    path.write_text(bad_zak["T_nan"])
    code, _, err = run(
        ["recover-support", "--zak", str(path), "--window", window_path, "--kmax", "2"], capsys
    )
    assert code == 4
    assert "error:" in err and "Traceback" not in err


def test_malformed_json_exits_4_naming_the_file_once(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    payload = json.loads(Path("stairs.json").read_text())
    cases = {
        "rle.json": {**payload, "fine_mask_rle": 5},  # not a run-length string
        "huge.json": {**payload, "L": 10**7},  # a mask beyond any address space
    }
    for name, bad in cases.items():
        Path(name).write_text(json.dumps(bad))
        code, _, err = run(["rectify", "--support", name], capsys)
        assert code == 4, name
        assert "error:" in err and "Traceback" not in err
        assert err.count(name) == 1


@pytest.mark.parametrize(
    "zak, argv",
    [
        # identify with the Zak grid's own cells at another T
        ("zak8.csv", ["identify", "--support", "seven_T2.json"]),
        # recover-support with a search domain at another T
        ("zak8.csv", ["recover-support", "--kmax", "2", "--domain", "all_T2.json"]),
        # a P = 8 ground truth against a P = 4 support
        ("zak4.csv", ["identify", "--support", "stairs_P4.json", "--eta-true", "eta8.csv"]),
    ],
    ids=["identify_T", "domain_T", "eta_true_P"],
)
def test_grid_mismatch_exits_2(workdir, capsys, monkeypatch, zak, argv):
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    formats.save_support(presets.seven_cell_support(T=2.0), "seven_T2.json")
    formats.save_support(presets.staircase_support(P=4), "stairs_P4.json")
    every_cell = [(q, m) for q in range(3) for m in range(3)]
    formats.save_support(CellSupport(T=2.0, L=3, cells=every_cell), "all_T2.json")
    for support, tag in (("seven.json", "8"), ("stairs_P4.json", "4")):
        code, _, _ = run(
            [
                "simulate", "--support", support, "--window", "w.json", "--seed", "5",
                "--eta-out", f"eta{tag}.csv", "--zak-out", f"zak{tag}.csv",
            ],
            capsys,
        )
        assert code == 0
    code, out, err = run([argv[0], "--zak", zak, "--window", "w.json", *argv[1:]], capsys)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert "relative_l2_error" not in out


def test_recover_support_full_estimate_exits_3(workdir, capsys, monkeypatch):
    # any L = 3 columns of a full-spark G fit every Z-vector: no certificate
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    run(
        ["simulate", "--support", "stairs.json", "--window", "w.json", "--seed", "5",
         "--zak-out", "z.csv"],
        capsys,
    )
    code, out, err = run(
        ["recover-support", "--zak", "z.csv", "--window", "w.json", "--kmax", "3"], capsys
    )
    assert code == 3
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert len(json.loads(lines["gamma_hat"])) == 3
    assert float(lines["residual"]) <= 1e-10
    assert "error:" in err


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Small valid inputs (L = 3, P = 4) of every kind, and the command reading each."""
    d = tmp_path_factory.mktemp("valid")
    p = {k: str(d / k) for k in ("w.json", "s.json", "z.csv", "eta.csv")}
    staircase = presets.staircase_support(P=4)
    # a shifted fine mask, so the file carries shift and fine_mask_rle
    formats.save_support(
        CellSupport(T=1.0, L=3, P=4, mask=staircase.mask, shift=(1 / 4, 1 / 12)), p["s.json"]
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-window", "--L", "3", "--seed", "7", "--out", p["w.json"]]) == 0
        assert cli.main(
            [
                "simulate", "--support", p["s.json"], "--window", p["w.json"], "--seed", "5",
                "--zak-out", p["z.csv"], "--eta-out", p["eta.csv"],
            ]
        ) == 0
    w, s, z, eta = p["w.json"], p["s.json"], p["z.csv"], p["eta.csv"]
    commands = {  # each ends with the flag that takes the corrupted file
        "w.json": ["spark", "--window"],
        "s.json": ["identify", "--window", w, "--zak", z, "--support"],
        "z.csv": ["identify", "--window", w, "--support", s, "--eta-true", eta, "--zak"],
        "eta.csv": ["simulate", "--window", w, "--eta"],
    }
    return d, p, commands


EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "drop line", "repeat line"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from('0123456789,.-en[]"'),
)


def _edit(text, op, pos, char):
    """One character replaced, inserted or deleted, or one line dropped or repeated."""
    n = pos % len(text)
    lines = text.splitlines(keepends=True)
    k = pos % len(lines)
    return {
        "replace": text[:n] + char + text[n + 1 :],
        "insert": text[:n] + char + text[n:],
        "delete": text[:n] + text[n + 1 :],
        "drop line": "".join(lines[:k] + lines[k + 1 :]),
        "repeat line": "".join(lines[: k + 1] + lines[k:]),
    }[op]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(kind=st.sampled_from(["w.json", "s.json", "z.csv", "eta.csv"]), edit=EDITS)
def test_corrupted_file_never_crashes(valid_files, kind, edit):
    d, paths, commands = valid_files
    bad = d / f"bad_{kind}"
    bad.write_text(_edit(Path(paths[kind]).read_text(), *edit))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(commands[kind] + [str(bad)])
    assert code in (0, 2, 3, 4), (code, edit, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.filterwarnings("error")
def test_recover_support_zero_window_exits_3(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    zak = str(workdir / "z.csv")
    run(
        [
            "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
            "--seed", "5", "--zak-out", zak,
        ],
        capsys,
    )
    zero_path = str(workdir / "zero.json")
    formats.save_window(Window(L=3, weights=np.zeros(3)), zero_path)
    code, _, err = run(
        ["recover-support", "--zak", zak, "--window", zero_path, "--kmax", "2"], capsys
    )
    assert code == 3
    assert "error:" in err and "Traceback" not in err


def test_identify_smooth_and_symplectic(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    para = str(workdir / "para.json")
    formats.save_support(presets.sheared_parallelogram_support(), para)
    a = "0.3333333333333333"  # kappa = L*T*a = 1 on the T = 1, L = 3 grid
    cases = [
        (str(workdir / "seven.json"), [], ["--smooth", "--eps", "0.125"], "smooth"),
        (para, ["--chirp-a", a], ["--symplectic", a], "symplectic"),
    ]
    for support, sim_flags, id_flags, formula in cases:
        zak, eta = str(workdir / "z.csv"), str(workdir / "eta.csv")
        code, _, _ = run(
            [
                "simulate", "--support", support, "--window", window_path, "--seed", "11",
                "--eta-out", eta, "--zak-out", zak, *sim_flags,
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            [
                "identify", "--zak", zak, "--window", window_path, "--support", support,
                "--eta-true", eta, *id_flags,
            ],
            capsys,
        )
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert lines["formula"] == formula
        assert float(lines["relative_l2_error"]) <= 1e-12


def test_floats_print_17_digits(workdir, capsys):
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    code, out, _ = run(
        [
            "simulate", "--support", str(workdir / "seven.json"), "--window", window_path,
            "--seed", "11",
        ],
        capsys,
    )
    assert code == 0
    value = out.strip().split("=", 1)[1]
    assert float(value) == float(f"{float(value):.17g}")
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16
