"""End-to-end tests of the command-line interface.

Each test drives cli.main with an argv list and checks printed output, exit
codes, and the files written; main() returns the exit code.  Only the BLAS
thread-count test runs the program as child processes, since the thread
count is fixed when numpy loads.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsample import cli, formats, gabor, presets, random_spreading
from opsample.errors import InvalidParameters, MalformedFile
from opsample.gabor import Window, build_gabor_matrix
from opsample.support import CellSupport

from test_gabor import count_entries_builds
from test_sparse import rank_one_zak


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


def test_spark_at_the_ends_of_the_float_range(workdir, capsys):
    # the screen's scaling overflowed here: exit 3 ("overflow encountered in divide")
    path = str(workdir / "tiny.json")
    formats.save_window(Window(L=3, weights=np.array([1e-320, 2e-320, 0])), path)
    code, out, err = run(["spark", "--window", path], capsys)
    assert (code, out.strip(), err) == (0, "spark=3", "")
    # finite weights whose G(c) overflows are refused by name (exit 2), not as a
    # floating-point failure (exit 3, "overflow encountered in matmul")
    formats.save_window(Window(L=3, weights=np.full(3, 1.7e308 + 1.7e308j)), path)
    code, out, err = run(["spark", "--window", path], capsys)
    assert (code, out, err) == (2, "", "error: G(c) overflows: its entries must be finite\n")


def test_every_command_refuses_an_overflowing_window_alike(workdir, capsys, monkeypatch):
    # simulate and verify failed later, in apply_channel (exit 3), and rates reported a rate
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    run(["simulate", "--support", "stairs.json", "--window", "w.json", "--seed", "5",
         "--zak-out", "z.csv"], capsys)
    formats.save_window(Window(L=3, weights=np.full(3, 1.7e308 + 1.7e308j)), "huge.json")
    before = sorted(os.listdir())
    outputs = ["--eta-out", "eta.csv", "--report-out", "report.json"]
    for argv in (
        ["spark", "--window", "huge.json", "--matrix-out", "G.csv"],
        ["identify", "--zak", "z.csv", "--window", "huge.json", "--support", "stairs.json",
         *outputs],
        ["recover-support", "--zak", "z.csv", "--window", "huge.json", "--kmax", "2", *outputs],
        ["verify", "--support", "stairs.json", "--window", "huge.json", "--seed", "1"],
        ["simulate", "--support", "stairs.json", "--window", "huge.json", "--seed", "5",
         "--eta-out", "eta.csv", "--response-out", "r.csv", "--zak-out", "zh.csv"],
        ["rates", "--support", "stairs.json", "--window", "huge.json", "--report-out",
         "report.json"],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "error: G(c) overflows: its entries must be finite\n")
        assert sorted(os.listdir()) == before, argv


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
    para = str(workdir / "para.json")
    formats.save_support(presets.sheared_parallelogram_support(), para)
    a = "0.3333333333333333"  # kappa = 1
    window5 = str(workdir / "w5.json")
    run(["gen-window", "--L", "5", "--seed", "235", "--out", window5], capsys)
    two = str(workdir / "two.json")
    formats.save_support(CellSupport(T=0.5, L=5, cells=[(1, 3), (4, 0)]), two)

    def outputs(tag):
        d = workdir / tag
        d.mkdir()
        printed = []
        for support, flags in ((str(workdir / "stairs.json"), []), (para, ["--chirp-a", a])):
            name = Path(support).stem
            printed.append(run(
                [
                    "simulate", "--support", support, "--window", window_path, "--seed", "5",
                    "--eta-out", str(d / f"{name}_eta.csv"),
                    "--zak-out", str(d / f"{name}_zak.csv"),
                    "--response-out", str(d / f"{name}_resp.csv"),
                    *flags,
                ],
                capsys,
            ))
        printed.append(run(
            [
                "identify", "--zak", str(d / "para_zak.csv"), "--window", window_path,
                "--support", para, "--symplectic", a, "--eta-true", str(d / "para_eta.csv"),
                "--eta-out", str(d / "para_hat.csv"), "--report-out", str(d / "report.json"),
            ],
            capsys,
        ))
        # the unknown-support decoder: its estimate, eta file and report
        printed.append(run(
            ["simulate", "--support", two, "--window", window5, "--seed", "3",
             "--zak-out", str(d / "two_zak.csv")],
            capsys,
        ))
        printed.append(run(
            [
                "recover-support", "--zak", str(d / "two_zak.csv"), "--window", window5,
                "--kmax", "2", "--eta-out", str(d / "two_hat.csv"),
                "--report-out", str(d / "two_report.json"),
            ],
            capsys,
        ))
        assert all(code == 0 for code, _, _ in printed)
        return printed, {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, second = outputs("a"), outputs("b")
    assert len(first[1]) == 11
    assert first == second


def test_printed_norms_do_not_depend_on_blas_threads(tmp_path):
    # at P=64 np.linalg.norm's threaded dot product moved the last printed digits
    formats.save_support(presets.seven_cell_support(P=64), str(tmp_path / "seven.json"))
    path = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))

    def outputs(threads):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        d = tmp_path / f"t{threads}"
        d.mkdir()
        stdout = []
        for argv in (
            ["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"],
            ["simulate", "--support", "../seven.json", "--window", "w.json", "--seed", "11",
             "--eta-out", "eta.csv", "--zak-out", "zak.csv"],
            ["identify", "--zak", "zak.csv", "--window", "w.json", "--support", "../seven.json",
             "--eta-true", "eta.csv", "--report-out", "report.json"],
        ):
            proc = subprocess.run([sys.executable, "-m", "opsample.cli", *argv], cwd=d, env=env,
                                  capture_output=True, text=True, check=True)
            stdout.append(proc.stdout)
        return stdout, (d / "report.json").read_bytes()

    one, two = outputs(1), outputs(2)
    assert "relative_l2_error" in one[0][2]
    assert one == two


def test_grid_loaders_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (~20 ms in each CLI child); the repeated-index check must not
    formats.save_spreading(random_spreading(presets.staircase_support(P=4), seed=1),
                           str(tmp_path / "eta.csv"))
    formats.save_zak(np.ones((12, 4), dtype=complex), 1.0, 3, 4, str(tmp_path / "zak.csv"))
    path = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys; from opsample import formats; "
        "formats.load_zak('zak.csv'); formats.load_spreading('eta.csv'); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_env_seed_is_ignored(workdir, capsys, monkeypatch):
    # --seed is the one way to seed a draw: OPSAMPLE_SEED does not stand in for it
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    for value in ("5", "abc"):
        monkeypatch.setenv("OPSAMPLE_SEED", value)
        implicit = [
            "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
            "--zak-out", str(workdir / "b.csv"),
        ]
        code, out, err = run(implicit, capsys)
        assert (code, out) == (2, ""), value
        assert "usage error:" in err and "--seed" in err
    assert not (workdir / "b.csv").exists()


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


def test_grid_over_max_lp_is_refused_before_writing(tmp_path):
    L, P = 513, 8  # L*P = 4104 > support.MAX_LP: no support or file holds such a grid
    with pytest.raises(InvalidParameters, match="exceeds the grid limit"):
        CellSupport(T=1.0, L=L, P=P, mask=np.ones((1, 1), dtype=bool))
    path = tmp_path / "out"
    with pytest.raises(InvalidParameters, match="exceeds the grid limit"):
        formats.save_zak(np.zeros((L * P, P)), 1.0, L, P, str(path))
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
            "--seed", "5", "--zak-out", str(workdir / "z.csv"), "--eta-out", str(workdir / "e.csv"),
        ],
        capsys,
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["identify", "--zak", str(workdir / "z.csv"), "--window", window_path])
    capsys.readouterr()
    assert exc.value.code == 2

    # 2: usage errors argparse does not express, and flags the chosen mode never reads,
    # are returned, not raised, before any file is read or written
    stairs = str(workdir / "stairs.json")
    identify = ["identify", "--zak", str(workdir / "z.csv"), "--window", window_path,
                "--support", stairs]
    simulate = ["simulate", "--eta", str(workdir / "e.csv"), "--window", window_path]
    window_out = workdir / "x.json"
    for argv in (
        [*identify, "--smooth"],
        [*identify, "--smooth", "--eps", "0.125", "--symplectic", "1"],
        [*identify, "--eps", "5"],
        [*simulate, "--seed", "99"],
        [*simulate, "--support", str(workdir / "missing.json")],
        ["rates", "--support", stairs, "--plan"],
        ["rates", "--support", stairs, "--plan", "--eps", "0.5", "--window", window_path],
        ["rates", "--support", stairs, "--window", window_path, "--seed", "1"],
        ["rates", "--support", stairs, "--window", window_path, "--window-out", str(window_out)],
        ["gen-window", "--L", "3", "--k", "7", "--seed", "1"],
        # a negative seed, in every seeded command
        ["gen-window", "--L", "3", "--seed", "-1"],
        ["simulate", "--support", stairs, "--window", window_path, "--seed", "-1"],
        ["rates", "--support", stairs, "--plan", "--eps", "0.5", "--seed", "-1"],
        ["verify", "--support", stairs, "--window", window_path, "--seed", "-2"],
        # a missing seed, in every command that draws
        ["gen-window", "--L", "3", "--out", str(window_out)],
        ["rates", "--support", stairs, "--plan", "--eps", "0.5", "--window-out", str(window_out)],
        ["verify", "--support", stairs, "--window", window_path],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and "usage error:" in err and out == "", argv
    assert not window_out.exists()

    # 2: off-grid or non-finite chirp rate, non-finite eps or tol
    for argv in (
        ["simulate", "--support", stairs, "--window", window_path, "--seed", "5",
         "--chirp-a", "0.1"],
        ["simulate", "--support", stairs, "--window", window_path, "--seed", "5",
         "--chirp-a", "nan"],
        ["identify", "--zak", str(workdir / "z.csv"), "--window", window_path,
         "--support", stairs, "--smooth", "--eps", "nan"],
        ["rates", "--support", stairs, "--plan", "--eps", "nan"],
        ["rates", "--support", stairs, "--window", window_path, "--eps", "nan"],
        ["rates", "--support", stairs, "--window", window_path, "--eps", "inf"],
        ["recover-support", "--zak", str(workdir / "z.csv"), "--window", window_path,
         "--kmax", "2", "--tol", "nan"],
        ["recover-support", "--zak", str(workdir / "z.csv"), "--window", window_path,
         "--kmax", "2", "--tol", "inf"],
        ["verify", "--support", stairs, "--window", window_path, "--seed", "5", "--tol", "nan"],
        ["verify", "--support", stairs, "--window", window_path, "--seed", "5", "--tol", "inf"],
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
        "over_bound": with_row(zak_lines, 0, zak_lines[0].replace("L=3 ", "L=513 ")),
        "no_names": "".join(zak_lines[:1] + zak_lines[2:]),
    }
    bad_eta = {
        "index": with_row(eta_lines, 2, "999,0,1,0\n"),
        "nan": with_row(eta_lines, 2, eta_lines[2].rsplit(",", 1)[0] + ",nan\n"),
        "duplicate": with_row(eta_lines, 3, eta_lines[2]),
        "over_bound": with_row(eta_lines, 0, eta_lines[0].replace("L=3 ", "L=513 ")),
        # the column names line is checked, so no data row is read in its place
        "no_names": "".join(eta_lines[:1] + eta_lines[2:]),
        "other_names": with_row(eta_lines, 1, "i,j,im,re\n"),
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

    for flag, text in (("--zak", bad_zak["duplicate"]), ("--eta-true", bad_eta["duplicate"])):
        path = workdir / "repeated.csv"
        path.write_text(text)
        loader = formats.load_zak if flag == "--zak" else formats.load_spreading
        with pytest.raises(InvalidParameters, match="repeated grid index"):
            loader(str(path))

    # a finite value so large that the solve overflows is a numerical failure
    path = workdir / "huge_value.csv"
    path.write_text(with_row(zak_lines, 2, "0,0,1.7e308,0\n"))
    code, _, err = run(base + ["--zak", str(path)], capsys)
    assert code == 3
    assert "error:" in err and "Traceback" not in err

    path = workdir / "no_names.csv"
    path.write_text(bad_eta["no_names"])
    with pytest.raises(MalformedFile, match="must be i,j,re,im"):
        formats.load_spreading(str(path))
    code, out, err = run(["simulate", "--eta", str(path), "--window", window_path,
                          "--eta-out", str(workdir / "again.csv")], capsys)
    assert (code, out) == (4, "") and not (workdir / "again.csv").exists()

    # the L*P bound refuses the header before the body is read
    path = workdir / "over_bound.csv"
    path.write_text(bad_zak["over_bound"])
    with pytest.raises(InvalidParameters, match="exceeds the grid limit"):
        formats.load_zak(str(path))

    # recover-support builds its search region from the header's T
    path = workdir / "bad_header.csv"
    path.write_text(bad_zak["T_nan"])
    code, _, err = run(
        ["recover-support", "--zak", str(path), "--window", window_path, "--kmax", "2"], capsys
    )
    assert code == 4
    assert "error:" in err and "Traceback" not in err


def test_a_fine_mask_that_misses_the_grid_is_malformed(tmp_path):
    path = tmp_path / "short.json"
    payload = {"T": 1.0, "L": 3, "P": 2, "cells": [[0, 0]], "fine_mask_rle": "0,4"}  # 4 of 36
    path.write_text(json.dumps(payload))
    with pytest.raises(MalformedFile, match="mask run lengths do not cover the grid"):
        formats.load_support(str(path))


def test_malformed_json_exits_4_naming_the_file_once(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    payload = json.loads(Path("stairs.json").read_text())
    cases = {
        "rle.json": {**payload, "fine_mask_rle": 5},  # not a run-length string
        "huge.json": {**payload, "L": 10**7},  # a mask beyond any address space
        "over_bound.json": {**payload, "L": 513, "P": 8},  # L*P = 4104 > formats.MAX_LP
        # integer fields are JSON integers: no float or bool is truncated to one
        "L_float.json": {**payload, "L": 3.7},
        "L_integral_float.json": {**payload, "L": 3.0},
        "P_float.json": {**payload, "P": 8.9},
        "L_bool.json": {**payload, "L": True},
        "P_string.json": {**payload, "P": "8"},
        "cell_float.json": {**payload, "cells": [[0.5, 0], [1, 0], [2, 1]]},
        "cell_bool.json": {**payload, "cells": [[False, False], [1, 0], [2, 1]]},
        # real fields are JSON numbers: no string or bool is parsed as one
        "T_string.json": {**payload, "T": "1"},
        "T_bool.json": {**payload, "T": True},
        "shift_string.json": {**payload, "shift": ["0", "0"]},
        "shift_bool.json": {**payload, "shift": [False, 0]},
    }
    for name, bad in cases.items():
        Path(name).write_text(json.dumps(bad))
        with pytest.raises(MalformedFile):
            formats.load_support(name)
        code, _, err = run(["rectify", "--support", name], capsys)
        assert code == 4, name
        assert "error:" in err and "Traceback" not in err
        assert err.count(name) == 1

    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    window = json.loads(Path("w.json").read_text())
    assert window["seed"] == 7 and formats.load_window("w.json").seed == 7
    Path("w_null.json").write_text(json.dumps({**window, "seed": None}))
    assert formats.load_window("w_null.json").seed is None
    cases = {
        "w_L_float.json": {**window, "L": 3.5},
        "w_L_integral_float.json": {**window, "L": 3.0},
        "w_L_bool.json": {**window, "L": True},
        "w_seed_negative.json": {**window, "seed": -1},
        "w_seed_float.json": {**window, "seed": 7.5},
        "w_seed_bool.json": {**window, "seed": True},
        "w_weight_bool.json": {**window, "weights": [[True, False], [1, 0], [0.5, 0.25]]},
        "w_weight_string.json": {**window, "weights": [[1, 0], [1, "0"], [0.5, 0.25]]},
    }
    for name, bad in cases.items():
        Path(name).write_text(json.dumps(bad))
        with pytest.raises(MalformedFile):
            formats.load_window(name)
        code, out, err = run(["spark", "--window", name], capsys)
        assert (code, out) == (4, ""), name
        assert "Traceback" not in err and err.count(name) == 1

    # a file too large to hold is malformed too, named once
    def out_of_memory(**_):
        raise MemoryError("cannot allocate the mask")

    monkeypatch.setattr(formats, "CellSupport", out_of_memory)
    with pytest.raises(MalformedFile, match="cannot allocate"):
        formats.load_support("stairs.json")
    code, out, err = run(["rectify", "--support", "stairs.json"], capsys)
    assert (code, out) == (4, "")
    assert err.count("stairs.json") == 1 and "Traceback" not in err


def test_window_above_max_l_exits_4_before_any_gabor_matrix(workdir, capsys, monkeypatch):
    # G(c) holds L^3 complex entries (119 GiB at L = 2000): the loader refuses L > MAX_L
    # before any command builds one (at MAX_L + 1 it would still fit in ~0.6 GB)
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    run(["simulate", "--support", "stairs.json", "--window", "w.json", "--seed", "5",
         "--zak-out", "z.csv"], capsys)
    L = gabor.MAX_L + 1
    Path("big.json").write_text(json.dumps({"L": L, "weights": [[1.0, 0.0]] * L, "seed": None}))
    builds = count_entries_builds(monkeypatch)
    with pytest.raises(MalformedFile, match=f"L must be an integer in \\[1, {gabor.MAX_L}\\]"):
        formats.load_window("big.json")
    for argv in (
        ["spark", "--window", "big.json", "--matrix-out", "G.csv"],
        ["identify", "--zak", "z.csv", "--window", "big.json", "--support", "stairs.json"],
        ["verify", "--support", "stairs.json", "--window", "big.json", "--seed", "1"],
        ["recover-support", "--zak", "z.csv", "--window", "big.json", "--kmax", "2"],
        ["rates", "--support", "stairs.json", "--window", "big.json"],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, ""), argv
        assert "Traceback" not in err and err.count("big.json") == 1
    assert builds == [] and not Path("G.csv").exists()


def test_rates_plan_refusals_exit_2(workdir, capsys, monkeypatch):
    # small.json of tools/cli_manifest.py: its cell-column hull 0.25 is above 0.1875, so
    # eps = 0.5 is refused at once; a full-T strip at eps = 0.001 would need L' > 3000 and
    # stops at the grid budget
    monkeypatch.chdir(workdir)
    for rows, eps, reason in ((2, "0.5", "cell-column hull"), (4, "0.001", "grid budget")):
        mask = np.zeros((12, 12), dtype=bool)
        mask[:rows, :3] = True
        formats.save_support(CellSupport(T=1.0, L=3, P=4, mask=mask), "corner.json")
        code, out, err = run(["rates", "--support", "corner.json", "--plan", "--eps", eps,
                              "--seed", "4", "--window-out", "plan.json"], capsys)
        assert (code, out) == (2, "") and reason in err and "Traceback" not in err
        assert not Path("plan.json").exists()


def test_support_with_an_infinite_omega_exits_4(workdir, capsys, monkeypatch):
    # T = 1e-320 is finite and positive, but Omega = 1/(L*T) is inf
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    payload = json.loads(Path("stairs.json").read_text())
    Path("tiny_T.json").write_text(json.dumps({**payload, "T": 1e-320}))
    for argv in (
        ["rectify", "--support", "tiny_T.json"],
        ["simulate", "--support", "tiny_T.json", "--window", "w.json", "--seed", "5"],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, ""), argv
        assert "tiny_T.json" in err and "Traceback" not in err


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


def test_recover_support_refuses_what_the_rank_bound_cannot_prove(workdir, capsys, monkeypatch):
    # both fits have zero residual; neither is certified, and no eta is written
    monkeypatch.chdir(workdir)
    # a spark-3 window: cells (2, 1) and (2, 4) fit as (2, 2) and (2, 3)
    run(["gen-window", "--L", "5", "--target", "spark_k", "--k", "2", "--seed", "0",
         "--out", "w3.json"], capsys)
    formats.save_support(CellSupport(T=1.0, L=5, P=8, cells=[(2, 1), (2, 4)]), "pair.json")
    run(["simulate", "--support", "pair.json", "--window", "w3.json", "--seed", "7",
         "--eta-out", "e.csv", "--zak-out", "z3.csv"], capsys)
    # a full-spark window and rank-1 data that two three-cell sets fit
    run(["gen-window", "--L", "5", "--seed", "0", "--out", "w6.json"], capsys)
    G = build_gabor_matrix(formats.load_window("w6.json"))
    formats.save_zak(rank_one_zak(G, 8), 1.0, 5, 8, "z6.csv")
    for window, zak, extra, level in (("w3.json", "z3.csv", ["--eta-true", "e.csv"], 3),
                                      ("w6.json", "z6.csv", [], 6)):
        code, out, err = run(["recover-support", "--zak", zak, "--window", window, "--kmax",
                              "4", "--eta-out", "hat.csv", *extra], capsys)
        assert code == 3, window
        assert float(dict(line.split("=", 1) for line in out.splitlines())["residual"]) <= 1e-10
        assert f"level s = {level}" in err and "relative_l2_error" not in out
        assert not Path("hat.csv").exists()


def test_recover_support_above_the_search_limit_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    formats.save_window(Window(L=8, weights=np.exp(2j * np.pi * np.arange(8) / 7)), "w8.json")
    formats.save_zak(np.ones((16, 2), dtype=complex), 1.0, 8, 2, "z8.csv")
    code, out, err = run(["recover-support", "--zak", "z8.csv", "--window", "w8.json",
                          "--kmax", "1"], capsys)
    assert (code, out) == (2, "")
    assert "L <= 7" in err and "Traceback" not in err


def test_recover_support_domain_edge_cases(workdir, capsys, monkeypatch):
    # an empty search domain is a precondition error; a one-cell domain
    # offers its cell once, so --kmax 2 stops after one pick
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    run(
        ["simulate", "--support", "stairs.json", "--window", "w.json", "--seed", "5",
         "--zak-out", "z.csv"],
        capsys,
    )
    formats.save_support(CellSupport(T=1.0, L=3, P=8, cells=[]), "empty.json")
    formats.save_support(CellSupport(T=1.0, L=3, P=8, cells=[(0, 2)]), "one.json")
    base = ["recover-support", "--zak", "z.csv", "--window", "w.json", "--kmax", "2"]
    code, out, err = run(base + ["--domain", "empty.json"], capsys)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err
    code, out, err = run(base + ["--domain", "one.json"], capsys)
    assert code == 3
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert json.loads(lines["gamma_hat"]) == [[0, 2]]
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


def test_an_empty_support_and_an_all_zero_grid_exit_0_with_a_zero_eta(workdir, capsys, monkeypatch):
    # an empty whole-cell support has no class to invert: the solve must not ask for one
    monkeypatch.chdir(workdir)
    run(["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"], capsys)
    formats.save_support(CellSupport(T=1.0, L=3, P=4, cells=()), "empty.json")
    formats.save_zak(np.zeros((12, 4)), 1.0, 3, 4, "zero.csv")
    code, out, err = run(["identify", "--zak", "zero.csv", "--window", "w.json", "--support",
                          "empty.json", "--eta-out", "eta.csv", "--report-out", "id.json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(Path("id.json").read_text()) == {
        "formula": "sharp", "gamma": [], "relative_l2_error": None, "per_class_conditioning": []}
    assert not formats.load_spreading("eta.csv").values.any()
    code, out, err = run(["recover-support", "--zak", "zero.csv", "--window", "w.json", "--kmax",
                          "2", "--eta-out", "hat.csv", "--report-out", "est.json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(Path("est.json").read_text())["gamma_hat"] == []
    hat = formats.load_spreading("hat.csv")
    assert hat.support.cells == () and not hat.values.any()


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


@pytest.fixture(scope="module")
def shape_inputs(tmp_path_factory):
    """A directory with the windows, supports and grids the output-shape runs read."""
    d = tmp_path_factory.mktemp("shapes")
    formats.save_support(presets.seven_cell_support(), str(d / "seven.json"))
    formats.save_support(CellSupport(T=0.5, L=5, cells=[(1, 3), (4, 0)]), str(d / "two.json"))
    formats.save_support(CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)]), str(d / "two11.json"))
    setup = [
        ["gen-window", "--L", "3", "--seed", "7", "--out", "w.json"],
        ["gen-window", "--L", "5", "--seed", "235", "--out", "w5.json"],
        ["simulate", "--support", "seven.json", "--window", "w.json", "--seed", "11",
         "--eta-out", "eta.csv", "--zak-out", "zak.csv"],
        ["simulate", "--support", "two.json", "--window", "w5.json", "--seed", "3",
         "--eta-out", "eta5.csv", "--zak-out", "zak5.csv"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in setup:
            argv = [str(d / a) if a.endswith((".json", ".csv")) else a for a in argv]
            assert cli.main(argv) == 0
    return d


SHAPES = {  # argv, the printed keys in order, and the --report-out value types (if any)
    "gen-window": (["gen-window", "--L", "3", "--seed", "7"], ["spark"], None),
    "spark": (["spark", "--window", "w.json"], ["spark"], None),
    "rectify": (
        ["rectify", "--support", "seven.json"],
        ["identifiable", "classes", "max_cover", "bandwidth", "gamma"],
        {"identifiable": bool, "classes": list, "max_cover": int, "bandwidth": float,
         "gamma": list},
    ),
    "simulate": (
        ["simulate", "--support", "seven.json", "--window", "w.json", "--seed", "11"],
        ["response_l2"],
        None,
    ),
    "identify": (
        ["identify", "--zak", "zak.csv", "--window", "w.json", "--support", "seven.json",
         "--eta-true", "eta.csv"],
        ["formula", "gamma", "relative_l2_error"],
        {"formula": str, "gamma": list, "relative_l2_error": float,
         "per_class_conditioning": list},
    ),
    "recover-support": (
        ["recover-support", "--zak", "zak5.csv", "--window", "w5.json", "--kmax", "2",
         "--eta-true", "eta5.csv"],
        ["gamma_hat", "residual", "relative_l2_error"],
        {"gamma_hat": list, "residual_history": list, "exact_match": bool, "k_max": int,
         "tol": float},
    ),
    "rates": (
        ["rates", "--support", "seven.json", "--window", "w.json"],
        ["rate", "bandwidth", "necessary_ok", "area", "dead_time_fraction"],
        {"rate": float, "bandwidth": float, "necessary_ok": bool, "area": float,
         "sufficient_margin": type(None), "dead_time_fraction": float},
    ),
    "rates_plan": (
        ["rates", "--support", "two11.json", "--plan", "--eps", "1.5", "--seed", "4"],
        ["L", "support_count", "rate", "bandwidth", "necessary_ok", "area",
         "sufficient_margin", "dead_time_fraction"],
        {"rate": float, "bandwidth": float, "necessary_ok": bool, "area": float,
         "sufficient_margin": float, "dead_time_fraction": float},
    ),
    "verify": (
        ["verify", "--support", "seven.json", "--window", "w.json", "--seed", "11"],
        ["system_identity_residual", "round_trip_error", "ok"],
        None,
    ),
}


@pytest.mark.parametrize("argv, keys, report", SHAPES.values(), ids=SHAPES.keys())
def test_output_shapes(shape_inputs, tmp_path, capsys, monkeypatch, argv, keys, report):
    monkeypatch.chdir(shape_inputs)
    report_path = tmp_path / "report.json"
    code, out, _ = run(argv + (["--report-out", str(report_path)] if report else []), capsys)
    assert code == 0
    assert [line.split("=", 1)[0] for line in out.splitlines()] == keys
    if report:
        payload = json.loads(report_path.read_text())
        assert {key: type(value) for key, value in payload.items()} == report


def test_identify_symplectic_huge_chirp_rate(workdir, capsys):
    # kappa = L*T*a ~ 3e300 is reduced mod 2*L*P^2 before any integer array product
    window_path = str(workdir / "w.json")
    run(["gen-window", "--L", "3", "--seed", "7", "--out", window_path], capsys)
    para = str(workdir / "para.json")
    formats.save_support(presets.sheared_parallelogram_support(P=4), para)
    zak, eta = str(workdir / "z.csv"), str(workdir / "eta.csv")
    code, _, err = run(
        [
            "simulate", "--support", para, "--window", window_path, "--seed", "12",
            "--chirp-a", "1e300", "--eta-out", eta, "--zak-out", zak,
        ],
        capsys,
    )
    assert code == 0, err
    code, out, err = run(
        [
            "identify", "--zak", zak, "--window", window_path, "--support", para,
            "--eta-true", eta, "--symplectic", "1e300",
        ],
        capsys,
    )
    assert code == 0, err
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(lines["relative_l2_error"]) <= 1e-12
