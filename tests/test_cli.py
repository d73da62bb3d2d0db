"""End-to-end tests of the command-line interface.

Each test drives cli.main with an argv list and checks printed output, exit
codes, and the files written.  No subprocesses: main() returns the exit code.
"""

import json

import numpy as np
import pytest

from opsample import cli, formats, presets
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

    # 2: off-grid chirp rate
    code, _, _ = run(
        [
            "simulate", "--support", str(workdir / "stairs.json"), "--window", window_path,
            "--seed", "5", "--chirp-a", "0.1",
        ],
        capsys,
    )
    assert code == 2


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

    # recover-support builds its search region from the header's T
    path = workdir / "bad_header.csv"
    path.write_text(bad_zak["T_nan"])
    code, _, err = run(
        ["recover-support", "--zak", str(path), "--window", window_path, "--kmax", "2"], capsys
    )
    assert code == 4
    assert "error:" in err and "Traceback" not in err


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
