"""Byte manifest of a fixed opsample CLI script, for comparing two source trees.

Usage:

    python3 tools/cli_manifest.py SRC OUTDIR > manifest.txt

SRC is a source root holding the opsample package (for example the `src`
directory of a checkout) and OUTDIR an empty or missing working directory.
The script writes its input supports with SRC's own presets and formats, and
two windows as plain JSON (one whose G(c) overflows, and all ones), then runs
every opsample subcommand and mode (gen-window full and spark_k, spark,
rectify, simulate plain, chirped and from --eta, identify sharp, smooth and
symplectic, recover-support with exit 0 and exit 3, the level-7 decisions
of a full-spark L = 7 window and a six-cell L = 7 decode, rates with and without
--plan, verify, every command that reads the overflowing window, a spark-2
window, and a few usage and I/O refusals) as child processes in OUTDIR with
one BLAS thread.  It prints one line per command
(exit code and SHA-256 of stdout and stderr), then one SHA-256 line per
file left in OUTDIR, so two trees that behave alike give identical output:

    python3 tools/cli_manifest.py parent/src /tmp/m-parent > parent.txt
    python3 tools/cli_manifest.py src /tmp/m-change > change.txt
    diff parent.txt change.txt

Bits may differ across platforms and numpy versions, so compare manifests
made on one host with one numpy.  After the manifest the script exits 1, naming
them on stderr, if any command (setup included) exited outside 0, 2, 3 and 4:
a traceback fails it even where two trees agree on it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

#: the CLI's documented exit codes; any other, setup's included, makes this script exit 1
EXITS = (0, 2, 3, 4)

#: input supports, written under SRC's package: name -> expression over presets/CellSupport
SUPPORTS = {
    "seven.json": "presets.seven_cell_support(P=8)",
    "seven64.json": "presets.seven_cell_support(P=64)",
    "stair.json": "presets.staircase_support(P=16)",
    "band.json": "presets.sheared_parallelogram_support(P=8)",
    "shifted.json": "CellSupport(T=1.0, L=3, P=8, cells=((0, 0), (1, 1)), shift=(0.25, 0.0))",
    "two2.json": "CellSupport(T=0.5, L=2, P=4, cells=((0, 1),))",
    "two4.json": "CellSupport(T=2.0, L=4, P=6, cells=((0, 0), (3, 2)))",
    "two5.json": "CellSupport(T=1.0, L=5, P=16, cells=((0, 0), (2, 3)))",
    "two5p64.json": "CellSupport(T=1.0, L=5, P=64, cells=((1, 4), (3, 0)))",
    "three6.json": "CellSupport(T=1.0, L=6, P=4, cells=((0, 0), (2, 5), (5, 1)))",
    "six7.json": "CellSupport(T=1.0, L=7, P=4, cells=tuple((q, q + 1) for q in range(6)))",
    "domain5.json": "CellSupport(T=1.0, L=5, P=16, cells=((0, 0), (1, 1), (2, 3), (4, 4)))",
    "small.json": "CellSupport(T=1.0, L=3, P=4, mask=small_mask)",
}

#: input windows, written as plain JSON: G(c) of the first overflows, the second has spark 2
WINDOWS = {
    "huge.json": {"L": 3, "weights": [[1.7e308, 1.7e308]] * 3, "seed": None},
    "ones3.json": {"L": 3, "weights": [[1.0, 0.0]] * 3, "seed": None},
}

SETUP = f"""
import json
import numpy as np
from opsample import CellSupport, presets, formats
small_mask = np.zeros((12, 12), dtype=bool)
small_mask[0:2, 0:3] = True
for name, expr in {SUPPORTS!r}.items():
    formats.save_support(eval(expr), name)
for name, payload in {WINDOWS!r}.items():
    with open(name, "w") as fh:
        json.dump(payload, fh)
"""

#: the script: one argv per command, run as `python -m opsample.cli ARGV`
COMMANDS = [
    # windows and their spark
    "gen-window --L 2 --seed 1 --out w2.json",
    "gen-window --L 3 --seed 235 --out w3.json",
    "gen-window --L 4 --seed 2 --out w4.json",
    "gen-window --L 5 --seed 235 --out w5.json",
    "gen-window --L 6 --seed 3 --out w6.json",
    "gen-window --L 7 --seed 1 --out w7.json",
    "gen-window --L 7 --target spark_k --k 4 --seed 0 --out w7k4.json",
    "gen-window --L 7 --target spark_k --k 2 --seed 5 --out w7k2.json",
    "gen-window --L 5 --target spark_k --k 3 --seed 1 --out w5k3.json",
    "spark --window w2.json --matrix-out G2.csv",
    "spark --window w3.json --matrix-out G3.csv",
    "spark --window w4.json",
    "spark --window w5.json --matrix-out G5.csv",
    "spark --window w6.json",
    "spark --window w7.json",
    "spark --window w7k4.json",
    "spark --window w7k2.json --matrix-out G7k2.csv",
    "spark --window w5k3.json",
    # geometry
    "rectify --support seven.json --report-out rect_seven.json",
    "rectify --support stair.json --report-out rect_stair.json",
    "rectify --support band.json --report-out rect_band.json",
    "rectify --support shifted.json",
    "rectify --support two5.json",
    "rectify --support small.json --report-out rect_small.json",
    # known-support round trips: sharp, multiclass, smooth, symplectic, --eta
    "simulate --support seven.json --window w3.json --seed 11 --eta-out eta_seven.csv"
    " --zak-out zak_seven.csv --response-out resp_seven.csv",
    "identify --zak zak_seven.csv --window w3.json --support seven.json --eta-true eta_seven.csv"
    " --eta-out hat_seven.csv --report-out id_seven.json",
    "identify --zak zak_seven.csv --window w3.json --support seven.json --smooth --eps 0.125"
    " --eta-true eta_seven.csv --eta-out hat_smooth.csv",
    "simulate --support seven64.json --window w3.json --seed 12 --eta-out eta_seven64.csv"
    " --zak-out zak_seven64.csv",
    "identify --zak zak_seven64.csv --window w3.json --support seven64.json"
    " --eta-true eta_seven64.csv --eta-out hat_seven64.csv",
    "simulate --support stair.json --window w3.json --seed 13 --eta-out eta_stair.csv"
    " --zak-out zak_stair.csv",
    "identify --zak zak_stair.csv --window w3.json --support stair.json --eta-true eta_stair.csv"
    " --report-out id_stair.json",
    "simulate --support band.json --window w3.json --seed 14 --chirp-a 0.3333333333333333"
    " --eta-out eta_band.csv --zak-out zak_band.csv --response-out resp_band.csv",
    "identify --zak zak_band.csv --window w3.json --support band.json"
    " --symplectic 0.3333333333333333 --eta-true eta_band.csv --eta-out hat_band.csv"
    " --report-out id_band.json",
    "simulate --support shifted.json --window w3.json --seed 15 --eta-out eta_shifted.csv"
    " --zak-out zak_shifted.csv",
    "identify --zak zak_shifted.csv --window w3.json --support shifted.json"
    " --eta-true eta_shifted.csv --eta-out hat_shifted.csv",
    "simulate --eta eta_seven.csv --window w3.json --zak-out zak_again.csv"
    " --response-out resp_again.csv",
    "simulate --support two2.json --window w2.json --seed 16 --eta-out eta_two2.csv"
    " --zak-out zak_two2.csv",
    "identify --zak zak_two2.csv --window w2.json --support two2.json --eta-true eta_two2.csv"
    " --eta-out hat_two2.csv",
    "simulate --support two4.json --window w4.json --seed 17 --eta-out eta_two4.csv"
    " --zak-out zak_two4.csv",
    "identify --zak zak_two4.csv --window w4.json --support two4.json --eta-true eta_two4.csv",
    "simulate --support three6.json --window w6.json --seed 18 --eta-out eta_three6.csv"
    " --zak-out zak_three6.csv",
    "identify --zak zak_three6.csv --window w6.json --support three6.json"
    " --eta-true eta_three6.csv --eta-out hat_three6.csv",
    # unknown supports: certified (exit 0) and not (exit 3)
    "simulate --support two5.json --window w5.json --seed 19 --eta-out eta_two5.csv"
    " --zak-out zak_two5.csv",
    "recover-support --zak zak_two5.csv --window w5.json --kmax 2 --eta-true eta_two5.csv"
    " --eta-out hat_two5.csv --report-out est_two5.json",
    "recover-support --zak zak_two5.csv --window w5.json --kmax 4 --report-out est_two5_k4.json",
    "recover-support --zak zak_two5.csv --window w5.json --kmax 1 --report-out est_two5_k1.json",
    "recover-support --zak zak_two5.csv --window w5.json --domain domain5.json --kmax 3"
    " --eta-true eta_two5.csv --report-out est_domain.json",
    "simulate --support two5p64.json --window w5.json --seed 20 --eta-out eta_two5p64.csv"
    " --zak-out zak_two5p64.csv",
    "recover-support --zak zak_two5p64.csv --window w5.json --kmax 2"
    " --eta-true eta_two5p64.csv --eta-out hat_two5p64.csv",
    "simulate --support six7.json --window w7.json --seed 24 --eta-out eta_six7.csv"
    " --zak-out zak_six7.csv",
    "recover-support --zak zak_six7.csv --window w7.json --kmax 6 --eta-true eta_six7.csv"
    " --eta-out hat_six7.csv --report-out est_six7.json",
    # rates
    "rates --support seven.json --window w3.json",
    "rates --support seven.json --window w3.json --eps 0.1 --report-out rates_seven.json",
    "rates --support small.json --plan --eps 1.5 --seed 4 --window-out plan.json"
    " --report-out plan_report.json",
    "spark --window plan.json",
    # seeded round trips
    "verify --support seven.json --window w3.json --seed 11",
    "verify --support band.json --window w3.json --seed 21",
    "verify --support two5.json --window w5.json --seed 22",
    "verify --support three6.json --window w6.json --seed 23 --tol 1e-20",
    # a window whose G(c) overflows: refused where each command reads G(c) or the response
    "spark --window huge.json --matrix-out G_huge.csv",
    "identify --zak zak_seven.csv --window huge.json --support seven.json"
    " --eta-out hat_huge.csv",
    "recover-support --zak zak_seven.csv --window huge.json --kmax 2 --eta-out hat_huge2.csv",
    "verify --support seven.json --window huge.json --seed 11",
    "simulate --support seven.json --window huge.json --seed 11 --zak-out zak_huge.csv",
    "rates --support seven.json --window huge.json",
    # the all-ones window: spark 2, so the seven-cell support's classes are rank deficient
    "spark --window ones3.json",
    "identify --zak zak_seven.csv --window ones3.json --support seven.json"
    " --eta-out hat_ones.csv",
    # refusals: usage (exit 2) and I/O (exit 4)
    "gen-window --L 3 --out w_noseed.json",
    "identify --zak zak_seven.csv --window w3.json --support seven.json --eps 0.125",
    "identify --zak missing.csv --window w3.json --support seven.json",
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    src, out = Path(argv[1]).resolve(), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = [[sys.executable, "-c", SETUP]]
    runs += [[sys.executable, "-m", "opsample.cli", *cmd.split()] for cmd in COMMANDS]
    stray = []
    for n, run in enumerate(runs):
        done = subprocess.run(run, cwd=out, env=env, capture_output=True)
        label = "setup" if n == 0 else " ".join(run[3:])
        print(f"cmd {n:02d} exit={done.returncode} stdout={_sha(done.stdout)}"
              f" stderr={_sha(done.stderr)}  {label}")
        if done.returncode not in EXITS:
            stray.append(f"cmd {n:02d} exited {done.returncode}: {label}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"file {_sha(path.read_bytes())}  {path.relative_to(out)}")
    if stray:  # a traceback (exit 1) or a signal, even one the base and head agree on
        sys.exit("exit codes outside {0, 2, 3, 4}:\n" + "\n".join(stray))


if __name__ == "__main__":
    main(sys.argv)
