"""Digest every result file of the ten CLI commands, exact and sampled.

Usage: python tests/result_digests.py TREE OUTDIR
       python tests/result_digests.py --compare OUT_A OUT_B

Runs ``config-init`` and then each command with the package in ``TREE/src``,
once on the default config, once with ``exact_probabilities: false`` and once
on the fixed non-default device `VARIANT` with its heater calibration file
`CALIBRATION`, writing into ``OUTDIR``.  Prints
one line ``mode command exit file sha256`` per result file (manifests
excluded, since they carry a timestamp), and ``mode command exit - -`` for a
command that wrote none, so the output of two trees can be compared with
``diff``.

With ``--compare`` it reads two such output directories instead and prints,
for each result file of either, the largest absolute difference between
corresponding numbers of the two copies, followed by ``text differs`` when
the text around the numbers differs too, or ``missing in A``/``missing in
B``.  Numbers of a JSON file correspond by key path (list entries by index),
and a key path that only one copy has is named after ``only in A:`` or
``only in B:``; numbers of any other file correspond by position.  pytest
does not collect this file.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

COMMANDS = ("simulate", "phase-scan", "tomography", "witness", "bell", "bell-sweep",
            "ablation", "qss", "calibrate", "rate")

# The variant's heater calibration, written into OUTDIR: every value carries
# more digits than six, and resistor 3 is dead with a nonzero crosstalk column.
CALIBRATION = """\
# heater calibration
units krad/A^2 ; phases rad ; resistances ohm
alpha_row 53.024578696 -54.120201737 -10.807654632 -4.295589989 -2.304901653 -1.301189635 \
-0.991897123 -0.739452936
alpha_row 2.918055696 9.011966055 49.513339244 -48.849602997 -9.339282584 -3.265945358 \
-1.603696926 -0.794482095
alpha_row 1.092967611 1.300776249 4.325557984 9.638526661 51.987516337 -53.095381759 \
-11.321736388 -3.92974319
alpha_row 0.826954038 1.121303616 1.597907952 2.204897317 4.160706263 11.67099983 \
54.690188322 -51.972507519
phi_row 53.609949246 -52.939865806 -12.940097988 -4.526063604 -2.065732453 -1.505344745 \
0.0 -0.733613164
phi_row 3.782919897 10.914276407 52.824231061 -54.747983182 -9.80144216 -3.963137794 \
0.0 -1.207221873
phi_row 1.169624813 1.870969661 3.828430065 11.280442886 48.142403865 -54.833103406 \
0.0 -3.787487216
phi_row 0.70754355 0.924325413 1.328036047 2.204880621 3.731387684 11.626530893 \
0.0 -52.871131081
phi_offset 3.873694081 2.847794723 0.789174704 0.987164624
resistances 426.901937335 414.427143937 422.011492751 417.497128869 428.226364729 \
433.753932029 431.65186279 423.628063956 409.80822938 433.411862499 405.70897286 \
413.931283693 413.448404793 425.154779452 419.620891982 407.786656463
dead_channels 3 15
"""

# Exact runs on a device unlike the default one, so that a comparison covers
# the paths that depend on the config: multiphoton emission, one photon made
# partly distinguishable, nonzero path phases, lossy detectors, and a custom
# heater calibration.  The commands run in OUTDIR, where the calibration
# file's relative name resolves.
VARIANT = {"source": {"g2": 0.03, "distinguishability_scale": [1.0, 1.0, 0.8, 1.0]},
           "chip": {"path_phases": [0.3, 0.1, -0.2, 0.5, 0.0, 0.7, 0.1, 0.2]},
           "detectors": {"efficiencies": [1.0, 0.5, 0.9, 1.0, 0.6, 1.0, 1.0, 0.7]},
           "heater_calibration_file": "calibration.txt"}

# (mode, the blocks and keys it sets in the default config)
MODES = (("exact", {"exact_probabilities": True}),
         ("sampled", {"exact_probabilities": False}),
         ("variant", VARIANT))


def _cli(env, cwd, *args) -> int:
    return subprocess.run([sys.executable, "-m", "ghzlab.cli", *args], env=env,
                          cwd=cwd, stdout=subprocess.DEVNULL).returncode


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")


def _difference(x: float, y: float) -> float:
    """|x - y|, zero for two NaNs; a NaN against a number counts as infinite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return math.inf if math.isnan(x - y) else abs(x - y)


def _max_difference(a: str, b: str) -> str:
    """The largest |x_a - x_b| over corresponding numbers of two texts, by position."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    largest = max((_difference(float(x.replace("Infinity", "inf")),
                               float(y.replace("Infinity", "inf")))
                   for x, y in zip(xs, ys)), default=0.0)
    same_text = len(xs) == len(ys) and _NUMBER.split(a) == _NUMBER.split(b)
    return f"{largest:.3g}" + ("" if same_text else " text differs")


def _leaves(value, path=""):
    """(key path, value) for each leaf of a parsed JSON value, list entries by index."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, f"{path}/{key}")
    else:
        yield path or "/", value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _max_json_difference(a: str, b: str) -> str:
    """The largest |x_a - x_b| over the numbers of two JSON texts at the same key
    path, then the key paths that only one of them has."""
    leaves_a, leaves_b = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    shared = [(leaves_a[k], leaves_b[k]) for k in leaves_a.keys() & leaves_b.keys()]
    largest = max((_difference(x, y) for x, y in shared
                   if _is_number(x) and _is_number(y)), default=0.0)
    same_text = all(x == y for x, y in shared if not (_is_number(x) and _is_number(y)))
    line = f"{largest:.3g}" + ("" if same_text else " text differs")
    for side, own, other in (("A", leaves_a, leaves_b), ("B", leaves_b, leaves_a)):
        if own.keys() - other.keys():
            line += f" only in {side}: " + ", ".join(sorted(own.keys() - other.keys()))
    return line


def compare(out_a: str, out_b: str) -> int:
    """Print ``file max_abs_difference`` for each result file of two outputs."""
    a, b = Path(out_a), Path(out_b)
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file() and p.name != "manifest.json"})
    for name in names:
        if not (a / name).exists() or not (b / name).exists():
            print(f"{name} missing in {'A' if not (a / name).exists() else 'B'}")
        else:
            texts = (a / name).read_text(), (b / name).read_text()
            difference = _max_json_difference if name.suffix == ".json" else _max_difference
            print(f"{name} {difference(*texts)}")
    return 0


def main(tree: str, outdir: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    out = Path(outdir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / VARIANT["heater_calibration_file"]).write_text(CALIBRATION)
    init = out / "config.json"
    code = _cli(env, out, "config-init", "--out", str(init))
    print(f"- config-init {code} config.json {_sha256(init)}")
    for mode, update in MODES:
        config = out / f"config-{mode}.json"
        cfg = json.loads(init.read_text())
        for key, value in update.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        for command in COMMANDS:
            results = out / mode / command
            code = _cli(env, out, command, "--config", str(config), "--out", str(results))
            paths = [p for p in sorted(results.glob("*")) if p.name != "manifest.json"]
            for path in paths:
                print(f"{mode} {command} {code} {path.name} {_sha256(path)}")
            if not paths:
                print(f"{mode} {command} {code} - -")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(*sys.argv[2:]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
