"""Digest every result file of the ten CLI commands, exact and sampled.

Usage: python tests/result_digests.py TREE OUTDIR

Runs ``config-init`` and then each command with the package in ``TREE/src``,
once on the default config and once with ``exact_probabilities: false``,
writing into ``OUTDIR``.  Prints one line ``mode command exit file sha256``
per result file (manifests excluded, since they carry a timestamp), and
``mode command exit - -`` for a command that wrote none, so the output of
two trees can be compared with ``diff``.  pytest does not collect this file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("simulate", "phase-scan", "tomography", "witness", "bell", "bell-sweep",
            "ablation", "qss", "calibrate", "rate")


def _cli(env, *args) -> int:
    return subprocess.run([sys.executable, "-m", "ghzlab.cli", *args], env=env,
                          stdout=subprocess.DEVNULL).returncode


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(tree: str, outdir: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    init = out / "config.json"
    code = _cli(env, "config-init", "--out", str(init))
    print(f"- config-init {code} config.json {_sha256(init)}")
    for mode, exact in (("exact", True), ("sampled", False)):
        config = out / f"config-{mode}.json"
        cfg = json.loads(init.read_text())
        cfg["exact_probabilities"] = exact
        config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        for command in COMMANDS:
            results = out / mode / command
            code = _cli(env, command, "--config", str(config), "--out", str(results))
            paths = [p for p in sorted(results.glob("*")) if p.name != "manifest.json"]
            for path in paths:
                print(f"{mode} {command} {code} {path.name} {_sha256(path)}")
            if not paths:
                print(f"{mode} {command} {code} - -")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
