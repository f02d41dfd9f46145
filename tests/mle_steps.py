"""List every MLE fit of three sampled tomographies: steps, convergence, certificate.

Usage: python tests/mle_steps.py TREE

Imports the package from ``TREE/src`` and the benchmark's workloads from
``TREE/perfbench``, then runs the ``tomography`` command's pipeline on the two
seed-1 ``tomo-sampled`` datasets and on the default config with
``exact_probabilities: false``.  Prints one line ``dataset fit steps converged
certificate`` per fit, fit 0 being the central fit and 1..25 the Monte-Carlo
resamples, so the step counts of two trees can be compared with ``diff``.
pytest does not collect this file.
"""

import sys
import tempfile
from pathlib import Path


def main(tree: str) -> int:
    root = Path(tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from ghzlab import cli, experiments
    from ghzlab.config import default_config, parse_config
    from workloads import tomo_sampled_steps

    base = default_config()
    sampled = dict(base, exact_probabilities=False)
    datasets = [(f"tomo-sampled-{i}", step.config)
                for i, step in enumerate(tomo_sampled_steps(base, 1, False))]
    datasets.append(("default-sampled", sampled))

    fit = experiments.mle_reconstruct
    fits = []

    def recorded(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    experiments.mle_reconstruct = recorded
    for name, config in datasets:
        fits.clear()
        with tempfile.TemporaryDirectory() as out:
            cli.cmd_tomography(parse_config(config), Path(out))
        for i, res in enumerate(fits):
            print(f"{name} {i} {res.iterations} {res.converged} {res.certificate:.3e}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
