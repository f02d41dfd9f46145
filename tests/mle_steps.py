"""List every MLE fit of four tomographies: steps, convergence, certificate.

Usage: python tests/mle_steps.py TREE

Imports the package from ``TREE/src`` and the benchmark's workloads from
``TREE/perfbench``, then runs the ``tomography`` command's pipeline on the two
seed-1 ``tomo-sampled`` datasets, on the default config with
``exact_probabilities: false`` and on the default config itself, exact.
Prints one line ``dataset fit steps cg converged certificate`` per fit, fit
0 being the central fit and 1..25 the Monte-Carlo resamples: its steps and
the Hessian-vector products of their CG solves.  A line ``dataset total steps cg`` closes each dataset, so the
step counts of two trees can be compared with ``diff``.  pytest does not
collect this file; the tests call `dataset_fits` for its step-count bounds.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path


def _workloads(perfbench: Path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  perfbench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def dataset_fits(perfbench: Path) -> list:
    """[(dataset, its MLE fits in call order)] for the four datasets, with
    the ``ghzlab`` package that is already importable and the workloads of
    the ``perfbench`` directory."""
    from ghzlab import cli, experiments
    from ghzlab.config import default_config, parse_config

    base = default_config()
    datasets = [(f"tomo-sampled-{i}", step.config) for i, step in
                enumerate(_workloads(perfbench).tomo_sampled_steps(base, 1, False))]
    datasets += [("default-sampled", dict(base, exact_probabilities=False)),
                 ("default-exact", base)]

    fit = experiments.mle_reconstruct
    fits = []

    def recorded(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    out = []
    experiments.mle_reconstruct = recorded
    try:
        for name, config in datasets:
            fits = []
            with tempfile.TemporaryDirectory() as results:
                cli.cmd_tomography(parse_config(config), Path(results))
            out.append((name, fits))
    finally:
        experiments.mle_reconstruct = fit
    return out


def main(tree: str) -> int:
    root = Path(tree).resolve()
    sys.path.insert(0, str(root / "src"))
    for name, fits in dataset_fits(root / "perfbench"):
        for i, res in enumerate(fits):
            print(f"{name} {i} {res.iterations} {res.cg_products} {res.converged} "
                  f"{res.certificate:.3e}")
        print(f"{name} total {sum(r.iterations for r in fits)} "
              f"{sum(r.cg_products for r in fits)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
