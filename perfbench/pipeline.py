"""The offline pipeline every workload runs: cold fit, refit, figures.

Each step is a fresh ``python -m repro`` process, as a user runs it:

* ``repro fit`` into an empty workspace (``fit_s``);
* ``repro fit`` again into the now warm workspace, the fit-once path
  (``refit_s``, the median of several such processes);
* ``repro figures <names>``, first render, in a fresh process
  (``figures_s``).

Each time is the step's wall time scaled to the reference host speed
(``common.HostSpeed``); the raw wall times are in the report.

The traced offline run drives the same argv in-process through
``repro.cli.main`` instead (see :mod:`perfbench.offline`).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, List, Sequence

from perfbench import common

#: sha256 of the estimator JSON ``repro fit --iterations 40`` writes. The
#: per-GPU estimator is expected to stay byte-identical.
ESTIMATOR_SHA256 = "ca31b6c7ef7089c8159ba2f72ae89c7d243e61ab12150d108faa706113b9df6b"
#: sha256 of the ``repro figures <set> --output`` report per figure set.
FIGURES_SHA256 = {
    "all": "a3dfc54cb5b7354037c48b17f3fa21baa04e461d1766e3e4506de8e0df2b6de9",
    "fig11": "61085b4348ea5382570de7d720a0d92c6efb702b519b860556a515744ec2fd54",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def steps(run_dir: Path, figure_set: str, refits: int,
          fit_flags: Sequence[str] = ()) -> List[Any]:
    """(name, argv) of the pipeline commands in order, absolute paths."""
    workspace = str(run_dir / "ws")
    common_args = ["--iterations", str(common.FIT_ITERATIONS),
                   "--workspace", workspace]
    refit = ["fit", "--output", str(run_dir / "refit.json"), *fit_flags,
             *common_args]
    return [
        ("fit", ["fit", "--output", str(run_dir / "fit.json"), *fit_flags,
                 *common_args]),
        *[(f"refit{i}", refit) for i in range(refits)],
        ("figures", ["figures", figure_set, "--output",
                     str(run_dir / "figures.txt"), *common_args]),
    ]


def run(run_dir: Path, figure_set: str, refits: int,
        fit_flags: Sequence[str] = ()) -> Dict[str, Any]:
    """Fit, refit and render ``figure_set`` in fresh processes."""
    results = {name: common.run_child(common.repro_cmd(*argv), cwd=run_dir)
               for name, argv in steps(run_dir, figure_set, refits, fit_flags)}
    return summarize(run_dir, figure_set,
                     {name: r["span"] for name, r in results.items()},
                     {name: r["returncode"] == 0 for name, r in results.items()},
                     {name: r["stderr"] for name, r in results.items()
                      if r["returncode"] != 0})


def summarize(run_dir: Path, figure_set: str, spans: Dict[str, Any],
              succeeded: Dict[str, bool], errors: Dict[str, str]) -> Dict[str, Any]:
    """Checks and times of one pipeline; ``spans`` are each step's
    ``time.monotonic()`` start and end."""
    ok = all(succeeded.values())
    digests = {name: sha256(run_dir / name)
               for name in ("fit.json", "refit.json", "figures.txt")} if ok else {}
    checks = {
        "estimator_golden": digests.get("fit.json") == ESTIMATOR_SHA256,
        "refit_identical": (ok and digests["refit.json"] == digests["fit.json"]),
        "figures_golden": digests.get("figures.txt") == FIGURES_SHA256[figure_set],
    }
    scaled = {name: common.SPEED.scaled(span) for name, span in spans.items()}
    refit_s = [value for name, value in scaled.items()
               if name.startswith("refit")]
    return {
        "fit_s": scaled["fit"],
        "refit_s": common.median(refit_s),
        "figures_s": scaled["figures"],
        "scaled_s": scaled,
        "wall_s": {name: end - start for name, (start, end) in spans.items()},
        "figure_set": figure_set,
        "ops": {name: {"attempted": 1, "succeeded": int(good),
                       "failed": int(not good)}
                for name, good in succeeded.items()},
        "errors": errors,
        "hashes": digests,
        "checks": checks,
        "ok": ok and all(checks.values()),
    }
