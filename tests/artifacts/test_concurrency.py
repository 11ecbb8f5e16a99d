"""Cross-process behaviour: shared workspaces, racing writers, lock files.

These tests spawn real subprocesses (the scenario the workspace exists
for: ``repro fit`` and ``repro figures`` as separate invocations), so they
use a deliberately tiny profiling configuration.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Tiny configuration shared by every subprocess below.
CONFIG = "(['inception_v1'], ['V100'], 5)"


def run_script(body: str, workspace: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_WORKSPACE"] = str(workspace)
    result = subprocess.run(
        [sys.executable, "-c", body],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


PROFILE_SCRIPT = f"""
import json
from repro.artifacts.workspace import Workspace
ws = Workspace()
ws.profiles(*{CONFIG})
print(json.dumps(ws.counters_to_json()))
"""


class TestCrossProcessReuse:
    def test_second_process_has_zero_profile_misses(self, tmp_path):
        workspace = tmp_path / "shared-ws"
        first = json.loads(run_script(PROFILE_SCRIPT, workspace))
        assert first["profile"]["misses"] == 1
        second = json.loads(run_script(PROFILE_SCRIPT, workspace))
        assert second["profile"]["misses"] == 0
        assert second["profile"]["hits_disk"] == 1

    def test_fit_then_figures_shares_profiles(self, tmp_path):
        """The acceptance scenario in miniature: a fit process followed by a
        figure process re-profiles nothing."""
        workspace = tmp_path / "shared-ws"
        fit_script = """
import json
from repro.artifacts.workspace import Workspace
ws = Workspace()
ws.fitted_ceer(30)
ws.test_profiles(30)
print(json.dumps(ws.counters_to_json()))
"""
        figures_script = """
import json
from repro.artifacts.workspace import Workspace, set_active_workspace
from repro.experiments.fig2_op_times import run_fig2
from repro.experiments.fig8_validation import run_fig8
ws = Workspace()
set_active_workspace(ws)
run_fig2(n_iterations=30).render()
run_fig8(n_iterations=30).render()
print(json.dumps(ws.counters_to_json()))
"""
        fit_counters = json.loads(run_script(fit_script, workspace))
        assert fit_counters["profile"]["misses"] == 2  # train + test sets
        fig_counters = json.loads(run_script(figures_script, workspace))
        assert fig_counters["profile"]["misses"] == 0
        assert fig_counters["fitted"]["misses"] == 0

    def test_figures_after_fit_simulate_each_cell_once(self, tmp_path):
        """After a fit process, the comm figure, the ablations and the spot
        study profile nothing, refit nothing, re-collect no comm overheads,
        and simulate each remaining cell exactly once."""
        workspace = tmp_path / "shared-ws"
        run_script("""
from repro.artifacts.workspace import Workspace
ws = Workspace()
ws.fitted_ceer(10)
ws.test_profiles(10)
""", workspace)
        figures_script = """
import json
from repro.artifacts.workspace import Workspace, set_active_workspace
from repro.experiments import run_ablations, run_fig7, run_spot_dynamics
from repro.obs.metrics import default_registry
ws = Workspace()
set_active_workspace(ws)
run_fig7(n_iterations=10).render()
run_ablations(n_iterations=10).render()
run_spot_dynamics(n_iterations=10).render()
registry = default_registry()
print(json.dumps({
    "store": ws.counters_to_json(),
    "profiling_runs": sum(
        i.value for i in registry if i.name == "profiling.runs"),
    "cell_misses": registry.counter("sim.cells", result="miss").value,
}))
"""
        counters = json.loads(run_script(figures_script, workspace))
        for kind in ("profile", "fitted", "comm"):
            assert counters["store"][kind]["misses"] == 0, kind
        assert counters["profiling_runs"] == 0
        # The PALEO baseline's 8 training CNNs x 4 GPUs, plus the 4 held-out
        # CNNs x 4 GPUs of ground truth shared by every GPU count k.
        assert counters["cell_misses"] == 8 * 4 + 4 * 4


class TestRacingWriters:
    def test_two_writers_one_compute(self, tmp_path):
        """Two processes racing the same key must compute exactly once; the
        loser blocks on the lock, then reads the winner's artifact."""
        workspace = tmp_path / "race-ws"
        markers = tmp_path / "markers"
        markers.mkdir()
        racer = f"""
import json, os, time, uuid
from repro.artifacts import kinds
from repro.artifacts.workspace import Workspace

ws = Workspace()

def compute():
    # One marker file per actual compute; sleep widens the race window so
    # both processes reliably overlap inside get_or_create.
    marker = os.path.join({str(markers)!r}, uuid.uuid4().hex)
    with open(marker, "w") as fh:
        fh.write("computed")
    time.sleep(1.0)
    return "payload"

value = ws.store.get_or_create(
    kinds.FIGURE, {{"figure": "raced", "iterations": 1}}, compute,
    lambda text: kinds.encode_figure("raced", text), kinds.decode_figure,
)
print(value)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_WORKSPACE"] = str(workspace)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", racer],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            )
            for _ in range(2)
        ]
        outputs = [p.communicate(timeout=300) for p in procs]
        for proc, (stdout, stderr) in zip(procs, outputs):
            assert proc.returncode == 0, stderr
            assert stdout.strip() == "payload"
        assert len(list(markers.iterdir())) == 1

        # No torn file: the single stored envelope parses and round-trips,
        # and neither lock nor temp files survived the race.
        from repro.artifacts import kinds
        from repro.artifacts.workspace import Workspace

        store = Workspace(workspace).store
        [info] = store.entries("figure")
        envelope = json.loads(info.path.read_text())
        assert envelope["format"] == "repro-artifact"
        assert envelope["payload"]["rendered"] == "payload"
        assert store.load(kinds.FIGURE, info.key, kinds.decode_figure) == "payload"
        leftovers = [
            p for p in info.path.parent.iterdir()
            if p.suffix in (".lock", ".tmp")
        ]
        assert leftovers == []
