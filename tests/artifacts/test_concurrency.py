"""Cross-process behaviour: shared workspaces, racing writers, lock files.

These tests spawn real subprocesses (the scenario the workspace exists
for: ``repro fit`` and ``repro figures`` as separate invocations), so they
use a deliberately tiny profiling configuration.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.artifacts import kinds
from repro.artifacts.workspace import Workspace

SRC = Path(__file__).resolve().parents[2] / "src"

#: Tiny configuration shared by every subprocess below.
CONFIG = "(['inception_v1'], ['V100'], 5)"

#: The artifact spec ``Workspace.profiles(*CONFIG)`` stores its dataset under.
CONFIG_SPEC = {
    "models": ["inception_v1"], "gpus": ["V100"],
    "iterations": 5, "batch": 32, "seed": "",
}


def script_env(workspace: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_WORKSPACE"] = str(workspace)
    return env


def run_script(body: str, workspace: Path) -> str:
    env = script_env(workspace)
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
        # Only the ground truth: the 4 held-out CNNs x 4 GPUs, shared by
        # every GPU count k. The PALEO baseline reads the training profile.
        assert counters["cell_misses"] == 4 * 4


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
        env = script_env(workspace)
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

    def test_n_workers_racing_one_key_compute_exactly_once(self, tmp_path):
        """Three processes profiling the same cell: the store lock elects
        one computer, the others read its artifact, so their profile
        misses sum to 1 and no lock or temp file is left behind."""
        workspace = tmp_path / "race-ws"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", PROFILE_SCRIPT],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=script_env(workspace),
            )
            for _ in range(3)
        ]
        misses = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            misses.append(json.loads(stdout)["profile"]["misses"])
        assert sum(misses) == 1, f"expected exactly one compute, got {misses}"
        leftovers = [
            p for p in workspace.rglob("*") if p.suffix in (".lock", ".tmp")
        ]
        assert leftovers == []


class TestStaleLockBreaking:
    def test_sigkilled_lock_holder_does_not_wedge_the_cell(self, tmp_path):
        """A process SIGKILLed mid-compute leaves its lock file behind; a
        later request for the same cell must break the stale lock (after
        the staleness window) and compute, not block forever."""
        workspace = tmp_path / "crash-ws"
        holder_script = f"""
import time
from repro.artifacts import kinds
from repro.artifacts.workspace import Workspace

def compute():
    print("HOLDING", flush=True)
    time.sleep(600)

Workspace().store.get_or_create(
    kinds.PROFILE, {CONFIG_SPEC!r}, compute,
    kinds.encode_profiles, kinds.decode_profiles,
)
"""
        holder = subprocess.Popen(
            [sys.executable, "-c", holder_script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=script_env(workspace),
        )
        try:
            # Wait until the child holds the lock (it prints from inside
            # the locked compute), then kill it mid-compute.
            line = holder.stdout.readline()
            assert line.strip() == "HOLDING", holder.stderr.read()
            holder.send_signal(signal.SIGKILL)
            holder.wait(timeout=60)
        finally:
            if holder.poll() is None:  # pragma: no cover - cleanup path
                holder.kill()

        ws = Workspace(workspace)
        key = ws.store.key_for(kinds.PROFILE, CONFIG_SPEC)
        lock_path = ws.store._lock_path(kinds.PROFILE, key)
        assert lock_path.exists(), "SIGKILLed holder should leave its lock"
        # Age the lock past the staleness window (default 300 s) instead
        # of sleeping through it.
        stale_mtime = time.time() - (ws.store.lock_stale_s + 100)
        os.utime(lock_path, (stale_mtime, stale_mtime))

        dataset = ws.profiles(["inception_v1"], ["V100"], 5)
        assert ws.store.counters["profile"].misses == 1  # broke it, computed
        assert len(dataset) > 0
        assert not lock_path.exists()
