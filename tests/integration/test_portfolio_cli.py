"""CLI-level portfolio checks: SIGINT mid-race + ``repro resume``.

The unit layer proves the composite checkpoint resumes byte-identically
via the in-process shutdown flag; this test proves the same story the
way an operator hits it — a real SIGINT delivered to a real
``python -m repro compare --allocator portfolio`` process, then
``python -m repro resume DIR`` replaying the manifest argv.  The
resumed run's decision columns must match an uninterrupted reference
run (wall-clock column excluded: elapsed time is legitimately
different).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


_COMPARE_ARGS = [
    "compare",
    "--allocator",
    "portfolio",
    "--servers",
    "8",
    "--vms",
    "16",
    "--population",
    "12",
    "--evaluations",
    "900",
    "--seed",
    "11",
]


def _portfolio_row(stdout: str) -> list[str]:
    for line in stdout.splitlines():
        if line.startswith("portfolio"):
            cells = line.split()
            return [cells[0], *cells[2:]]  # drop the wall-clock column
    raise AssertionError(f"no portfolio row in output:\n{stdout}")


class TestSigintResume:
    def test_sigint_then_resume_matches_uninterrupted(self, tmp_path):
        reference = subprocess.run(
            [sys.executable, "-m", "repro", *_COMPARE_ARGS],
            capture_output=True,
            text=True,
            env=_env(),
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert reference.returncode == 0, reference.stderr

        directory = str(tmp_path / "ckpt")
        events = tmp_path / "events.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *_COMPARE_ARGS,
                "--checkpoint-dir",
                directory,
                "--telemetry",
                f"jsonl:{events}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            cwd=REPO_ROOT,
        )
        # The first telemetry event is emitted from inside the race, so
        # the SIGINT handler is installed and the race is still running
        # (a fixed sleep could land before the handler or after the race).
        deadline = time.monotonic() + 120
        while not (events.exists() and "\n" in events.read_text()):
            assert proc.poll() is None, "compare exited before its first event"
            assert time.monotonic() < deadline, "no telemetry event within 120 s"
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=300)
        # Graceful unwind: the flag is raised, the race snapshots at its
        # epoch boundary and compare still reports the incumbent.
        assert proc.returncode == 0, stderr

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "resume", directory],
            capture_output=True,
            text=True,
            env=_env(),
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming campaign" in resumed.stdout
        assert _portfolio_row(resumed.stdout) == _portfolio_row(
            reference.stdout
        )
