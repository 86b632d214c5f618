"""Signal-chaining regression tests for the shm exit hooks.

The bug being pinned down: ``signal.SIG_IGN`` is not callable, so the
old chain lumped it with "no previous handler" and re-raised the signal
under ``SIG_DFL`` -- killing processes that had deliberately chosen to
ignore SIGTERM/SIGINT.  The chain must distinguish all three previous
dispositions: callable handler, SIG_IGN, and default.
"""

import signal
import subprocess
import sys
from pathlib import Path

from repro._segments import _chained_handler

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_callable_previous_handler_is_invoked():
    calls = []
    _chained_handler(signal.SIGTERM, None, lambda sig, frame: calls.append(sig))
    assert calls == [signal.SIGTERM]


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": SRC},
    )


def test_sig_ign_previous_stays_ignored():
    """A process that ignores SIGTERM must survive the chained handler
    (the old code re-raised under SIG_DFL and died here)."""
    proc = _run(
        "import signal\n"
        "from repro._segments import _chained_handler\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "_chained_handler(signal.SIGTERM, None, signal.SIG_IGN)\n"
        "print('alive')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "alive"


def test_sig_ign_survives_real_signal_through_installed_hooks():
    """Full stack: install the exit hooks over an ignoring disposition,
    deliver a real SIGTERM, and the process must keep running."""
    proc = _run(
        "import os, signal\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "from repro import _segments\n"
        "_segments._install_exit_hooks()\n"
        "os.kill(os.getpid(), signal.SIGTERM)\n"
        "print('alive')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "alive"


def test_default_disposition_reraises_and_kills():
    """With no previous handler the signal must still be fatal, with
    the correct wait status (killed by SIGTERM, not a clean exit)."""
    proc = _run(
        "import signal\n"
        "from repro._segments import _chained_handler\n"
        "_chained_handler(signal.SIGTERM, None, signal.SIG_DFL)\n"
        "print('unreachable')\n"
    )
    assert proc.returncode == -signal.SIGTERM
    assert "unreachable" not in proc.stdout
