"""Child processes: the fabric broker and the workload worker. Imports
nothing from qteleport; children find the package through PYTHONPATH."""
from __future__ import annotations

import os
import subprocess
import sys

LISTENING = "fabric listening on "


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QTELEPORT_SEED", None)  # the fabric gets its seed on the command line
    return env


def start_fabric(root: str, seed: int) -> tuple[subprocess.Popen, str]:
    """Start `qteleport serve-fabric` on an ephemeral loopback port and wait
    for its listening line. Returns the process and its `host:port`."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qteleport.cli", "serve-fabric",
         "--bind", "127.0.0.1:0", "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, env=child_env(root), cwd=root,
    )
    line = proc.stdout.readline()
    if not line.startswith(LISTENING):
        stop(proc)
        raise RuntimeError(f"fabric did not start: {line!r}")
    return proc, line[len(LISTENING):].strip()


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()
