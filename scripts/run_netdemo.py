#!/usr/bin/env python3
"""Three-process loopback demo: fabric broker, Bob, then Alice, all spawned
through the installed CLI. The fabric and Bob listen on ports the system
picks, and each is used only after it prints its listening line. Prints
the transcript audit for both sides, and stops both servers on the way out,
whether or not Alice succeeded."""
import argparse
import json
import os
import subprocess
import sys
import tempfile

from qteleport.netdemo import transcript_audit
from qteleport.protocols import PROTOCOLS

CLI = [sys.executable, "-m", "qteleport.cli"]


def start(who: str, argv: list[str]) -> tuple[subprocess.Popen, str]:
    """Start a CLI server and wait for its `<who> listening on HOST:PORT`
    line. Returns the process and its `HOST:PORT`."""
    proc = subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    prefix = f"{who} listening on "
    if not line.startswith(prefix):
        stop(proc)
        raise RuntimeError(f"{who} did not start: {line!r}")
    return proc, line[len(prefix):].strip()


def stop(proc: subprocess.Popen) -> None:
    """Terminate a child, if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", choices=PROTOCOLS, default="standard")
    parser.add_argument("--bits", default="1011001110")
    parser.add_argument("--seed", type=int, default=2025)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="qteleport_demo_")
    bits_file = os.path.join(workdir, "bits.txt")
    with open(bits_file, "w") as fh:
        fh.write(args.bits)
    alice_t = os.path.join(workdir, "alice.json")
    bob_t = os.path.join(workdir, "bob.json")

    servers = []
    try:
        fabric, fabric_addr = start("fabric", ["serve-fabric", "--bind", "127.0.0.1:0",
                                               "--seed", str(args.seed)])
        servers.append(fabric)
        bob, bob_addr = start("bob", ["bob", "--listen", "127.0.0.1:0", "--fabric", fabric_addr,
                                      "--protocol", args.protocol, "--transcript", bob_t])
        servers.append(bob)
        subprocess.run(
            CLI + ["alice", "--fabric", fabric_addr, "--bob", bob_addr,
                   "--protocol", args.protocol, "--bits-from", bits_file,
                   "--transcript", alice_t],
            check=True,
        )
        bob.wait(timeout=60)
        print(bob.stdout.read().strip())
        for side, path in (("alice", alice_t), ("bob", bob_t)):
            with open(path) as fh:
                entries = json.load(fh)["entries"]
            print(f"{side} audit: {transcript_audit(entries)}")
        print(f"transcripts in {workdir}")
    finally:
        for proc in reversed(servers):
            stop(proc)


if __name__ == "__main__":
    main()
