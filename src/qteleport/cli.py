"""Operator-facing command line.

Subcommands: teleport-image, bitplanes, demo, report-diff, serve-fabric,
alice, bob. Every mode exits 0 only when its own assertions hold.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .protocols import PROTOCOLS


def _sample_arg(value: str) -> int | None:
    if value == "all":
        return None
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("sample must be 'all' or a positive count")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qteleport", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qteleport {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport-image", help="teleport an image end to end")
    p.add_argument("--in", dest="input", required=True, help="input PPM (P6) image")
    p.add_argument("--out", dest="output", help="reconstructed PPM path")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--protocol", choices=PROTOCOLS, default="standard")
    p.add_argument("--noise-a", type=float, default=None, help="pair amplitude A in (0,1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=_sample_arg, default=None,
                   help="'all' or a bit count; sampling needs an image below 10**9 bits")

    p = sub.add_parser("bitplanes", help="dump the 24 bitplanes as PBM files")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True, help="output directory")

    p = sub.add_parser("demo", help="run one of the partial experiments")
    p.add_argument("which", choices=("sdc", *PROTOCOLS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="JSON verdict path")

    p = sub.add_parser("report-diff", help="compare two reports, ignoring timing")
    p.add_argument("report_a")
    p.add_argument("report_b")

    p = sub.add_parser("serve-fabric", help="run the entanglement-fabric broker")
    p.add_argument("--bind", default="127.0.0.1:7177")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of the session seeds (default: random)")

    p = sub.add_parser("alice", help="send bits through a fabric to a bob")
    p.add_argument("--fabric", required=True)
    p.add_argument("--bob", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--bits-from", required=True, help="text file of 0/1 characters")
    p.add_argument("--noise-a", type=float, default=None)
    p.add_argument("--transcript", help="JSON transcript path")

    p = sub.add_parser("bob", help="receive bits from an alice")
    p.add_argument("--listen", required=True, help="HOST:PORT; port 0 picks a free one")
    p.add_argument("--fabric", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--transcript", help="JSON transcript path")
    return parser


def _cmd_teleport_image(args) -> int:
    from .pipeline import PipelineConfig, teleport_image

    config = PipelineConfig(
        input_path=args.input,
        output_path=args.output,
        report_path=args.report,
        protocol=args.protocol,
        noise_a=args.noise_a,
        seed=args.seed,
        sample=args.sample,
    )
    report = teleport_image(config)
    c = report.coincidence
    print(
        f"{args.protocol}: {report.bits_teleported} bits in {report.pairs_processed} pairs, "
        f"coincidence {c.coincidence:.6f}, classical bits {c.classical_bits_total}, "
        f"{report.throughput_bits_per_sec:,.0f} bits/s"
    )
    return 0


def _cmd_bitplanes(args) -> int:
    from .imaging import CHANNEL_NAMES, load_raster, slice_bitplanes, write_bitplane

    img = load_raster(args.input)
    os.makedirs(args.output, exist_ok=True)
    for channel in range(3):
        for plane in slice_bitplanes(img, channel):
            name = f"plane_{CHANNEL_NAMES[channel]}{plane.plane_index}.pbm"
            with open(os.path.join(args.output, name), "wb") as fh:
                fh.write(write_bitplane(plane))
    print(f"wrote 24 planes to {args.output}")
    return 0


def _cmd_demo(args) -> int:
    from .pipeline import run_partial_demos

    verdict = run_partial_demos(args.which, args.seed)
    for case, ok in verdict["cases"].items():
        print(f"{args.which}/{case}: {'PASS' if ok else 'FAIL'}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(verdict, fh, indent=2)
            fh.write("\n")
    return 0 if verdict["passed"] else 1


def _cmd_report_diff(args) -> int:
    from .pipeline import TeleportReport, reports_equivalent

    with open(args.report_a, encoding="utf-8") as fh:
        a = TeleportReport.from_json(fh.read())
    with open(args.report_b, encoding="utf-8") as fh:
        b = TeleportReport.from_json(fh.read())
    if reports_equivalent(a, b):
        print("reports match (timing ignored)")
        return 0
    print("reports differ")
    return 1


def _cmd_serve_fabric(args) -> int:
    from .netdemo.clients import parse_addr
    from .netdemo.fabric import FabricServer

    server = FabricServer(*parse_addr(args.bind), master_seed=args.seed)
    bound_host, bound_port = server.address
    print(f"fabric listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _read_bits(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    bits = [int(c) for c in text if c in "01"]
    if not bits:
        raise ValueError(f"no 0/1 characters in {path}")
    return bits


def _write_transcript(path: str | None, result) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"role": result.role, "session": result.session, "bits": result.bits,
                       "entries": [dict(e) for e in result.transcript]}, fh, indent=2)
            fh.write("\n")


def _cmd_alice(args) -> int:
    from .netdemo.clients import run_alice

    bits = _read_bits(args.bits_from)
    result = run_alice(args.fabric, args.bob, args.protocol, bits, noise_a=args.noise_a)
    _write_transcript(args.transcript, result)
    print(f"alice sent {len(bits)} bits over session {result.session}")
    return 0


def _cmd_bob(args) -> int:
    import socket

    from .netdemo.clients import parse_addr, run_bob

    with socket.create_server(parse_addr(args.listen)) as listener:
        bound_host, bound_port = listener.getsockname()[:2]
        print(f"bob listening on {bound_host}:{bound_port}", flush=True)
        result = run_bob(listener, args.fabric, args.protocol)
    _write_transcript(args.transcript, result)
    print("bob received:", "".join(str(b) for b in result.bits))
    return 0


_COMMANDS = {
    "teleport-image": _cmd_teleport_image,
    "bitplanes": _cmd_bitplanes,
    "demo": _cmd_demo,
    "report-diff": _cmd_report_diff,
    "serve-fabric": _cmd_serve_fabric,
    "alice": _cmd_alice,
    "bob": _cmd_bob,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
