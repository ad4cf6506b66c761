"""Per-call timings of the layers below the pipeline and the netdemo:
`core`, `protocols`, `sdc` and `framing`. Each is the median over a few
batches of the batch time divided by its call count, in microseconds."""
from __future__ import annotations

import random
import statistics
import time

from qteleport.core import GATE_H, PureQubit, StateVector, apply_1q, apply_cnot, measure_qubit, tensor
from qteleport.netdemo import FrameDecoder, encode_frame
from qteleport.protocols import balanced_epr, teleport_bit
from qteleport.sdc import cl2qu, qu2cl

BATCHES = 5


def per_call_us(fn, calls: int, batches: int = BATCHES) -> float:
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t) / calls * 1e6)
    return statistics.median(samples)


def core_and_protocols(seed: int) -> dict[str, float]:
    """The 3-qubit states and ops the protocols build, one call at a time."""
    rng = random.Random(seed)
    epr = balanced_epr()
    psi = PureQubit(0.6, 0.8).as_state()
    state = tensor(psi, epr)
    amps = state.amps
    bits = [rng.getrandbits(1) for _ in range(256)]
    out = {
        "core.statevector_us": per_call_us(lambda: StateVector(amps), 2000),
        "core.tensor_us": per_call_us(lambda: tensor(psi, epr), 2000),
        "core.apply_1q_us": per_call_us(lambda: apply_1q(state, GATE_H, 0), 2000),
        "core.apply_cnot_us": per_call_us(lambda: apply_cnot(state, 0, 1), 2000),
        "core.measure_qubit_us": per_call_us(lambda: measure_qubit(state, 0, rng), 2000),
        "sdc.cl2qu_qu2cl_us": per_call_us(lambda: qu2cl(cl2qu(bits[:2])), 1000),
    }
    for protocol in ("standard", "simplified"):
        it = iter(bits * BATCHES)
        out[f"protocols.teleport_bit_us.{protocol}"] = per_call_us(
            lambda: teleport_bit(next(it), protocol, epr, rng), len(bits)
        )
    return out


def framing(messages: list[dict]) -> dict[str, float]:
    """Encode and decode cost per message, over a session's messages."""
    frames = [encode_frame(m) for m in messages]
    it = iter(messages * BATCHES)
    encode = per_call_us(lambda: encode_frame(next(it)), len(messages))
    decoder = FrameDecoder()
    it = iter(frames * BATCHES)
    decode = per_call_us(lambda: decoder.feed(next(it)), len(frames))
    return {"framing.encode_frame_us": encode, "framing.decode_us": decode}
