"""Three-process demonstration of the teleportation protocols over real
sockets: an entanglement-fabric broker that owns the joint quantum state,
an Alice client, and a Bob client. The classical-channel cost (2 bits per
qubit for the standard protocol, 0 for the simplified one) becomes an
observable wire-level fact, auditable from the client transcripts."""

from .audit import transcript_audit  # noqa: F401
from .clients import run_alice, run_bob  # noqa: F401
from .fabric import FabricServer  # noqa: F401
from .framing import FrameDecoder, encode_frame, recv_msg, send_msg  # noqa: F401
