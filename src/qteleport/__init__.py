"""Statevector simulation of quantum teleportation, superdense-coding
interfaces, and a complete digital-image teleportation pipeline."""

__version__ = "0.17.0"
