"""Simulator and security-analysis toolkit for entanglement-swapping based
quantum secret sharing: a (2,2) scheme for classical bits with authentication,
and a (5,5) scheme for qubit secrets."""

__version__ = "0.1.0"
