"""Reimplementations of the comparison systems from the paper's evaluation."""
from .and_local import and_decomposition  # noqa: F401
from .nd import nd_decomposition  # noqa: F401
from .pkt import pkt_truss  # noqa: F401
