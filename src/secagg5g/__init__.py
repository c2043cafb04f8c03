"""Single-round, dropout-resilient secure aggregation for federated learning.

Devices mask quantized model updates with key-homomorphic PRF masks; base
stations hold threshold shares of device keys and emit one aggregated mask
share per round; the server unmasks only the sum. A deterministic
simulator, one pass per round, reproduces dropout-resilience experiments at
desk scale.
"""

from .field import P, FixedPointCodec
from .messages import MaskShareMode
from .shamir import AccessStructure, SecretShare
from .simnet import DropoutSchedule, SimConfig, run_simulation

__version__ = "0.1.0"

__all__ = [
    "P",
    "FixedPointCodec",
    "MaskShareMode",
    "AccessStructure",
    "SecretShare",
    "DropoutSchedule",
    "SimConfig",
    "run_simulation",
    "__version__",
]
