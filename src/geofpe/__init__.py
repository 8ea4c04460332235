"""Format-preserving encryption for geographic coordinates.

Encrypts longitude/latitude text while keeping ciphertexts inside valid
geographic ranges and preserving the decimal format; a mapping store indexed
by coordinate id makes the lossy range constraints exactly reversible.  The metrics
subpackage reproduces the privacy evaluation protocols (RDR, DBSCAN hotspot
disruption, decryption accuracy).

The package exports the user API only; the decimal grammar, range rules and
key schedule are importable from ``geofpe.coords``, ``geofpe.ranges`` and
``geofpe.sm4``.
"""

from .cipher import BACKEND, KINDS, CoordinateCipher, DomainError
from .mapstore import Ambiguous, MapFormatError, MappingStore

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "KINDS",
    "Ambiguous",
    "CoordinateCipher",
    "DomainError",
    "MapFormatError",
    "MappingStore",
    "__version__",
]
