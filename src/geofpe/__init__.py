"""Format-preserving encryption for geographic coordinates.

Encrypts longitude/latitude text while keeping ciphertexts inside valid
geographic ranges and preserving the decimal format; a mapping store indexed
by coordinate id makes the lossy range constraints exactly reversible.  The metrics
subpackage reproduces the privacy evaluation protocols (RDR, DBSCAN hotspot
disruption, decryption accuracy).
"""

from .cipher import (
    BACKEND,
    DEFAULT_ROUNDS,
    KINDS,
    CoordinateCipher,
    DomainError,
)
from .coords import (
    DecimalNumber,
    GeoPoint,
    ParseError,
    decompose,
    recombine,
    validate_point,
)
from .mapstore import Ambiguous, MapFormatError, MappingStore
from .ranges import fraction_constrain, mask_width, range_constrain, range_type
from .sm4 import derive_round_keys

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DEFAULT_ROUNDS",
    "KINDS",
    "Ambiguous",
    "CoordinateCipher",
    "DecimalNumber",
    "DomainError",
    "GeoPoint",
    "MapFormatError",
    "MappingStore",
    "ParseError",
    "decompose",
    "derive_round_keys",
    "fraction_constrain",
    "mask_width",
    "range_constrain",
    "range_type",
    "recombine",
    "validate_point",
    "__version__",
]
