"""Format-preserving encryption for geographic coordinates.

Encrypts longitude/latitude text while keeping ciphertexts inside valid
geographic ranges and preserving the decimal format; a mapping store indexed
by coordinate id makes the lossy range constraints exactly reversible.  The metrics
module reproduces the privacy evaluation protocols of RDR and DBSCAN hotspot
disruption, and ``geofpe.text`` that of decryption accuracy.

The package exports the user API only, each name imported on first use; the
cipher's rules and the key schedule are importable from ``geofpe.cipher``
and ``geofpe.sm4``.
"""

import importlib

__version__ = "0.1.0"

# each export and its module, imported on first use, so that a command
# that needs no numpy layer loads none
_EXPORTS = {"BACKEND": "cipher", "KINDS": "cipher", "CoordinateCipher": "cipher",
            "DomainError": "cipher", "Ambiguous": "mapstore", "MapFormatError": "mapstore",
            "MappingStore": "mapstore"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
