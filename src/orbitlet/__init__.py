"""orbitlet: dilation groups, dual-orbit envelopes, vanishing-moment orders,
and desk-scale continuous wavelet transforms."""

import importlib

__all__ = ["algebra", "atoms", "embeddedness", "groups", "orbit",
           "quadrature", "transform"]
__version__ = "0.1.0"


def __getattr__(name):  # a submodule loads on first use (PEP 562)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
