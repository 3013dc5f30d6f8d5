"""Combinatorial and numerical calculus for real open books on 3-manifolds.

The names below load their module on first use (PEP 562), so importing
the package, or one of its modules, loads nothing else.
"""

# exported name -> the module that defines it
_HOME = {
    "AbelianGroup": "intalg",
    "IntMatrix": "intalg",
    "Involution": "surface",
    "OpenBook": "openbook",
    "Reality": "openbook",
    "RealityStatus": "openbook",
    "SmithForm": "intalg",
    "StabilizationError": "errors",
    "SurfaceModel": "surface",
    "check_reality": "openbook",
    "cokernel": "intalg",
    "enumerate_sites": "stabilization",
    "h1_of_manifold": "openbook",
    "smith_normal_form": "intalg",
    "stabilize": "stabilization",
    "standard_involution": "catalog",
    "standard_surface": "catalog",
    "validate_involution": "surface",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
