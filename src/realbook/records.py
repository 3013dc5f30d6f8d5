"""Frozen value records, built without the standard dataclass module.

``@record`` makes a class whose annotations are its fields into a
frozen value type, as ``@dataclass(frozen=True)`` does:

* ``__init__`` takes the fields in order, with the class-level values
  as defaults (a ``factory`` default is made per instance), and ends by
  calling ``__post_init__`` when the class has one;
* ``__repr__`` is the dataclass one, ``Name(a=1, b='x')``;
* ``__eq__`` compares the field tuples of two instances of the same
  class, and ``__hash__`` is the hash of the field tuple;
* assignment and deletion raise AttributeError.  A cached_property
  still works, as it writes the instance dict directly.

Only ``__init__`` is generated, as source compiled once per class; the
other methods are shared and read the field names from ``_fields``.
Importing the dataclass module would load inspect, ast, dis and
tokenize, a large share of the start-up of a short realbook process.
"""

_MISSING = object()


class factory:
    """A field default made afresh for each instance, as
    ``field(default_factory=make)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in self._fields)


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen record, as the module docstring describes."""
    fields = tuple(vars(cls).get("__annotations__", {}))
    ns = {"_MISSING": _MISSING}
    params, body = ["self"], ["_d = self.__dict__"]
    for name in fields:
        default = vars(cls).get(name, _MISSING)
        value = name
        if isinstance(default, factory):
            delattr(cls, name)
            ns[f"_make_{name}"] = default.make
            params.append(f"{name}=_MISSING")
            value = f"_make_{name}() if {name} is _MISSING else {name}"
        elif default is not _MISSING:
            ns[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"_d[{name!r}] = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body), ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = ns["__init__"]
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__ = _no_setattr, _no_delattr
    cls._fields = fields
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed, built
    through __init__, so __post_init__ checks it again."""
    for name in obj._fields:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
