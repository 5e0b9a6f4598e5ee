"""``@record``: a frozen value class, what ``@dataclass(frozen=True)`` gave, without
loading ``dataclasses`` and ``inspect`` or compiling the methods it generates, which
took about two thirds of the time to import ``qacm.cli``.

The fields are the class annotations, in order, and a class attribute of the same
name is the field's default.  ``record`` adds ``__init__`` (calling ``__post_init__``
when the class has one), ``__repr__``, ``__eq__`` between instances of the same class,
``__hash__`` = hash of the tuple of fields unless the class defines its own, and
``__setattr__``/``__delattr__`` that raise ``AttributeError``.  Instances keep a
``__dict__``, so ``cached_property`` can fill it."""

from operator import attrgetter


def record(cls):
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)
    defaults = {"_" + n: vars(cls)[n] for n in names if n in vars(cls)}
    params = ", ".join(f"{n}=_{n}" if "_" + n in defaults else n for n in names)
    body = "".join(f"\n    _s[{n!r}] = {n}" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    # one generated __init__ per class: a generic (*args, **kwargs) one is slower
    exec(f"def __init__(self, {params}):\n    _s = self.__dict__{body}", defaults)
    cls.__init__ = defaults["__init__"]
    cls.__repr__ = lambda self: "{}({})".format(type(self).__qualname__, ", ".join(
        f"{n}={v!r}" for n, v in zip(names, key(self))))
    cls.__eq__ = lambda self, other: (key(self) == key(other) if other.__class__ is self.__class__
                                      else NotImplemented)
    if "__hash__" not in vars(cls):
        cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")
