"""Immutable record classes: the ``frozen`` class decorator.

Every object of the library (algebras, corings, comodules, measurings,
extensions, descent data) is a frozen record.  These used to be
``dataclasses.dataclass(frozen=True)`` classes.  ``dataclasses`` compiles
each generated method from source text with ``exec`` and imports
``inspect``; for two dozen classes that was most of the package's import
time, a per-process start-up cost that every one-shot CLI call paid.
``frozen`` gives the same behaviour from closures built without ``exec``.
"""

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable record over its annotated fields.

    Behaves like ``dataclass(frozen=True)``: ``__init__`` takes the fields
    positionally or by keyword, with class attributes as defaults, then
    calls ``__post_init__`` if the class has one; ``__eq__`` compares the
    field tuples of two instances of the same class (and returns
    NotImplemented otherwise); ``__hash__`` hashes the field tuple;
    ``__repr__`` is ``Name(field=value, ...)``; assignment and deletion
    raise AttributeError.  Methods the class defines itself are kept.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    if len(names) == 1:
        one = attrgetter(names[0])

        def key(obj):
            return (one(obj),)
    else:
        key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} "
                            f"positional arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, val in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected "
                                f"keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for "
                                f"argument {name!r}")
            values[name] = val
        if len(values) < len(names):
            for name in names:
                if name not in values:
                    if name not in defaults:
                        raise TypeError(f"{cls.__name__}() missing required "
                                        f"argument {name!r}")
                    values[name] = defaults[name]
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for meth in (__init__, __eq__, __hash__, __repr__, __setattr__,
                 __delattr__):
        name = meth.__name__
        if cls.__dict__.get(name) is None:
            meth.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, meth)
    return cls
