"""Record classes: fields declared as annotations, methods built from them.

``@record`` on a class with the annotated fields ``left`` and ``right``
gives it ``__slots__`` for its fields and the ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and ``__match_args__`` that a frozen
standard-library data class has:

- construction by position or keyword, with the defaults given in the class
  body; a :class:`field` default may instead name a factory of a fresh value
  per instance, and a ``__post_init__`` method runs after the fields are set;
- equality field by field and only between instances of the same class,
  so ``Not(x) != Next(x)``;
- hashing as the tuple of its compared fields (which fails if one holds a
  list or dict), and no assignment to or deletion of a field;
- the repr ``And(left=..., right=...)``.

``__match_args__`` lists every field in order.  A field declared with
``field(compare=False)`` takes no part in equality or hashing.  A class body
may list extra ``__slots__`` (``"__dict__"`` for a
``functools.cached_property``).  The methods are closures over each class's
field names, made when the class is decorated: nothing is compiled per
class, which keeps importing the package cheap.  A record class is a plain
``type``, so ``isinstance`` and class patterns in ``match`` take their fast
path on it.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class field:
    """A field's default (``default``, or ``factory()`` per instance) and its role."""

    __slots__ = ("default", "factory", "compare", "repr")

    def __init__(self, default=_MISSING, *, factory=None, compare=True, repr=True):
        self.default = default
        self.factory = factory
        self.compare = compare
        self.repr = repr


def record(cls):
    """The record class of ``cls``."""
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", ()))
    values = [ns.pop(name, _MISSING) for name in names]
    fields = {name: v if isinstance(v, field) else field(v) for name, v in zip(names, values)}
    # the class is made again, with slots in place of the instance dict
    ns["__slots__"] = names + tuple(ns.get("__slots__", ()))
    ns["__qualname__"] = cls.__qualname__
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns.update(_methods(cls.__name__, fields, ns.get("__post_init__")))
    return type(cls)(cls.__name__, cls.__bases__, ns)


def _methods(cls_name: str, fields: dict, post_init) -> dict:
    """The record methods of a class named ``cls_name`` with ``fields``."""
    names = tuple(fields)
    n = len(names)
    # the record's own __setattr__ refuses every assignment, so its fields
    # are set with object's
    put = object.__setattr__
    # per field: its default, or the field itself when it has a factory or no default
    defaults = [
        f if f.factory is not None or f.default is _MISSING else f.default for f in fields.values()
    ]
    pending = [(i, f) for i, f in enumerate(defaults) if f.__class__ is field]
    index = {name: i for i, name in enumerate(names)}

    def bind(args, kwargs):
        """The values of all fields, from arguments that are not exactly one per field."""
        k = len(args)
        if k > n:
            raise TypeError(f"{cls_name}() takes {n} arguments but {k} were given")
        values = [*args, *defaults[k:]]
        for name, value in kwargs.items():
            i = index.get(name, -1)
            if i < k:
                problem = "got multiple values for" if i >= 0 else "got an unexpected"
                raise TypeError(f"{cls_name}() {problem} argument {name!r}")
            values[i] = value
        if k + len(kwargs) < n:  # some field takes its default
            for i, f in pending:
                if i >= k and values[i] is f:
                    if f.factory is None:
                        raise TypeError(f"{cls_name}() missing argument {names[i]!r}")
                    values[i] = f.factory()
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:  # positional calls with one argument per field skip ``bind``
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)

    if post_init is not None:
        set_fields = __init__

        def __init__(self, *args, **kwargs):
            set_fields(self, *args, **kwargs)
            post_init(self)

    compared = [name for name in names if fields[name].compare]
    # the key is the tuple of the compared fields; an attrgetter of one name
    # gives the value itself, so that case builds its 1-tuple here
    if len(compared) == 1:
        get = attrgetter(compared[0])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

    else:
        key = attrgetter(*compared) if compared else lambda self: ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

    shown = [name for name in names if fields[name].repr]

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self):  # copy and pickle build a record again, as slots have no dict
        return self.__class__, tuple(getattr(self, name) for name in names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    return {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": __repr__,
        "__reduce__": __reduce__,
        "__setattr__": __setattr__,
        "__delattr__": __delattr__,
        "__match_args__": names,
    }
