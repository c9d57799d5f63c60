"""Immutable records that build in one step.

The engines and the front end build small immutable records by the
thousand per op: machine values (:mod:`repro.machine.values`), λB terms
(:mod:`repro.core.terms`), surface syntax (:mod:`repro.surface.ast`),
blame labels.  A frozen dataclass's generated ``__init__`` stores each
field with ``object.__setattr__(self, name, value)``, a generic attribute
store looked up anew per field.  :func:`record` makes a frozen, slotted
dataclass whose ``__init__`` stores each field through its slot's
descriptor instead, which builds a two-field record in a little over
half the time.  Everything else is the dataclass's own: ``__eq__``, ``__hash__``,
``__repr__``, ordering, ``fields()``, ``replace()``, pickling and
``FrozenInstanceError`` on assignment or deletion.

Rule: a record built once per op or per step is declared with
:func:`record` rather than ``@dataclass(frozen=True)``.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

#: Parameter default standing for "call the field's default factory".
_HAS_FACTORY = object()


def record(cls=None, /, **params):
    """Declare ``cls`` a frozen, slotted dataclass with a descriptor-storing
    ``__init__``.  ``params`` are passed on to :func:`dataclasses.dataclass`
    (``order=True``, ``repr=False``, …); use as ``@record`` or
    ``@record(order=True)``."""

    def wrap(cls):
        cls = dataclass(cls, frozen=True, slots=True, **params)
        cls.__init__ = _slot_init(cls)
        # The dataclass's own test the instance's class against the class
        # as it was before ``slots=True`` rebuilt it, so assigning a name
        # that is not a field raised TypeError instead.
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
        return cls

    return wrap if cls is None else wrap(cls)


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _slot_init(cls) -> object:
    """The ``__init__`` of the frozen, slotted dataclass ``cls``: the same
    parameters and defaults as the dataclass's own, each field stored
    through ``cls.<field>.__set__``, which a frozen class's ``__setattr__``
    does not intercept."""
    own = fields(cls)
    if len(own) != len(cls.__dataclass_fields__) or hasattr(cls, "__post_init__") or any(
        not f.init or f.kw_only for f in own
    ):
        raise TypeError(f"{cls.__qualname__}: record fields must be plain positional init fields")
    env = {"_HAS_FACTORY": _HAS_FACTORY}
    params = []
    body = []
    for f in own:
        name = f.name
        if f.default is not MISSING:
            env[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        elif f.default_factory is not MISSING:
            env[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_HAS_FACTORY")
            body.append(f"  if {name} is _HAS_FACTORY: {name} = _factory_{name}()")
        else:
            params.append(name)
        env[f"_set_{name}"] = vars(cls)[name].__set__
        body.append(f"  _set_{name}(self, {name})")
    source = (
        f"def __create_fn__({', '.join(env)}):\n"
        f" def __init__(self, {', '.join(params)}):\n"
        + "\n".join(body or ["  pass"])
        + "\n return __init__\n"
    )
    namespace: dict = {}
    exec(source, {}, namespace)
    init = namespace["__create_fn__"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
