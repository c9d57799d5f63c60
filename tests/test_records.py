"""Records built with :func:`repro.core.records.record` behave exactly like
the plain frozen dataclasses they replace.

Each record class is compared with its *plain twin*: the same class body
under ``@dataclass(frozen=True, ...)``, obtained by executing the class's
module again with ``record`` standing for that decorator.  Construction
(by position, by keyword, from defaults), ``==``, ``hash``, ``repr`` (whose
text reaches error messages and trail records), ordering, ``fields()``,
``replace()``, pickling and ``FrozenInstanceError`` must all agree.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pickle
import sys

import pytest

import repro.core.labels
import repro.core.records
import repro.core.terms
import repro.machine.values
import repro.surface.ast

MODULES = (repro.machine.values, repro.core.terms, repro.surface.ast, repro.core.labels)


def _plain_record(cls=None, /, **params):
    return dataclasses.dataclass(cls, frozen=True, **params)


def _plain_twin_module(module):
    """``module`` executed again with ``record`` as a plain frozen dataclass."""
    spec = importlib.util.spec_from_file_location(f"{module.__name__}_plain", module.__file__)
    twin = importlib.util.module_from_spec(spec)
    saved = repro.core.records.record
    repro.core.records.record = _plain_record
    sys.modules[spec.name] = twin  # dataclasses resolve annotations there
    try:
        spec.loader.exec_module(twin)
    finally:
        repro.core.records.record = saved
        del sys.modules[spec.name]
    return twin


def _record_classes():
    pairs = []
    for module in MODULES:
        twin = _plain_twin_module(module)
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and "__slots__" in vars(cls)):
                pairs.append(pytest.param(cls, getattr(twin, name),
                                          id=f"{module.__name__.split('.')[-1]}.{name}"))
    return pairs


RECORDS = _record_classes()


def test_every_listed_record_is_converted():
    names = {param.values[0].__name__ for param in RECORDS}
    assert {"MConst", "MProxy", "MPair", "MFixWrap", "SourceLocation", "Definition",
            "Label", "Const", "Snd", "SConst", "Program"} <= names
    assert len(RECORDS) == 35


def _samples(cls, base: int) -> tuple:
    """Hashable, orderable field values, distinct per ``base``."""
    return tuple((base + i, f"v{base + i}") for i in range(len(dataclasses.fields(cls))))


@pytest.mark.parametrize("cls, twin", RECORDS)
class TestRecordMatchesPlainTwin:
    def test_construction(self, cls, twin):
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        args = _samples(cls, 1)
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert by_position == by_keyword
        assert tuple(getattr(by_position, name) for name in names) == args
        # Defaults: leave out every trailing field that has one.
        required = [f for f in fields
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        short = args[: len(required)]
        assert repr(cls(*short)) == repr(twin(*short))
        assert dataclasses.astuple(cls(*short)) == dataclasses.astuple(twin(*short))
        for bad in (args + (0,), short[:-1]) if required else (args + (0,),):
            with pytest.raises(TypeError):
                twin(*bad)
            with pytest.raises(TypeError):
                cls(*bad)

    def test_eq_hash_repr_and_order(self, cls, twin):
        one, other = _samples(cls, 1), _samples(cls, 2)
        for a in (one, other):
            assert repr(cls(*a)) == repr(twin(*a))
            assert hash(cls(*a)) == hash(twin(*a))
            for b in (one, other):
                assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b))
                if cls.__dataclass_params__.order:
                    assert (cls(*a) < cls(*b)) == (twin(*a) < twin(*b))
                    assert (cls(*a) >= cls(*b)) == (twin(*a) >= twin(*b))
        assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
        assert cls.__match_args__ == twin.__match_args__

    def test_frozen(self, cls, twin):
        obj = cls(*_samples(cls, 1))
        for name in [f.name for f in dataclasses.fields(cls)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        for target in (obj, twin(*_samples(cls, 1))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                target.undeclared = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del target.undeclared

    def test_fields_replace_and_pickle(self, cls, twin):
        ours, theirs = dataclasses.fields(cls), dataclasses.fields(twin)
        assert [(f.name, f.type, repr(f.default), f.default_factory) for f in ours] == [
            (f.name, f.type, repr(f.default), f.default_factory) for f in theirs]
        args, changed = _samples(cls, 1), _samples(cls, 2)
        first = ours[0].name
        replaced = dataclasses.replace(cls(*args), **{first: changed[0]})
        assert repr(replaced) == repr(dataclasses.replace(twin(*args), **{first: changed[0]}))
        assert type(replaced) is cls
        obj = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(obj, protocol))
            assert type(copy) is cls and copy == obj and hash(copy) == hash(obj)


def test_helper_rejects_what_its_init_would_not_do():
    class WithPostInit:
        x: int

        def __post_init__(self):
            pass

    with pytest.raises(TypeError, match="plain positional"):
        repro.core.records.record(WithPostInit)
