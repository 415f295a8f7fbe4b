"""The config schema: ``util.check_config`` checks every field of the eight
config dataclasses against its annotation and its ``bounded`` interval, so
an ill-typed or out-of-range value raises a ``ConfigError`` naming the field,
and a well-typed value in range constructs unchanged."""

import ast
import dataclasses
import functools
import math
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darl.cli import RunConfig
from darl.dataset import SyntheticConfig
from darl.errors import ConfigError
from darl.harness import ExperimentConfig
from darl.lpft import StagePlan
from darl.model import CalibrationPrior, ModelArch
from darl.ood_select import OodThresholds, ThresholdPolicy
from darl.util import bounded, check_config

CONFIGS = (
    SyntheticConfig, StagePlan, ThresholdPolicy, ExperimentConfig, RunConfig, ModelArch,
    CalibrationPrior, OodThresholds,
)
# values for the fields that have no default
REQUIRED = {OodThresholds: {"d1": 1.0, "d2": 0.5, "policy": "fpr"}}
FIELDS = [(cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls)]
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "darl").glob("*.py"))


def _field(cls, name):
    return next(f for f in dataclasses.fields(cls) if f.name == name)


def _build(cls, **kwargs):
    return cls(**{**REQUIRED.get(cls, {}), **kwargs})


def _annotation(cls, name):
    """(takes None, holds a tuple, the annotation of the value or of each item)."""
    kind = typing.get_type_hints(cls)[name]
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        return True, False, next(arg for arg in args if arg is not type(None))
    if typing.get_origin(kind) is tuple:
        return False, True, args[0]
    return False, False, kind


def _bounds(cls, name):
    """(lo, hi, lo is open, hi is open) from the field's interval text."""
    text = _field(cls, name).metadata.get("interval", ("(-inf, inf)",))[0]
    lo, hi = (float(Fraction(end)) if "inf" not in end else float(end)
              for end in text[1:-1].split(","))
    return lo, hi, text[0] == "(", text[-1] == ")"


def _inside(value, bounds) -> bool:
    lo, hi, lo_open, hi_open = bounds
    return (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)


def _numbers(kind, bounds):
    """Values of ``kind`` (int or float) inside ``bounds``."""
    lo, hi, lo_open, hi_open = bounds
    least = None if lo == -math.inf else math.floor(lo) + 1 if lo_open else math.ceil(lo)
    most = None if hi == math.inf else math.ceil(hi) - 1 if hi_open else math.floor(hi)
    ints = st.integers(min_value=least, max_value=most)
    if kind is int:
        return ints
    floats = st.floats(
        min_value=None if lo == -math.inf else lo,
        max_value=None if hi == math.inf else hi,
        exclude_min=lo_open and lo != -math.inf,
        exclude_max=hi_open and hi != math.inf,
        allow_nan=False,
        allow_infinity=False,
    )
    return floats if None not in (least, most) and least > most else floats | ints


def _valid_item(kind, bounds):
    if kind in (int, float):
        return _numbers(kind, bounds)
    if kind is bool:
        return st.booleans()
    if typing.get_origin(kind) is typing.Literal:
        return st.sampled_from(typing.get_args(kind))
    assert dataclasses.is_dataclass(kind), kind
    return st.just(kind())  # a section's own fields get their own runs


def _valid_value(cls, name):
    optional, many, kind = _annotation(cls, name)
    item = _valid_item(kind, _bounds(cls, name))
    if optional:
        return item | st.none()
    if not many:
        return item
    nonempty = _field(cls, name).metadata.get("nonempty", False)
    # sorted and unique, which alpha_grid needs and the other tuples allow
    items = st.lists(item, min_size=int(nonempty), max_size=4, unique=True).map(sorted)
    return items | items.map(tuple)


@functools.lru_cache(maxsize=None)
def _valid_kwargs(cls):
    values = {f.name: _valid_value(cls, f.name) for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries(values).map(lambda kwargs: (cls, kwargs))


def _wrong_type(kind):
    anything = st.none() | st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.none())
    if kind is bool:
        return anything | st.integers() | st.floats()
    if kind is int:
        return anything | st.booleans() | st.floats()
    if kind is float:
        return anything | st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
    if typing.get_origin(kind) is typing.Literal:
        return st.none() | st.integers() | st.text().filter(lambda v: v not in typing.get_args(kind))
    other = st.sampled_from([_build(c) for c in CONFIGS if c is not kind and not issubclass(c, kind)])
    return anything | st.integers() | other


def _invalid_item(cls, name):
    optional, _, kind = _annotation(cls, name)
    bounds = _bounds(cls, name)
    bad = _wrong_type(kind)
    if kind in (int, float) and bounds[:2] != (-math.inf, math.inf):
        numbers = st.integers() if kind is int else st.integers() | st.floats(
            allow_nan=False, allow_infinity=False
        )
        bad = bad | numbers.filter(lambda v: not _inside(v, bounds))
    return bad.filter(lambda v: v is not None) if optional else bad


def _invalid_cases():
    def case(cls_name):
        cls, name = cls_name
        _, many, _ = _annotation(cls, name)
        bad = _invalid_item(cls, name)
        if many:
            valid = _valid_value(cls, name)
            inserted = st.tuples(valid, bad, st.integers(0, 4)).map(
                lambda t: [*t[0][: t[2]], t[1], *t[0][t[2]:]]
            )
            bad = inserted | st.integers() | st.text(max_size=3) | st.none()
            if _field(cls, name).metadata.get("nonempty"):
                bad = bad | st.just(())
        return bad.map(lambda value: (cls, name, value))

    return st.sampled_from(FIELDS).flatmap(case)


@settings(max_examples=400)
@given(case=_invalid_cases())
@example(case=(SyntheticConfig, "dims", True))
@example(case=(StagePlan, "pretrain_epochs", True))
@example(case=(StagePlan, "batch_size", 2.5))
@example(case=(StagePlan, "lp_lr", math.nan))
@example(case=(StagePlan, "lp_lr", 10**400))
@example(case=(StagePlan, "seed", "x"))
@example(case=(ThresholdPolicy, "grid_points", 2.0))
@example(case=(ModelArch, "input_dims", 2.5))
@example(case=(ModelArch, "hidden", (2.7,)))
@example(case=(ExperimentConfig, "corpus", {}))
@example(case=(ExperimentConfig, "eval_fraction", "0.2"))
@example(case=(RunConfig, "budgets", [1.5]))
@example(case=(OodThresholds, "alpha_fpr", math.nan))
def test_ill_typed_or_out_of_range_values_name_the_field(case):
    cls, name, value = case
    with pytest.raises(ConfigError) as err:
        _build(cls, **{name: value})
    assert err.value.field == name


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_well_typed_values_in_range_construct_unchanged(cls, data):
    _, kwargs = data.draw(_valid_kwargs(cls))
    config = _build(cls, **kwargs)
    for name, value in kwargs.items():
        expected = tuple(value) if isinstance(value, list) else value
        if name == "alpha_grid":
            expected = tuple(map(float, expected))
        # repr tells 1 from 1.0: an int given for a float stays an int
        assert repr(getattr(config, name)) == repr(expected)


@pytest.mark.parametrize("cls, name", FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FIELDS])
def test_every_config_field_is_checked(cls, name):
    # a field whose annotation check_config cannot check makes cls() raise
    # TypeError, so a new field cannot go unchecked
    _build(cls)
    with pytest.raises(ConfigError) as err:
        _build(cls, **{name: object()})
    assert err.value.field == name


@pytest.mark.parametrize(
    "annotation",
    [dict, object, typing.Optional[dict], list[int], tuple[int, int], typing.Literal[1, 2]],
    ids=repr,
)
def test_an_annotation_the_checker_cannot_check_is_refused(annotation):
    probe = dataclasses.make_dataclass(
        "Probe",
        [("x", annotation, dataclasses.field(default=None))],
        frozen=True,
        namespace={"__post_init__": check_config},
    )
    with pytest.raises(TypeError, match=r"Probe\.x"):
        probe()


def test_every_checked_dataclass_is_covered():
    # the properties above cover every class whose __post_init__ calls check_config
    checked = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(call, ast.Call) and ast.unparse(call.func) == "check_config"
                for call in ast.walk(node)
            ):
                checked.add(node.name)
    # RunConfig inherits ExperimentConfig.__post_init__
    assert checked | {"RunConfig"} == {cls.__name__ for cls in CONFIGS}


def test_bounded_intervals():
    @dataclasses.dataclass(frozen=True)
    class Probe:
        closed: float = bounded(0.5, "[0, 1]")
        third: float = bounded(0.1, "(0, 1/3)")
        counts: tuple[int, ...] = bounded((1,), "[1, inf)", nonempty=True)
        free: float = 0.0
        maybe: float | None = bounded(None, "[0, 1)")
        legacy: typing.Optional[int] = None

        def __post_init__(self):
            check_config(self)

    for value in (0, 1, 0.0, 1.0):
        assert Probe(closed=value).closed == value
    for value in (-1e-12, 1 + 1e-12, 2):
        with pytest.raises(ConfigError, match=r"closed: must be in \[0, 1\], got"):
            Probe(closed=value)
    Probe(third=0.3333)
    for value in (0, 0.0, 1 / 3):
        with pytest.raises(ConfigError, match=r"third: must be in \(0, 1/3\)"):
            Probe(third=value)
    assert Probe(counts=[3, 10**400]).counts == (3, 10**400)
    with pytest.raises(ConfigError, match="counts: must not be empty"):
        Probe(counts=[])
    with pytest.raises(ConfigError, match="counts: must be in"):
        Probe(counts=[2, 0])
    assert Probe(free=-1e308).free == -1e308
    assert Probe(free=-(10**308)).free == -(10**308)
    for value in (math.nan, math.inf, -math.inf, 10**400, -(10**400)):
        with pytest.raises(ConfigError, match="free: must be a finite number"):
            Probe(free=value)
    assert (Probe(maybe=0.5).maybe, Probe(maybe=None).maybe) == (0.5, None)
    assert (Probe(legacy=3).legacy, Probe(legacy=None).legacy) == (3, None)
    with pytest.raises(ConfigError, match=r"maybe: must be in \[0, 1\), got 1"):
        Probe(maybe=1)
    for value in (math.nan, "0.5", False):
        with pytest.raises(ConfigError, match="maybe: must be a finite number"):
            Probe(maybe=value)
    with pytest.raises(ConfigError, match="legacy: must be an integer, got 1.0"):
        Probe(legacy=1.0)
