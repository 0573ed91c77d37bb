"""The ``frozen`` record decorator keeps the frozen-dataclass contract."""

import os
import subprocess
import sys

import pytest

from coringext._record import frozen
from coringext.algmod import LeftModule, RightModule
from coringext.exactla import GF2, FieldSpec, Mat
from coringext.fixtures import d2_algebra
from coringext.verdict import Failure, Verdict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_equality_and_hash_follow_field_tuple():
    a, b = Failure("unital", (0, 1)), Failure("unital", (0, 1))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(("unital", (0, 1)))
    assert a != Failure("unital", (1, 0))
    assert hash(FieldSpec(3)) == hash((3,))
    assert len({a, b, Failure("unital", (1, 0))}) == 2


def test_different_classes_with_equal_fields_are_unequal():
    alg = d2_algebra(GF2)
    act = alg.mult_mat
    left, right = LeftModule(alg, 2, act), RightModule(alg, 2, act)
    assert left != right and not left == right
    assert LeftModule.__eq__(left, right) is NotImplemented
    assert left == LeftModule(alg, 2, act)


def test_assignment_and_deletion_raise():
    v = Verdict(True)
    with pytest.raises(AttributeError):
        v.ok = False
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(AttributeError):
        del v.ok
    assert v.ok is True


def test_defaults_and_keywords():
    assert Verdict(True).failure is None
    assert Failure("counit").witness == ()
    assert FieldSpec().p is None
    assert Failure(kind="k", witness=(2,)) == Failure("k", (2,))
    assert Verdict(ok=False, failure=Failure("k")) == \
        Verdict.reject("k")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                           # missing required field
    (("k", (), 1), {}),                 # too many positionals
    (("k",), {"kind": "k"}),            # field given twice
    (("k",), {"other": 1}),             # unknown keyword
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Failure(*args, **kwargs)


def test_post_init_runs():
    with pytest.raises(ValueError):
        FieldSpec(4)


def test_repr_has_dataclass_format():
    assert repr(Failure("unital", (0,))) == \
        "Failure(kind='unital', witness=(0,))"
    assert repr(Verdict.reject("x")) == \
        "Verdict(ok=False, failure=Failure(kind='x', witness=()))"


def test_methods_defined_by_the_class_win():
    @frozen
    class Point:
        x: int
        y: int = 0

        def __repr__(self):
            return f"<{self.x},{self.y}>"

    assert repr(Point(1)) == "<1,0>"
    assert repr(FieldSpec(2)) == "GF(2)"


def test_cached_property_still_caches():
    alg = d2_algebra(GF2)
    m = alg.mult_mat
    assert isinstance(m, Mat)
    assert alg.mult_mat is m
    assert alg.unit_col is alg.unit_col


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import coringext.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -I -S: no user or site packages; -B: write no bytecode into src/
    argv = [sys.executable, "-I", "-S", "-B", "-c", code, SRC]
    out = subprocess.run(argv, capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"
