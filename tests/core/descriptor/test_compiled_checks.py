"""Compiled argument checks against the reference validation.

For every (interface, method, parameter) of the six shipped descriptors,
the check the semantic plane compiles must give the verdict and the
message of :meth:`ParameterSpec.validate_value` on any value.  It must
also decide an exact in-range number (an exact ``str``, an exact
``bool``) on the spot, without consulting the reference: that is the
whole of its speed-up, and a bound test made one ulp too strict shows
up there, not in the verdicts.  NaN and the infinities are never
decided on the spot: the reference rejects them.
"""

import math
import sys

from hypothesis import given, settings, strategies as st

from repro.core.descriptor import STANDARD_DIMENSIONS
from repro.core.proxies import standard_registry

CELLS = [
    (interface, method, parameter)
    for interface in standard_registry().interfaces()
    for method in standard_registry().descriptor(interface).semantic.methods
    for parameter in method.parameters
]

BOUNDS = sorted(
    {
        bound
        for name in STANDARD_DIMENSIONS.names()
        for bound in (
            STANDARD_DIMENSIONS.get(name).minimum,
            STANDARD_DIMENSIONS.get(name).maximum,
        )
        if bound is not None
    }
)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


#: Each bound, one ulp either side of it, and the other edge cases.
EDGES = (
    list(BOUNDS)
    + [math.nextafter(b, to) for b in BOUNDS for to in (-math.inf, math.inf)]
    + [0, 0.0, -0.0, 1, -1, math.inf, -math.inf, math.nan, True, False, None, "", "x"]
    + [_Float(b) for b in BOUNDS]
    + [_Int(b) for b in BOUNDS if b == int(b)]
    + [_Str("x"), object()]
)

VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGES),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.integers().map(_Int),
    st.floats(allow_nan=True, allow_infinity=True).map(_Float),
    st.text(max_size=8).map(_Str),
    st.builds(object),
)


def _verdict(check, value):
    """``None`` when ``check`` accepts ``value``, else the error message."""
    try:
        check(value)
    except ValueError as exc:
        return str(exc)
    return None


def _decided_on_the_spot(parameter, value) -> bool:
    """Whether the compiled check must accept ``value`` by itself: only
    a finite number counts, so a missing bound is the largest float."""
    dimension = STANDARD_DIMENSIONS.get(parameter.dimension)
    kind = dimension.python_type
    if kind in (int, float):
        low = -sys.float_info.max if dimension.minimum is None else dimension.minimum
        high = sys.float_info.max if dimension.maximum is None else dimension.maximum
        return type(value) in (int, float) and low <= value <= high
    return kind is object or type(value) is kind


def _assert_equivalent(cell, value):
    interface, method, parameter = cell
    semantic = standard_registry().descriptor(interface).semantic
    shipped = semantic.argument_checks[method.name][parameter.name]
    reference = _verdict(parameter.validate_value, value)
    assert _verdict(shipped, value) == reference

    consulted = []

    def counting_reference(value):
        consulted.append(value)
        parameter.validate_value(value)

    dimension = STANDARD_DIMENSIONS.get(parameter.dimension)
    fresh = dimension.compile_check(counting_reference)
    assert _verdict(fresh, value) == reference
    if _decided_on_the_spot(parameter, value):
        assert consulted == []
    if reference is not None:
        assert len(consulted) == 1


def test_every_shipped_parameter_is_compiled():
    assert len(CELLS) > 20
    for interface, method, parameter in CELLS:
        checks = standard_registry().descriptor(interface).semantic.argument_checks
        assert callable(checks[method.name][parameter.name])


def test_edges_on_every_cell():
    for cell in CELLS:
        for value in EDGES:
            _assert_equivalent(cell, value)


@settings(max_examples=400, deadline=None)
@given(cell=st.sampled_from(CELLS), value=VALUES)
def test_compiled_check_matches_the_reference(cell, value):
    _assert_equivalent(cell, value)


def test_checks_are_shared_by_every_proxy_of_a_descriptor():
    from repro.apps.workforce import scenario
    from repro.core.proxies import create_proxy

    sc = scenario.build_android()
    first = create_proxy("Location", sc.platform)
    second = create_proxy("Location", sc.platform)
    assert first.descriptor.semantic.argument_checks is (
        second.descriptor.semantic.argument_checks
    )
