"""The shared register rules, on plain values."""

from attestsim.trust import (
    BASELINE,
    OBFUSCATED,
    disagreeing,
    forwards_extends,
    static_half,
)


def test_a_missing_value_never_agrees():
    assert disagreeing([0], {0: "a"}, {}) == [0]
    assert disagreeing([0], {}, {}) == [0]
    assert disagreeing([0], {0: "a"}, {0: "a"}, {}) == [0]
    assert disagreeing([0], {0: "a"}, {0: "a"}, {0: "a"}) == []


def test_disagreements_come_in_sorted_order_register_zero_included():
    sealed, quoted = {0: "a", 3: "b", 7: "c"}, {0: "x", 3: "b", 7: "y"}
    assert disagreeing([7, 3, 0], sealed, quoted) == [0, 7]


def test_static_half_names_the_baseline_before_the_obfuscated_value():
    assert static_half("g", "g", "o", "o") is None
    assert static_half("g", "b", "o", "q") == BASELINE
    assert static_half("g", "g", "o", "q") == OBFUSCATED


def test_a_missing_static_value_never_agrees():
    assert static_half(None, None, "o", "o") == BASELINE
    assert static_half("g", None, "o", "o") == BASELINE
    assert static_half("g", "g", None, None) == OBFUSCATED
    assert static_half("g", "g", "o", None) == OBFUSCATED


def test_a_host_forwards_extends_unless_its_dynamics_are_golden():
    golden = {17: "t", 18: "k"}
    assert forwards_extends(golden, {17: "t", 18: "k"}) is False
    assert forwards_extends(golden, {17: "t", 18: "rootkit"}) is True
    assert forwards_extends(golden, {17: "t"}) is True
