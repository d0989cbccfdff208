"""The shared register rules, on plain values."""

from attestsim.trust import (
    BASELINE,
    OBFUSCATED,
    disagreeing,
    forwards_extends,
    static_split,
)


def test_a_missing_value_never_agrees():
    assert disagreeing([0], {0: "a"}, {}) == [0]
    assert disagreeing([0], {}, {}) == [0]
    assert disagreeing([0], {0: "a"}, {0: "a"}, {}) == [0]
    assert disagreeing([0], {0: "a"}, {0: "a"}, {0: "a"}) == []


def test_disagreements_come_in_sorted_order_register_zero_included():
    sealed, quoted = {0: "a", 3: "b", 7: "c"}, {0: "x", 3: "b", 7: "y"}
    assert disagreeing([7, 3, 0], sealed, quoted) == [0, 7]


def test_static_split_names_the_baseline_before_the_obfuscated_value():
    golden, obfuscated = {0: "g"}, {0: "o"}
    assert static_split([0], golden, {0: "g"}, obfuscated, {0: "o"}) == []
    assert static_split([0], golden, {0: "b"}, obfuscated, {0: "q"}) == [(0, BASELINE)]
    assert static_split([0], golden, {0: "g"}, obfuscated, {0: "q"}) == [(0, OBFUSCATED)]
    assert static_split([0], golden, {0: "g"}, obfuscated, {}) == [(0, OBFUSCATED)]


def test_a_host_forwards_extends_unless_its_dynamics_are_golden():
    golden = {17: "t", 18: "k"}
    assert forwards_extends(golden, {17: "t", 18: "k"}) is False
    assert forwards_extends(golden, {17: "t", 18: "rootkit"}) is True
    assert forwards_extends(golden, {17: "t"}) is True
