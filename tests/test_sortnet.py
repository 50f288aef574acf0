"""Batcher networks, the zero-one check, and threshold synthesis."""

import pytest

import picturehang.compiler as compiler
from picturehang.circuits import Const, circuit_table
from picturehang.compiler import BudgetExceededError
from picturehang.sortnet import (
    Comparator,
    ComparatorNetwork,
    batcher_network,
    build_k_of_n,
    network_to_circuit,
    sorts_all_zero_one,
    threshold_circuit,
)
from picturehang.words import DEFAULT_LETTER_BUDGET, fall_table


def test_comparator_validation():
    Comparator(1, 2)
    with pytest.raises(ValueError):
        Comparator(2, 2)
    with pytest.raises(ValueError):
        Comparator(3, 2)
    with pytest.raises(ValueError):
        Comparator(0, 1)


def test_network_rejects_wire_reuse_within_layer():
    with pytest.raises(ValueError):
        ComparatorNetwork(3, ((Comparator(1, 2), Comparator(2, 3)),))
    ComparatorNetwork(3, ((Comparator(1, 2),), (Comparator(2, 3),)))


def test_network_apply_sorts_sample():
    net = batcher_network(4)
    assert net.apply([3, 1, 2, 0]) == [0, 1, 2, 3]
    assert net.apply([1, 0, 1, 0]) == [0, 0, 1, 1]


def test_batcher_sizes_for_known_widths():
    net4 = batcher_network(4)
    assert net4.size == 5
    assert net4.depth == 3
    net16 = batcher_network(16)
    assert net16.size == 63
    assert net16.depth == 10


def test_batcher_sorts_all_zero_one_up_to_16():
    for n in range(1, 17):
        assert sorts_all_zero_one(batcher_network(n))


def test_sorts_all_zero_one_rejects_non_sorter():
    broken = ComparatorNetwork(3, ((Comparator(1, 2),),))
    assert not sorts_all_zero_one(broken)


def test_network_to_circuit_matches_network_semantics():
    for width in range(2, 9):
        net = batcher_network(width)
        tables = [circuit_table(network_to_circuit(net, wire)) for wire in range(1, width + 1)]
        for mask in range(1 << width):
            bits = [(mask >> i) & 1 for i in range(width)]
            sorted_bits = net.apply(bits)
            for wire in range(width):
                assert tables[wire][mask] == bool(sorted_bits[wire])


def test_threshold_circuit_tables():
    for n in range(1, 7):
        for k in range(0, n + 1):
            table = circuit_table(threshold_circuit(k, n))
            assert table == [bin(mask).count("1") >= k for mask in range(1 << n)]


def test_threshold_circuit_has_no_residual_constants():
    c = threshold_circuit(2, 5)
    from picturehang.circuits import _walk

    assert not any(isinstance(node, Const) for node in _walk(c.root))


def test_threshold_zero_is_constant_true():
    assert threshold_circuit(0, 3).root == Const(True)


def test_build_k_of_n_validates_arguments():
    with pytest.raises(ValueError):
        build_k_of_n(0, 3)
    with pytest.raises(ValueError):
        build_k_of_n(4, 3)
    report = build_k_of_n(1, 1)
    assert report.word.letters == (1,)
    assert report.verified is True


def test_build_k_of_n_small_cases_verified():
    report = build_k_of_n(2, 2)
    assert report.verified is True
    assert report.word.reduce().letters == (1, 2)
    report = build_k_of_n(4, 4)
    assert report.verified is True


def test_build_k_of_n_every_threshold_up_to_six_is_exact():
    for n in range(2, 7):
        for k in range(1, n + 1):
            report = build_k_of_n(k, n)
            assert report.verified is True, (k, n)
            want = [bin(mask).count("1") >= k for mask in range(1 << n)]
            assert fall_table(report.word, n) == want, (k, n)
            assert (
                report.reduced_length
                <= report.as_constructed_length
                <= report.estimate
                <= report.bound
            ), (k, n)


def test_build_k_of_n_passes_its_budget_through_unchanged(monkeypatch):
    budgets = []
    real = compiler.compile_circuit

    def spy(spec, budget, verify):
        budgets.append(budget)
        return real(spec, budget=budget, verify=verify)

    monkeypatch.setattr(compiler, "compile_circuit", spy)
    build_k_of_n(2, 3, budget=None)
    build_k_of_n(2, 3, budget=50)
    build_k_of_n(2, 3)
    assert budgets == [None, 50, DEFAULT_LETTER_BUDGET]


def test_build_k_of_n_refuses_large_n_from_the_closed_form_estimate():
    # 30-of-60 has C(60, 31) clauses; listing them would never finish.
    with pytest.raises(BudgetExceededError):
        build_k_of_n(30, 60)
