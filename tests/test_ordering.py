import random
from fractions import Fraction
from itertools import islice

import pytest

from llull.ballots import CandidateSet, InterpretationRules, read_ballot_file
from llull.closures import Variant, VariantMargins, indirect_scores, variant_margins
from llull.errors import NotAdmissible
from conftest import numerators
from llull.matrix import aggregate
from llull.ordering import (
    _check_admissible,
    admissible_order,
    copeland_ranks,
    enumerate_admissible_orders,
)

BIG = 2**64 + 13  # a denominator past int64: margins held as Python ints


def comparison_relation(vm):
    """The strict and the weak indirect comparison: the pairs with positive
    and with nonnegative margin."""
    n = len(vm.m)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    nu = {(x, y) for x, y in pairs if vm.m[x, y] > 0}
    nu_hat = {(x, y) for x, y in pairs if vm.m[x, y] >= 0}
    return nu, nu_hat


def margins_grid(rows):
    n = len(rows)
    grid = tuple(tuple(Fraction(v) for v in row) for row in rows)
    for x in range(n):
        for y in range(n):
            assert grid[x][y] == -grid[y][x]
    w, den = numerators(grid)
    return VariantMargins(w, Variant.MAIN, den)


def margins_of(matrix):
    return variant_margins(indirect_scores(matrix.w, matrix.den, Variant.MAIN))


def first_violation_loop(sequence, rows, candidates):
    """Reference for the not-admissible message: the first pair in order,
    by position, whose margin is negative."""
    for i, x in enumerate(sequence):
        for y in sequence[i + 1 :]:
            if rows[x][y] < 0:
                return (
                    f"order puts {candidates.names[x]} before {candidates.names[y]} "
                    f"but the main indirect margin is {rows[x][y]}"
                )
    return None


@pytest.fixture(scope="module")
def royal_vm(royal_text):
    cands, ballots = read_ballot_file(royal_text)
    matrix = aggregate(ballots, InterpretationRules(), cands)
    return cands, margins_of(matrix)


class TestCopeland:
    def test_royal_tie_splitting_ranks(self, royal_vm):
        _, vm = royal_vm
        # numerators over 2 of 5/2, 1, 6, 5, 3, 7/2
        assert copeland_ranks(vm).tolist() == [5, 2, 12, 10, 6, 7]

    def test_all_zero_margins_rank_everyone_in_the_middle(self):
        vm = margins_grid([[0] * 4 for _ in range(4)])
        assert copeland_ranks(vm).tolist() == [5] * 4

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_definitional_recount(self, seed):
        rng = random.Random(seed)
        n = 4
        for denominator in (6, BIG):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    m = Fraction(rng.randint(-6, 6), denominator)
                    rows[x][y], rows[y][x] = m, -m
            ranks = copeland_ranks(margins_grid(rows))
            for x in range(n):
                expected = 1 + sum(
                    1 if rows[y][x] > 0 else Fraction(1, 2) if rows[y][x] == 0 else 0
                    for y in range(n)
                    if y != x
                )
                assert Fraction(int(ranks[x]), 2) == expected


class TestAdmissibleOrder:
    def test_royal_order(self, royal_vm):
        cands, vm = royal_vm
        order = admissible_order(vm, cands)
        assert tuple(cands.names[x] for x in order.sequence) == (
            "b", "a", "e", "f", "d", "c",
        )

    def test_zero_margins_fall_back_to_file_order(self):
        cands = CandidateSet("dcba")
        vm = margins_grid([[0] * 4 for _ in range(4)])
        order = admissible_order(vm, cands)
        assert order.sequence == (0, 1, 2, 3)

    def test_order_extends_the_relation(self, royal_vm):
        cands, vm = royal_vm
        order = admissible_order(vm, cands)
        nu, nu_hat = comparison_relation(vm)
        position = {c: i for i, c in enumerate(order.sequence)}
        for x, y in nu:
            assert position[x] < position[y]
        for i, x in enumerate(order.sequence):
            for y in order.sequence[i + 1 :]:
                assert (x, y) in nu_hat

    def test_debian_order_is_consistent_with_rates(self, debian_text):
        from llull.matrix import read_matrix

        matrix = read_matrix(debian_text)
        order = admissible_order(margins_of(matrix), matrix.candidates)
        names = [matrix.candidates.names[x] for x in order.sequence]
        assert names[:2] == ["4", "3"]
        assert names[-1] == "6"

    def test_not_admissible_is_surfaced(self):
        # a margin grid with a strict 3-cycle can never be extended
        cands = CandidateSet("abc")
        for denominator in (2, BIG):
            half = Fraction(denominator // 2, denominator)
            rows = [[0, half, -half], [-half, 0, half], [half, -half, 0]]
            with pytest.raises(NotAdmissible) as info:
                admissible_order(margins_grid(rows), cands)
            message = f"order puts a before c but the main indirect margin is {-half}"
            assert str(info.value) == message
            assert message == first_violation_loop((0, 1, 2), rows, cands)

    @pytest.mark.parametrize("denominator", [6, BIG])
    def test_first_violation_matches_loop_reference(self, denominator):
        rng = random.Random(denominator)
        for _ in range(50):
            n = rng.randint(2, 6)
            cands = CandidateSet("abcdef"[:n])
            rows = [[Fraction(0)] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    m = Fraction(rng.randint(-3, 3), denominator)
                    rows[x][y], rows[y][x] = m, -m
            sequence = tuple(rng.sample(range(n), n))
            expected = first_violation_loop(sequence, rows, cands)
            try:
                _check_admissible(sequence, margins_grid(rows), cands)
            except NotAdmissible as exc:
                assert str(exc) == expected
            else:
                assert expected is None


class TestEnumeration:
    def test_empty_relation_gives_all_permutations(self):
        vm = margins_grid([[0] * 3 for _ in range(3)])
        orders = list(enumerate_admissible_orders(vm))
        assert len(orders) == 6
        assert len({o.sequence for o in orders}) == 6

    def test_total_relation_gives_single_order(self):
        vm = margins_grid(
            [
                [0, Fraction(1, 3), Fraction(1, 3)],
                [-Fraction(1, 3), 0, Fraction(1, 3)],
                [-Fraction(1, 3), -Fraction(1, 3), 0],
            ]
        )
        orders = list(enumerate_admissible_orders(vm))
        assert [o.sequence for o in orders] == [(0, 1, 2)]

    def test_royal_orders_permute_only_the_tied_block(self, royal_vm):
        cands, vm = royal_vm
        sequences = {o.sequence for o in enumerate_admissible_orders(vm)}
        b, a, e, f, d, c = 1, 0, 4, 5, 3, 2
        assert (b, a, e, f, d, c) in sequences
        assert (b, e, a, f, d, c) in sequences  # a and e have a zero margin
        assert (b, a, f, e, d, c) in sequences  # so do e and f
        assert len(sequences) == 3  # but a must stay ahead of f

    def test_limit_caps_generation(self):
        vm = margins_grid([[0] * 4 for _ in range(4)])
        assert len(list(islice(enumerate_admissible_orders(vm), 5))) == 5

    def test_every_enumerated_order_is_admissible(self, royal_vm):
        cands, vm = royal_vm
        for order in enumerate_admissible_orders(vm):
            position = {c: i for i, c in enumerate(order.sequence)}
            for x in range(6):
                for y in range(6):
                    if vm.m[x, y] > 0:
                        assert position[x] < position[y]
