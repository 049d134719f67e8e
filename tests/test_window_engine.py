"""The typical-set index sums over interval cuts, not over a list of type
classes.  Against the class list (`oracles.type_classes`) it must give the
same M, delta and H(Z), and the same rank-map row for every prefix a walk
reaches, on the window's edge cases; against
exact class masses, delta and H(Z) must keep their measured accuracy."""
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import oracles
from twoshare import _comb, harness, typical
from twoshare.prob import PMF, RandomStream


def power_gamma(n):
    return n ** (-1.0 / 3.0)


EDGES = [
    # the free pair's surprisals tie, so their weight gap is 0
    pytest.param([0.5, 0.25, 0.25], 11, id="tied-surprisals"),
    pytest.param("uniform:3", 9, id="uniform3-every-class-typical"),
    pytest.param([0.6, 0.0, 0.4], 14, id="zero-probability-symbol"),
    pytest.param([0.0, 1.0, 0.0], 7, id="one-support-symbol"),
    pytest.param([0.7, 0.3], 19, id="k2"),
    pytest.param([0.5, 0.3, 0.2], 12, id="k3"),
    # the free pair's gap is positive
    pytest.param([0.2, 0.3, 0.5], 12, id="k3-reversed"),
    pytest.param([0.4, 0.3, 0.2, 0.1], 9, id="k4"),
]


def source_of(probs):
    return PMF.from_text(probs) if isinstance(probs, str) \
        else PMF.from_probs(probs)


def walk(index, seed):
    """Rank random typical blocks and random blocks on a cold index, so
    its rows are built along the way."""
    rng = random.Random(seed)
    for m in {0, index.m_count - 1} | {rng.randrange(index.m_count)
                                       for _ in range(6)}:
        assert index.xi_plus(index.unrank(m)) == m
    for _ in range(6):
        index.xi_plus([rng.choice(index._support) for _ in range(index.n)])


@pytest.mark.parametrize("probs,n", EDGES)
@pytest.mark.parametrize("gamma", [power_gamma, lambda n: 0.05,
                                   lambda n: 0.6], ids=["power", "narrow",
                                                        "wide"])
def test_engine_matches_the_class_list(probs, n, gamma):
    source, gamma = source_of(probs), gamma(n)
    classes = oracles.type_classes(source, n, gamma)
    index = typical.TypicalIndex(source, n, gamma)
    assert (index.m_count, index.delta, index.h_z) == \
        oracles.class_quantities(classes)
    if not index.m_count:
        return
    walk(index, n)
    b = index._chunks[0]
    assert index._rows
    for code, row in index._rows.items():
        prefix = [code // w % (n + 1) for w in index._weights]
        t = min(b, n - sum(prefix))
        assert row == oracles.class_row(classes, index._support, prefix, t)


def test_uniform_source_has_every_class_typical():
    source = PMF.uniform(3)
    index = typical.TypicalIndex(source, 9, 0.05)
    assert index.m_count == 3 ** 9 and index.delta == 0.0
    assert typical.atypical_mass_mc(source, 9, 0.05, 5000,
                                    RandomStream(0)) == (0.0, 3.0 / 5000)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def shipped(name):
    cfg = harness.ExperimentConfig.from_dict(
        json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    return [(name, cfg.source, n, cfg.schedule().gamma_at(n))
            for n in cfg.n_values]


# the worst errors of the class list, rounded up: relative delta error
# and |H(Z) error| / n against the exact sums; 1e-15 stands in for errors
# of a few roundings
MEASURED = {("blockwise_long", 1000): (4.3e-14, 2.2e-14),
            ("blockwise_long", 2000): (1.2e-13, 5.6e-14),
            ("k3", 200): (1e-15, 3.1e-15)}
ACCURACY = [
    pytest.param(source, n, gamma, *MEASURED.get((name, n), (1e-15, 1e-15)),
                 id=f"{name}-n{n}")
    for name, source, n, gamma in (
        shipped("blockwise_long") + shipped("blockwise_skew")
        + shipped("blockwise_uniform_mc")
        + [("k3", PMF.from_probs([0.5, 0.3, 0.2]), 200, power_gamma(200))])]


@pytest.mark.parametrize("source,n,gamma,delta_err,h_err", ACCURACY)
def test_sums_keep_their_accuracy(source, n, gamma, delta_err, h_err):
    exact = oracles.exact_blockwise(source, n, gamma)
    index = typical.TypicalIndex(source, n, gamma)
    assert index.m_count == exact.m_count
    if exact.delta:
        assert abs(Fraction(index.delta) - exact.delta) \
            <= Fraction(delta_err) * exact.delta
    else:
        assert index.delta == 0.0
    assert abs(mpmath.mpf(index.h_z) - exact.h_z) <= h_err * n


# two support symbols leave one prefix, whose cuts `_prefixes` finds in
# Python ints; the table path of `_comb.cuts` and the scalar window test
# must agree with it, for each sign of the weight gap
TWO_SYMBOLS = [
    pytest.param([0.7, 0.3], id="gap-negative"),
    pytest.param([0.3, 0.7], id="gap-positive"),
    pytest.param("uniform:2", id="gap-zero"),
    pytest.param([0.6, 0.0, 0.4], id="two-of-three"),
]


def edge_gammas(source, n):
    """Gammas whose window has a bar exactly on a class's score: each
    class's |mean surprisal - H(S)| as a float, kept when the window's
    integer bars meet that score."""
    s_i, s_j = (Fraction(v) for v in source.surprisals)
    out = set()
    for a in range(n + 1):
        gamma = float(abs((a * s_i + (n - a) * s_j) / n
                          - Fraction(source.entropy)))
        if gamma > 0.0:
            (w_i, w_j), lo, hi = typical._window(source, n, gamma)
            if a * w_i + (n - a) * w_j in (lo, hi):
                out.add(gamma)
    return sorted(out)


def table_path(index, m, offsets):
    """`_prefixes` of two support symbols through the `_comb.cuts` table."""
    _, r, ends = _comb.cuts(index._surprisals, [
        bar - offset for offset in offsets for bar in index._bars], m,
        range(2))
    pairs = [(int(a[0]), int(b[0])) for a, b in zip(ends[0::2], ends[1::2])]
    return ([1], [[]], r.tolist(), [[min(p)] for p in pairs],
            [[max(p)] for p in pairs])


@pytest.mark.parametrize("probs", TWO_SYMBOLS)
def test_two_symbol_cuts_match_the_table_and_the_scalar_test(probs):
    source = source_of(probs)
    (s_i, s_j), edges = source.support, 0
    for n in range(1, 41):
        found = edge_gammas(source, n)
        edges += len(found)
        for gamma in [power_gamma(n), 0.05, 0.6] + found:
            index = typical.TypicalIndex(source, n, gamma)
            calls, real = [(n, (0,))], index._prefixes
            index._prefixes = lambda m, offsets=(0,): (
                calls.append((m, tuple(offsets))) or real(m, offsets))
            if index.m_count:
                walk(index, n)
            # the scalar test of each class, by its count of s_i
            member = [typical.is_typical([s_i] * c + [s_j] * (n - c),
                                         source, gamma) for c in range(n + 1)]
            w_i, w_j = index._surprisals
            for m, offsets in calls:
                got = real(m, offsets)
                assert got == table_path(index, m, offsets)
                for offset, (lo,), (hi,) in zip(offsets, got[3], got[4]):
                    # a prefix of n - m symbols with this score, then a
                    # of s_i in the m positions left
                    head = next(c for c in range(n - m + 1)
                                if c * w_i + (n - m - c) * w_j == offset)
                    assert [member[head + a] for a in range(m + 1)] == [
                        lo <= a < hi for a in range(m + 1)]
    # the gap-zero source scores every class H(S): no bar can meet it
    assert edges > 0 or probs == "uniform:2"


@pytest.mark.parametrize("probs", TWO_SYMBOLS)
@pytest.mark.parametrize("n", [1, 8, 19, 40])
def test_two_symbol_index_reads_no_table(probs, n, monkeypatch):
    source, gamma = source_of(probs), power_gamma(n)
    expect = oracles.class_quantities(oracles.type_classes(source, n, gamma))

    def table(*args):
        raise AssertionError("a two-symbol index read the cuts table")

    monkeypatch.setattr(_comb, "cuts", table)
    monkeypatch.setattr(typical, "cuts", table)
    index = typical.TypicalIndex(source, n, gamma)
    assert (index.m_count, index.delta, index.h_z) == expect
    walk(index, n)
