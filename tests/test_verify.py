"""The verification suites themselves: all green, deterministic, well-named."""

import pytest

from albertkit.verify import SUITE_NAMES, run_suite

SUITES = [n for n in SUITE_NAMES if n != "all"]

# cheap suites get more trials; the heavyweight ones make their point with few
TRIALS = {
    "smap-contraction": 3,
    "smap-equivariance": 3,
    "isotope-defs": 3,
    "jordan-axioms": 2,
    "homogeneity": 3,
    "isomorphism": 2,
}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes(suite):
    results = run_suite(suite, seed=11, trials=TRIALS.get(suite, 5))
    assert results, "suite produced no checks"
    for r in results:
        assert r.failed == 0, "%s: %d of %d trials failed" % (
            r.name,
            r.failed,
            r.passed + r.failed,
        )
        assert r.passed > 0


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_deterministic_across_runs():
    a = run_suite("cubic-form", seed=5, trials=4)
    b = run_suite("cubic-form", seed=5, trials=4)
    assert a == b


def test_all_prefixes_names():
    results = run_suite("all", seed=2, trials=2)
    names = [r.name for r in results]
    assert all("/" in n for n in names)
    prefixes = {n.split("/", 1)[0] for n in names}
    assert prefixes == set(SUITES)
    assert len(names) == len(set(names))


def test_trials_table_names_real_suites():
    # a renamed suite would otherwise fall back to 5 trials unnoticed
    assert set(TRIALS) <= set(SUITES)


@pytest.mark.parametrize("seed", [0, 11])
def test_all_is_each_suite_in_order(seed):
    """One rng per suite: "all" is the suites run one by one, names prefixed."""
    expected = [
        r._replace(name=suite + "/" + r.name) for suite in SUITES for r in run_suite(suite, seed, 3)
    ]
    assert run_suite("all", seed, 3) == expected


def test_every_check_runs_at_one_trial():
    """No check may report ok on zero runs."""
    for r in run_suite("all", seed=0, trials=1):
        assert r.passed + r.failed >= 1, r.name


def test_check_result_shape():
    (first, *_) = run_suite("octonion", seed=0, trials=3)
    assert first.ok is (first.failed == 0)
    assert isinstance(first.name, str)
