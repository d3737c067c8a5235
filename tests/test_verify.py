"""The verification suites themselves: all green, deterministic, well-named."""

import hashlib
import inspect
import json
import random
import re

import pytest

from albertkit import cli, isotope, verify
from albertkit.errors import SingularPoint
from albertkit.verify import SUITE_NAMES, predicate, run_suite

SUITES = [n for n in SUITE_NAMES if n != "all"]

# sha256(repr(rng.getstate())), first 12 hex digits, of each suite's rng once each
# check has run, in registry order, at seed 0 with 3 trials. They pin every
# sampler and every draw: a change to either moves them, and is re-recorded on purpose.
STATE_AFTER_CHECK = (
    "8ddf60622c96 e7a295f23abb 31beb6cb26c3 660e9252b3a5 af90213166f8 f3ac86304498 "
    "afb0084afdec 2c3f7dbf8b3f f9e81d3973dd 37a3b4bcb09b 32e196ab8636 cacb599193be "
    "e9847ebe3124 79cc249972b8 c98595a37e84 e1b7dfc48c90 e1b7dfc48c90 220c700f97df "
    "35030ef5ade2 2f9e036dc6ac 2f0e29f6c8f0 46e77fed46c2 727380d4a7fe 006f069501ae "
    "63aa62060364 30fba8974030 6a6b2fc43f31 41f5fc91ea8d 3b6eb1bdb799 42c39f0e117d "
    "31e63eecc2b1 92a0a0d20d7b c23a86e650b2 19aee824c1c0 e0ec825e9a82 df2b6e7ba087 "
    "5048029954f2 bac6eeb8e302 5e23e3b02cb0 f3da69ff2f3a 4e49e79c2426 8c29d4991894 "
    "1df2660049aa e9be866834cd 3c228fefb683 0fd38f1f9102 841ee4e7fcd6 b6b4e4e729d1 "
    "099e7aa7639d 90fce26c64a1 474ea9313ac7 82fe26c6d027 df19c26c618d acf29d15dde8 "
    "dd14d20e2ab5 a6eda5c3eeb7 7e74f3979044 03af3374ec2e 525497382179 525497382179 "
    "525497382179 "
).split()

# for each (seed, trials): sha256 of the 61 concatenated per-check digests, first 12 hex digits
STATE_AFTER_ALL = {
    (0, 1): "c6b1b6fea055",
    (0, 3): "d9204198f905",
    (0, 20): "841ba6ba4959",
    (11, 1): "c1f2fca6a569",
    (11, 3): "a48afc09b55b",
    (11, 20): "eef471d5d51d",
}

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


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_is_an_error(trials):
    """A check that runs no trial would report ok, so no suite runs with fewer than 1."""
    for suite in ("all", "octonion"):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_suite(suite, seed=0, trials=trials)


def test_check_result_shape():
    (first, *_) = run_suite("octonion", seed=0, trials=3)
    assert first.ok is (first.failed == 0)
    assert isinstance(first.name, str)


def _state_after_each_check(monkeypatch, seed, trials):
    """[(suite/check, digest of its suite's rng once it has run)] from run_suite("all")."""
    after = {}

    def spy(name, draw):
        def spied(rng, i):
            inputs = draw(rng, i)
            after[name] = rng.getstate()
            return inputs

        return spied

    registry = {
        suite: [(check, count, spy(suite + "/" + check, draw), body) for check, count, draw, body in checks]
        for suite, checks in verify._REGISTRY.items()
    }
    monkeypatch.setattr(verify, "_REGISTRY", registry)
    run_suite("all", seed, trials)
    return [(name, hashlib.sha256(repr(state).encode()).hexdigest()[:12]) for name, state in after.items()]


def test_draw_stream_is_pinned(monkeypatch):
    got = _state_after_each_check(monkeypatch, 0, 3)
    assert len(got) == len(STATE_AFTER_CHECK) == 61
    for (name, digest), want in zip(got, STATE_AFTER_CHECK):
        assert digest == want, "the rng stream drifted first at %s" % name


@pytest.mark.parametrize("seed, trials", sorted(STATE_AFTER_ALL))
def test_draw_stream_is_pinned_at_each_setting(monkeypatch, seed, trials):
    got = _state_after_each_check(monkeypatch, seed, trials)
    total = hashlib.sha256("".join(d for _, d in got).encode()).hexdigest()[:12]
    assert total == STATE_AFTER_ALL[seed, trials], "the rng stream drifted at seed %d, trials %d" % (seed, trials)


def test_every_body_is_a_predicate_of_its_draw():
    for suite, checks in verify._REGISTRY.items():
        for check, _, draw, body in checks:
            signature = inspect.signature(body)
            assert not {"rng", "i"} & set(signature.parameters), suite + "/" + check
            signature.bind(*draw(random.Random(0), 0))


def test_predicate_returns_the_registered_body():
    for suite, checks in verify._REGISTRY.items():
        for check, _, _, body in checks:
            assert predicate(suite + "/" + check) is body
    for name in ("no-such-suite/unit", "albert/no-such-check", "albert", "unit"):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            predicate(name)


def test_a_raising_predicate_fails_its_check(monkeypatch, capsys):
    # a fault that raises inside one check fails that check's trials; every
    # other check still runs, and verify reports them all
    def singular(*args):
        raise SingularPoint("det(a) = 0: the isotope at a is undefined")

    monkeypatch.setattr(isotope, "circ_a_springer", singular)
    results = run_suite("all", seed=1)
    failed = {r.name for r in results if r.failed}
    assert len(results) == 61 and "smap-contraction/tensor-is-isotope" in failed
    assert len(failed) < len(results)
    assert cli.main(["verify", "--suite", "all", "--seed", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert out["checks"] == [{"name": r.name, "passed": r.passed, "failed": r.failed} for r in results]
