"""Acceptance criteria, one test per criterion.

Every criterion runs through the same suite machinery as `cpwb suite`
with the default configuration, asserts exact results (zero failures),
the required instance counts, and the wall-clock budgets, and prints one
pass/fail line.  Sub-second budgets are asserted with a 2x allowance for
timer jitter; the printed line carries the measured time.
"""

import time

from cpwb.harness import SuiteConfig, run_suite

CFG = SuiteConfig()


def _run(name: str, min_instances: int, budget_s: float):
    t0 = time.monotonic()
    report = run_suite(SuiteConfig(suites=(name,)))
    elapsed = time.monotonic() - t0
    result = report.results[0]
    ok = result.ok and result.instances >= min_instances and elapsed <= budget_s
    print(
        f"criterion {name}: {'PASS' if ok else 'FAIL'} "
        f"({result.instances} instances, {elapsed:.1f}s, {len(result.failures)} failures)"
    )
    assert result.ok, result.failures[:5]
    assert result.instances >= min_instances, (result.instances, min_instances)
    assert elapsed <= budget_s, f"{name} took {elapsed:.1f}s (budget {budget_s}s)"
    return result


def test_criterion_01_duality_involution():
    # exact, ~1e4 formulas to depth 4, < 1 s
    _run("duality", 9000, 2.0)


def test_criterion_02_adequacy():
    # exact set equality on >= 500 closed cuts, < 2 min
    _run("adequacy", 500, 120.0)


def test_criterion_03_synchronizer_characterization():
    # the eight stated formulas, exact (bounded for the exponentials), < 30 s
    _run("synchronizer", 8, 30.0)


def test_criterion_04_translation_theorem():
    # all enumerated exponential-free + >= 50 exponential samples, < 3 min
    result = _run("translation", 200, 180.0)
    assert result.instances >= 50


def test_criterion_05_full_abstraction_1():
    # >= 1e3 unordered pairs, zero violations, < 5 min
    _run("full_abstraction_1", 1000, 300.0)


def test_criterion_06_transformer_graph():
    # every family formula with an observation space of <= 64 points, < 30 s
    _run("transformer_graph", 64, 30.0)


def test_criterion_07_context_denotation():
    # 100 random observation sets over 10 contexts, exact, < 1 min
    _run("context_denotation", 100, 60.0)


def test_criterion_08_transformer_correct():
    # translated process vs transformer context, same family as criterion 4, < 3 min
    _run("transformer_correct", 200, 180.0)


def test_criterion_09_full_abstraction_2():
    # same pair families under transformer contexts, zero violations, < 5 min
    _run("full_abstraction_2", 1000, 300.0)


def test_criterion_10_mix_permutation():
    # the three stated equivalences over >= 100 instantiations, < 1 min
    _run("mix_permutation", 100, 60.0)


def test_criterion_11_injectivity_and_bag_homomorphism():
    # exhaustive over spaces <= 64 and bags of size <= 3, < 10 s
    _run("injectivity", 100, 10.0)


def test_criterion_12_worked_example():
    # the cut of close/wait against the identity continuation, exact, < 1 s
    _run("worked_example", 1, 2.0)


# The exact instance count of each suite at the default configuration, as
# perfbench/expected.py lists them. The criteria above assert minimums only;
# a change that adds instances raises an entry here, none lowers one.
DEFAULT_INSTANCES = {
    "adequacy": 697,
    "context_denotation": 100,
    "duality": 10_649,
    "full_abstraction_1": 6_662,
    "full_abstraction_2": 6_662,
    "injectivity": 2_040,
    "mix_permutation": 112,
    "synchronizer": 8,
    "transformer_correct": 357,
    "transformer_graph": 1_982,
    "translation": 357,
    "worked_example": 1,
}


def test_default_suite_is_green():
    report = run_suite(CFG)
    print()
    print(report.to_text())
    assert report.ok
    assert {r.name: r.instances for r in report.results} == DEFAULT_INSTANCES
