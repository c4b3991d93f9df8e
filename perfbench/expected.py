"""Workload names and the counts the checks expect, free of any cpwb import."""

WORKLOADS = ("suite_default", "denote_chain", "oracle_bang")

# Instance counts of each suite at the default SuiteConfig. A speed-up that
# comes from checking fewer instances shows as failed operations.
SUITE_INSTANCES = {
    "adequacy": 697,
    "context_denotation": 100,
    "duality": 10649,
    "full_abstraction_1": 6662,
    "full_abstraction_2": 6662,
    "injectivity": 2040,
    "mix_permutation": 112,
    "synchronizer": 8,
    "transformer_correct": 357,
    "transformer_graph": 1982,
    "translation": 357,
    "worked_example": 1,
}

# Suites whose per-suite millis the traced run reports. worked_example is
# left out: its one instance reads 0 ms at the report's whole-ms resolution.
TIMED_SUITES = tuple(name for name in SUITE_INSTANCES if name != "worked_example")

CHAIN_LENGTHS = range(1, 8)

# The layers (tracer.LAYERS) each workload enters; the traced run reports these.
TRACED_LAYERS = {
    "suite_default": (
        "cli", "harness.enumerate", "harness.self", "syntax", "typing", "denotations",
        "oracle.observe", "oracle.denote_config", "translation", "transformers",
        "obs_transform",
    ),
    "denote_chain": ("syntax", "typing", "denotations"),
    "oracle_bang": (
        "harness.enumerate", "syntax", "typing", "denotations", "oracle.observe",
        "oracle.denote_config",
    ),
}

# ?bot processes of size <= 9 that enumerate_processes yields at CP02.
BANG_SIZE = 9
BANG_PAIRS = 3820
