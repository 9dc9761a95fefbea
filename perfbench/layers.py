"""The per-layer metrics a traced run reports, in output order.

A ``.calls`` metric is the number of spans of that name in one pass; a
``.self_ms`` metric is their summed self time in one pass, in reference
milliseconds (see ``reference.py``), median over the traced passes.  A
layer a workload does not reach reads 0.  ``BENCHMARK.json`` lists the
same names, units and directions.
"""

from __future__ import annotations

_TRACE_SPANS = ("append", "parse_trace", "verdict_for", "classify_claim", "physical_path")
_CRYPTO = (
    "hash_bytes", "mac", "sign", "verify", "sym_enc", "sym_dec", "xor_stream",
    "elg_encrypt", "ct_pow", "hom_mul", "pk_enc", "pk_dec", "path_poly_eval",
)
_SCALE_RUNS = ("burbridge", "rfchain", "rfchain-patched", "resc", "stepauth", "ray", "tracker", "checker")
# the attacks the bundled corpus replays, by their ATTACKS key
_CORPUS_ATTACKS = (
    "rfchain-linking", "rfchain-length-extension", "ray-out-of-order",
    "ray-impersonation", "burbridge-bypass", "resc-key-disclosure",
)


def _span(name: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]


LAYER_METRICS: list[tuple[str, str, str]] = [
    # trace
    *[m for fn in _TRACE_SPANS for m in _span(f"trace.{fn}")],
    ("trace.physical_path.events_scanned", "count", "lower"),
    ("trace.useful_ratio", "ratio", "higher"),
    *[(f"trace.claim_us.{size}", "us", "lower") for size in (500, 1000, 2000, 4000)],
    # crypto
    *[m for fn in _CRYPTO for m in _span(f"crypto.{fn}")],
    # network
    *_span("network.transmit"),
    ("network.transmit.bytes", "B", "lower"),
    *_span("network.knowledge.observe"),
    ("network.knowledge.atoms", "count", "lower"),
    # protocols: phase self times of each scale run
    *[
        (f"protocols.{label}.{phase}.self_ms", "ms", "lower")
        for label in _SCALE_RUNS
        for phase in ("setup", "visit", "claim", "finalize")
    ],
    ("protocols.rfchain.records_compared", "count", "lower"),
    ("protocols.rfchain.record_hit_ratio", "ratio", "higher"),
    ("protocols.rfchain-patched.records_compared", "count", "lower"),
    ("protocols.rfchain-patched.record_hit_ratio", "ratio", "higher"),
    # privacy
    *_span("privacy.run_game"),
    ("privacy.world_builds", "count", "lower"),
    ("privacy.world_build.self_ms", "ms", "lower"),
    ("privacy.trial_us", "us", "lower"),
    # scenario
    *_span("scenario.parse_scenario"),
    *[m for kind in ("run", "attack", "privacy") for m in _span(f"scenario.execute.{kind}")],
    *_span("scenario.run_corpus"),
    ("scenario.pool_ratio", "ratio", "lower"),
    # matrix
    *_span("matrix.build_matrix"),
    *_span("matrix.render"),
    # attacks
    *[m for key in _CORPUS_ATTACKS for m in _span(f"attacks.{key}")],
    # per-workload rates from the untraced half of the run, and the cost of tracing
    *[(f"scale.tags_per_s.{label}", "1/s", "higher") for label in _SCALE_RUNS],
    ("audit.claims_per_s", "1/s", "higher"),
    ("audit.sweep_cases_per_s", "1/s", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
]
