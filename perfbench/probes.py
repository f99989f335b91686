"""Field micro-probes over seeded operand batches.

Each probe times the whole batch several times and reports the median
cost of one call, loop overhead included.  GF(3) and GF(9) match the
fields of the field-op table in ROADMAP.md; make_field(2, 8) is the
construction whose irreducible search runs on every call.
"""

import random
import statistics
import time

BATCH = 2000
REPEATS = 7


def _per_call_ns(fn, batch) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        for args in batch:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / len(batch))
    return statistics.median(samples)


def run(crossflats, seed: int) -> dict:
    rng = random.Random(seed)
    prime, ext = crossflats.make_field(3), crossflats.make_field(3, 2)

    def pairs(q):
        return [(rng.randrange(q), rng.randrange(q)) for _ in range(BATCH)]

    units = [(rng.randrange(1, ext.q),) for _ in range(BATCH // 4)]
    return {
        "field.mul_ns.prime": _per_call_ns(prime.mul, pairs(prime.q)),
        "field.mul_ns.ext": _per_call_ns(ext.mul, pairs(ext.q)),
        "field.inv_ns.ext": _per_call_ns(ext.inv, units),
        "field.make_field_us": _per_call_ns(crossflats.make_field, [(2, 8)] * 50) / 1e3,
    }
