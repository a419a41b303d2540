"""Seeded input generator for the invorbit benchmark.

Writes one workload's scenario files plus a manifest that records, for
every file, the document it holds and the exit codes the program must
return.  The program under test only ever sees the scenario files; the
manifest is read by the benchmark's own checks.  The same seed gives
byte-identical files.

    python3 perfbench/gen.py --workload long_orbit --seed 3 --out /tmp/in
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

WORKLOADS = ("oracle_sweep", "sampled_checks", "long_orbit", "cli_batch")

SAMPLED_N = 100_000
ORBIT_STEPS = 75_000
K1_FAMILIES = ("abs_metric", "max_partial", "sum_metric_like")
ORBIT_COEFFICIENTS = (1.02, 1.03, 1.04)
AXIOM_FAMILIES = ("sqrt_square", "max_partial", "abs_metric", "sum_metric_like", "square_diff", "two_point_sigma")

COMPLETE = {"complete": True}
PHI_ATTESTED = {"complete": True, "phi_limit_condition_attested": True}


def _op(name: str, doc: dict | None, expect: list[int], text: str | None = None) -> dict:
    if text is None:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return {"name": name, "doc": doc, "expect": expect, "text": text}


def _linear(a: float) -> dict:
    return {"kind": "linear", "a": a}


def _near(rng: random.Random, value: float) -> float:
    """`value` moved by at most 0.1% by the seed.

    Orbit lengths, and so a scenario's work, follow the map coefficient;
    drawing it from a wide range made a pass's work change with the seed.
    """
    return value * (1.0 + rng.uniform(-1e-3, 1e-3))


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------


def oracle_ops(rng: random.Random) -> list[dict]:
    """The falsification sweep on the shipped grid shape.

    The entries are a seeded scale of {0, 1, 2, 3} in seeded order.  The
    axioms and the audit are homogeneous in the distance, so every seed
    admits the same spaces and audits the same number of instances.
    """
    scale = rng.uniform(0.25, 4.0)
    entries = [0.0, scale, 2.0 * scale, 3.0 * scale]
    rng.shuffle(entries)
    doc = {
        "space": {"family": "two_point_sigma"},
        "run": {"command": "oracle", "seed": rng.randrange(1000)},
        "oracle": {
            "sizes": [1, 2, 3],
            "entries": entries,
            "k_values": [1.0, 2.0],
            "r_offsets": [0.5],
            "r_factors": [2.0],
            "l_values": [0.0, 1.0],
            "n_max": 4,
        },
    }
    return [_op("oracle_sweep", doc, [0])]


# ---------------------------------------------------------------------------
# sampled_checks
# ---------------------------------------------------------------------------


def _axioms(family: str, n: int, seed: int, **space) -> dict:
    return {
        "space": {"family": family, **space},
        "run": {"command": "axioms", "n_samples": n, "seed": seed},
        "assumptions": COMPLETE,
    }


def _rl_audit(family: str, t: dict, s: dict, r: float, n: int, seed: int) -> dict:
    return {
        "space": {"family": family},
        "maps": {"t": t, "s": s},
        "hypothesis": {"form": "rl", "r_const": r, "l_const": 0.0},
        "run": {"command": "audit", "n_samples": n, "seed": seed},
        "assumptions": COMPLETE,
    }


def _phi_audit(a_map: float, n: int, seed: int) -> dict:
    return {
        "space": {"family": "square_diff", "k_const": 2.0},
        "maps": {"t": _linear(a_map), "s": _linear(a_map)},
        "hypothesis": {"form": "phi", "family": "affine", "a": 5.0, "b": 0.0},
        "run": {"command": "audit", "n_samples": n, "seed": seed},
        "assumptions": PHI_ATTESTED,
    }


def sampled_ops(rng: random.Random) -> list[dict]:
    seed = lambda: rng.randrange(1 << 20)  # noqa: E731
    identity = {"kind": "identity"}
    return [
        _op("axioms_sqrt_square", _axioms("sqrt_square", SAMPLED_N, seed()), [0]),
        _op("axioms_max_partial", _axioms("max_partial", SAMPLED_N, seed()), [0]),
        # T = 9x against S = identity has a known hypothesis gap: ~17k violations.
        _op(
            "audit_rl_sqrt_square",
            _rl_audit("sqrt_square", _linear(9.0), identity, 3.0, SAMPLED_N, seed()),
            [2],
        ),
        _op("audit_phi_square_diff", _phi_audit(3.0, SAMPLED_N, seed()), [0]),
    ]


# ---------------------------------------------------------------------------
# long_orbit
# ---------------------------------------------------------------------------


def orbit_length(c: float, x0: float, max_steps: int) -> int:
    """Steps the inverse orbit of T = S = c*x takes from x0.

    The orbit divides by c until it stalls in the subnormal range; it stops
    early only if the stalled point is exactly fixed by x -> c*x.
    """
    x = x0
    for step in range(max_steps):
        nxt = x / c
        if nxt == x and c * nxt == nxt:
            return step + 1
        x = nxt
    return max_steps


def _orbit_doc(family: str, command: str, c: float, x0: float, seed: int) -> dict:
    doc = {
        "space": {"family": family},
        "maps": {"t": _linear(c), "s": _linear(c)},
        "run": {"command": command, "x0": x0, "max_steps": ORBIT_STEPS, "seed": seed},
        "assumptions": COMPLETE,
    }
    if command == "solve":
        doc["hypothesis"] = {"form": "rl", "r_const": (1.0 + c) / 2.0, "l_const": 0.0}
    return doc


def orbit_ops(rng: random.Random) -> list[dict]:
    """solve and lemmas on each K = 1 family, every orbit the full budget.

    The coefficients 1.02, 1.03 and 1.04 cover [1.01, 1.05] across the
    families.  Orbits that happen to stall on an exact fixed point stop
    early, so their length depends on the draw; those draws are redrawn,
    which keeps the work of a pass the same for every seed.
    """
    ops = []
    for family, centre in zip(K1_FAMILIES, ORBIT_COEFFICIENTS):
        for command in ("solve", "lemmas"):
            while True:
                c = _near(rng, centre)
                x0 = math.exp(rng.uniform(0.0, math.log(1000.0)))
                if orbit_length(c, x0, ORBIT_STEPS) == ORBIT_STEPS:
                    break
            doc = _orbit_doc(family, command, c, x0, rng.randrange(1000))
            ops.append(_op(f"{command}_{family}", doc, [0]))
    return ops


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------


def _ladder(i: int, low: float, high: float) -> float:
    """A fixed value in [low, high] for scenario i, the same for every seed."""
    return low + (high - low) * (i % 13) / 12


def _batch_solve(rng: random.Random, i: int) -> tuple[dict, list[int]]:
    x0 = rng.uniform(1.0, 100.0)
    run = {"command": "solve", "x0": x0, "seed": rng.randrange(1000)}
    kind = i % 5
    if kind == 0:
        doc = {
            "space": {"family": "sqrt_square"},
            "maps": {"t": _linear(9.0), "s": {"kind": "identity"}},
            "hypothesis": {"form": "rl", "r_const": 3.0},
        }
    elif kind == 4:
        a_map = _near(rng, _ladder(i, 2.5, 4.0))
        doc = {
            "space": {"family": "square_diff", "k_const": 2.0},
            "maps": {"t": _linear(a_map), "s": _linear(a_map)},
            "hypothesis": {"form": "phi", "family": "affine", "a": 5.0, "b": 0.0},
        }
    else:
        a = _near(rng, _ladder(i, 2.0, 5.0))
        doc = {
            "space": {"family": K1_FAMILIES[kind - 1]},
            "maps": {"t": _linear(a), "s": _linear(a)},
            "hypothesis": {"form": "rl", "r_const": (1.0 + a) / 2.0},
        }
    doc["run"] = run
    doc["assumptions"] = PHI_ATTESTED if kind == 4 else COMPLETE
    return doc, [0]


def _batch_samples(i: int) -> int:
    """A fixed ladder over 2e3-5e3, so the batch's work does not depend on the seed."""
    return 2000 + 3000 * i // 13


def _batch_audit(rng: random.Random, i: int) -> tuple[dict, list[int]]:
    n = _batch_samples(i)
    kind = i % 5
    if kind == 0:
        return _rl_audit("sqrt_square", _linear(9.0), {"kind": "identity"}, 3.0, n, i), [2]
    if kind == 4:
        return _phi_audit(rng.uniform(2.5, 4.0), n, i), [0]
    a = rng.uniform(2.0, 5.0)
    return _rl_audit(K1_FAMILIES[kind - 1], _linear(a), _linear(a), (1.0 + a) / 2.0, n, i), [0]


def _batch_axioms(rng: random.Random, i: int) -> tuple[dict, list[int]]:
    n = _batch_samples(i)
    kind = i % 7
    if kind == 6:
        # (x - y)^2 is no metric: with K = 1 the relaxed triangle fails.
        return _axioms("square_diff", n, i, k_const=1.0), [2]
    return _axioms(AXIOM_FAMILIES[kind], n, i), [0]


def _batch_lemmas(rng: random.Random, i: int) -> tuple[dict, list[int]]:
    doc = {
        "space": {"family": "sqrt_square"},
        "maps": {"t": _linear(9.0), "s": {"kind": "identity"}},
        "run": {"command": "lemmas", "x0": rng.uniform(10.0, 100.0), "seed": i},
        "assumptions": COMPLETE,
    }
    return doc, [0]


def _batch_table(rng: random.Random, i: int) -> tuple[dict, list[int]]:
    """Points on a line as a finite metric; permutation maps for audits.

    On a finite carrier the audit sums d(Tx, Sy) over all pairs, which
    equals the sum of d(x, y), so R > 1 always leaves a violation.
    """
    n = rng.choice((3, 4))
    pos = rng.sample(range(1, 50), n)
    labels = list(range(n))
    matrix = [[float(abs(p - q)) for q in pos] for p in pos]
    space = {"family": "table", "labels": labels, "matrix": matrix, "k_const": 1.0, "kind": "b_metric"}
    if i % 2 == 0:
        doc = {"space": space, "run": {"command": "axioms", "seed": i}, "assumptions": COMPLETE}
        return doc, [0]

    def perm() -> dict:
        image = rng.sample(labels, n)
        return {"kind": "permutation", "table": {str(k): v for k, v in zip(labels, image)}}

    doc = {
        "space": space,
        "maps": {"t": perm(), "s": perm()},
        "hypothesis": {"form": "rl", "r_const": 1.5},
        "run": {"command": "audit", "seed": i},
        "assumptions": COMPLETE,
    }
    return doc, [2]


def _malformed(rng: random.Random, i: int) -> dict:
    kind = i % 4
    if kind == 0:
        return _op(f"malformed_{i}", None, [1], text='{"space": {"family": "abs_metric"},\n')
    if kind == 1:
        doc = {"space": {"family": "hyperbolic"}, "run": {"command": "axioms"}}
    elif kind == 2:
        a = rng.uniform(2.0, 5.0)
        doc = {
            "space": {"family": "abs_metric"},
            "maps": {"t": _linear(a), "s": _linear(a)},
            "hypothesis": {"form": "rl", "r_const": 1.5},
            "run": {"command": "solve"},
            "assumptions": COMPLETE,
        }
    else:
        doc = _rl_audit("sqrt_square", _linear(9.0), {"kind": "identity"}, 1.5, 1000, i)
    return _op(f"malformed_{i}", doc, [1])


BATCH_MIX = (
    ("solve", _batch_solve, 14),
    ("audit", _batch_audit, 14),
    ("axioms", _batch_axioms, 14),
    ("lemmas", _batch_lemmas, 8),
    ("table", _batch_table, 10),
)
BATCH_MALFORMED = 4


def batch_ops(rng: random.Random) -> list[dict]:
    ops = []
    for label, make, count in BATCH_MIX:
        for i in range(count):
            doc, expect = make(rng, i)
            ops.append(_op(f"{label}_{i}", doc, expect))
    ops.extend(_malformed(rng, i) for i in range(BATCH_MALFORMED))
    # The batch runs files in name order.  One fixed order for every seed
    # keeps the pool's completion order, and so the latency percentiles,
    # from changing with the seed.
    random.Random("cli_batch order").shuffle(ops)
    return ops


_MAKERS = {
    "oracle_sweep": oracle_ops,
    "sampled_checks": sampled_ops,
    "long_orbit": orbit_ops,
    "cli_batch": batch_ops,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's operations, each with a unique file name."""
    ops = _MAKERS[workload](random.Random(f"{workload}:{seed}"))
    for index, op in enumerate(ops):
        op["file"] = f"{index:02d}_{op['name']}.json"
    return ops


def write_inputs(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the scenario files under out/scenarios and out/manifest.json."""
    ops = generate(workload, seed)
    scen_dir = out / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        (scen_dir / op["file"]).write_text(op["text"])
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = write_inputs(args.workload, args.seed, args.out)
    print(f"{len(ops)} scenario files in {args.out / 'scenarios'}")


if __name__ == "__main__":
    main()
