"""Seeded query streams for the four benchmark workloads.

Generation is pure Python and never imports ergolab: the program only sees
the generated inputs.  Each generator returns a JSON-serialisable dict

    {"workload": name, "objects": [...], "queries": [...], "files": {...}}

where ``objects`` describe the long-lived system objects a worker builds
during set-up, ``queries`` is the closed-loop stream in the order it is
sent, and ``files`` (cli-batch only) are input files written before the
stream starts.

The cost-relevant parameters of each query (window, interval level,
alphabet size, atom level, ...) are stratified: every round carries the
same multiset of them and the seed chooses the rest (numerators, shifts,
fibre points, images, level sets) and the order.  That keeps the total
work of a stream nearly independent of the seed, so run-to-run spread is
machine noise rather than mix noise.
"""

from __future__ import annotations

import random

WORKLOADS = ("skew-spectrum", "rankone-scan", "cold-mix", "cli-batch")

SKEW_K, SKEW_L = 20, 16
RANKONE_STAGES = 30
# set stage per deep tower: single levels of this stage form the rigidity sets
RANKONE_SYSTEMS = (
    ("chacon", 4),
    ("staircase:3", 4),
    ("staircase:4", 3),
    ("staircase:5", 3),
    ("historical", 4),
)
SUBST_PREFIX = 8192


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _strata(rng: random.Random, values, n: int) -> list:
    """n values cycling through `values`, shuffled: a balanced sample."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


# -- skew-spectrum -----------------------------------------------------------


def skew_spectrum(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(seed)
    max_shift = 2 ** (SKEW_K - 4)
    queries: list[dict] = []
    for w in _strata(rng, [1, 2, 3, 4, 5, 6], _count(12, scale)):
        queries.append({"kind": "skew_spectrum", "obj": 0, "g": "one", "fiber": "chi", "window": w})
    for w in _strata(rng, [4, 8, 12, 16, 24, 32], _count(6, scale)):
        queries.append({"kind": "skew_spectrum", "obj": 0, "g": "first-digit", "fiber": "one",
                        "window": w})
    for i, level in enumerate(_strata(rng, list(range(7)), _count(14, scale))):
        eps = rng.randrange(2)
        queries.append({
            "kind": "skew_correlate", "obj": 0,
            "interval": [rng.randrange(2**level), level],
            "eps": eps, "eps2": eps if i % 2 == 0 else 1 - eps,
            "shift": rng.randint(1, max_shift),
        })
    for level in _strata(rng, list(range(7)), _count(7, scale)):
        k_lo = rng.randint(10, 14)
        queries.append({
            "kind": "skew_rigidity", "obj": 0,
            "interval": [rng.randrange(2**level), level],
            "eps": rng.randrange(2), "k_lo": k_lo, "k_hi": k_lo + 2,
        })
    rng.shuffle(queries)
    return {
        "workload": "skew-spectrum",
        "objects": [{"type": "skew", "K": SKEW_K, "L": SKEW_L}],
        "queries": queries,
    }


# -- rankone-scan ------------------------------------------------------------


def _heights(stages) -> list[int]:
    hs = [1]
    for p, spacers in stages:
        hs.append(p * hs[-1] + sum(spacers))
    return hs


def _preset_stages(name: str, n: int):
    if name == "chacon":
        return [(3, (0, 1, 0))] * n
    if name == "historical":
        return [(2, (0, 1))] * n
    p = int(name.split(":")[1])
    return [(p, tuple(range(p - 1)) + (0,))] * n


def rankone_scan(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(seed)
    objects = [{"type": "rankone", "preset": name, "stages": RANKONE_STAGES, "set_stage": k}
               for name, k in RANKONE_SYSTEMS]
    hs = {name: _heights(_preset_stages(name, RANKONE_STAGES)) for name, _ in RANKONE_SYSTEMS}
    queries: list[dict] = []
    rigid = [i for i, (name, _) in enumerate(RANKONE_SYSTEMS) if name != "historical"]
    for obj, length in _strata(rng, [(o, n) for o in rigid for n in (2, 3, 4, 5)], _count(16, scale)):
        lo = rng.randint(6, 21 - length)
        queries.append({"kind": "rankone_rigidity", "obj": obj, "shift_stages": [lo, lo + length - 1]})
    hist = [i for i, (name, _) in enumerate(RANKONE_SYSTEMS) if name == "historical"][0]
    for j_max, length in _strata(rng, [(j, n) for j in (2, 3, 4, 5) for n in (3, 4, 5)], _count(24, scale)):
        lo = rng.randint(6, 19 - length)
        queries.append({"kind": "rankone_weaklimit", "obj": hist, "stage_range": [lo, lo + length - 1],
                        "j_max": j_max, "margin": 12})
    for obj in _strata(rng, list(range(len(RANKONE_SYSTEMS))), _count(60, scale)):
        name, k = RANKONE_SYSTEMS[obj]
        h = hs[name]
        queries.append({
            "kind": "rankone_correlate", "obj": obj,
            "levels": [rng.randrange(h[k])],
            "shifts": sorted(rng.randrange(1, h[RANKONE_STAGES]) for _ in range(4)),
        })
    rng.shuffle(queries)
    return {"workload": "rankone-scan", "objects": objects, "queries": queries}


# -- cold-mix ----------------------------------------------------------------


def _primitive(k: int, images) -> bool:
    """Some power of the letter-incidence pattern is all-true (Wielandt bound)."""
    succ = [set(w) for w in images]  # j -> letters in image(j)
    reach = [set(s) for s in succ]
    for _ in range(k * k - 2 * k + 2):
        if all(len(r) == k for r in reach):
            return True
        reach = [set().union(*(succ[x] for x in r)) for r in reach]
    return all(len(r) == k for r in reach)


def random_substitution(rng: random.Random, k: int, constant: bool) -> list[list[int]]:
    """A primitive substitution with image(0) starting with 0 (so it has a
    fixed point) and image lengths in 2..4, constant or not."""
    while True:
        if constant:
            lens = [rng.randint(2, 4)] * k
        else:
            lens = [rng.randint(2, 4) for _ in range(k)]
            if len(set(lens)) == 1:
                continue
        images = [[rng.randrange(k) for _ in range(n)] for n in lens]
        images[0][0] = 0
        if _primitive(k, images):
            return images


def fixed_point_prefix(images, length: int) -> list[int]:
    w = [0]
    while len(w) < length:
        w = [s for a in w for s in images[a]]
    return w[:length]


def random_rankone(rng: random.Random) -> list:
    """A schedule of 5..8 stages, p in 2..4, spacers in 0..2, h_N <= 2e5."""
    while True:
        stages = [(p, [rng.randint(0, 2) for _ in range(p)])
                  for p in (rng.randint(2, 4) for _ in range(rng.randint(5, 8)))]
        if _heights(stages)[-1] <= 200_000:
            return stages


def cold_mix(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(seed)
    problems: list[list[dict]] = []
    strata = _strata(rng, [(k, c) for k in range(2, 6) for c in (True, False)], _count(240, scale))
    for k, constant in strata:
        images = random_substitution(rng, k, constant)
        prefix = fixed_point_prefix(images, 64)
        start = rng.randrange(32)
        block = prefix[start:start + rng.randint(1, 3)]
        system = {"alphabet": k, "images": images}
        problems.append([
            {"kind": "subst_analyze", "system": system, "prefix_len": SUBST_PREFIX},
            {"kind": "subst_correlate", "system": system, "block": block,
             "shift": rng.randint(1, 512), "prefix_len": SUBST_PREFIX},
        ])
    for _ in range(_count(300, scale)):
        stages = random_rankone(rng)
        hs = _heights(stages)
        N = len(stages)
        k = rng.randint(1, N - 2)
        levels = sorted(rng.sample(range(hs[k]), min(hs[k], rng.randint(2, 4))))
        problems.append([{
            "kind": "rankone_correlate", "system": {"stages": stages}, "N": N,
            "set_stage": k, "levels": levels,
            "shifts": sorted(rng.randrange(1, hs[N]) for _ in range(3)),
        }])
    for K in _strata(rng, list(range(12, 19)), _count(14, scale)):
        c = rng.randint(1, 3)
        values = [rng.randrange(2) for _ in range(2**c)]
        system = {"K": K, "L": rng.randint(4, K), "cocycle": [c, values]}
        qs = []
        for level in (0, 2, 4):
            eps = rng.randrange(2)
            qs.append({"kind": "skew_correlate", "system": system,
                       "interval": [rng.randrange(2**level), level],
                       "eps": eps, "eps2": rng.randrange(2),
                       "shift": rng.randint(1, 2 ** (K - 4))})
        problems.append(qs)
    rng.shuffle(problems)
    queries = []
    for pid, qs in enumerate(problems):
        for q in qs:
            q["problem"] = pid
            queries.append(q)
    return {"workload": "cold-mix", "objects": [], "queries": queries}


# -- cli-batch ---------------------------------------------------------------


def cli_batch(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(seed)
    k = rng.randint(3, 4)
    images = random_substitution(rng, k, constant=rng.randrange(2) == 0)
    stages = random_rankone(rng)
    geo_support = {str(-j): 0.5 ** (j + 1) for j in range(rng.randint(2, 5))}
    j_edge = -len(geo_support) + 1
    files = {
        "subst.txt": "".join(f"{a} -> {' '.join(map(str, w))}\n" for a, w in enumerate(images)),
        "rankone.txt": "".join(f"{p}: {' '.join(map(str, a))}\n" for p, a in stages),
        "geometric.json": {"support": geo_support,
                           "tail": {"kind": "geometric", "c": geo_support[str(j_edge)], "q": 0.5}},
        # finite support, no left tail: beurling's partial sums reach -inf
        "finite.json": {"support": {str(j): round(rng.uniform(0.1, 0.5), 6)
                                    for j in range(rng.randint(2, 4))},
                        "tail": {"kind": "none"}},
    }
    def menu() -> list[list[str]]:
        return [
            ["subst", "analyze", "--system", rng.choice(["rudin-shapiro", "three-letter"]),
             "--prefix-len", str(rng.choice([1024, 2048, 4096]))],
            ["subst", "analyze", "--system", "@subst.txt", "--prefix-len", "2048"],
            ["subst", "correlate", "--system", rng.choice(["rudin-shapiro", "three-letter", "@subst.txt"]),
             "--block", "0", "--shift", str(rng.randint(1, 256)), "--prefix-len", "4096"],
            ["rankone", "heights", "--system", rng.choice(["chacon", "historical", "staircase:3"]),
             "--stages", str(rng.randint(5, 30))],
            ["rankone", "correlate", "--system", "@rankone.txt", "--stages", str(len(stages)),
             "--set-stage", "1", "--levels", "0", "--shifts", ",".join(
                 str(rng.randrange(1, _heights(stages)[-1])) for _ in range(3))],
            ["rankone", "weaklimit", "--system", "historical", "--stages", "24",
             "--stage-range", f"{(lo := rng.randint(6, 9))}:{lo + 2}", "--j-max", str(rng.randint(2, 4))],
            ["rankone", "rigidity", "--system", rng.choice(["chacon", "staircase:3"]), "--stages", "14",
             "--set-stage", "3", "--shift-stages", f"{(lo := rng.randint(5, 8))}:{lo + 2}"],
            ["skew", "correlate", "--atom-level", "14", "--cutoff", "12",
             "--interval", f"{rng.randrange(4)}/2^2", "--eps", str(rng.randrange(2)),
             "--eps-prime", str(rng.randrange(2)), "--shift", str(rng.randint(1, 1024))],
            ["skew", "spectrum", "--atom-level", "12", "--cutoff", "8",
             "--function", rng.choice(["one:chi", "first-digit:one"]), "--window", str(rng.randint(4, 16))],
            ["skew", "rigidity", "--atom-level", "14", "--cutoff", "12",
             "--interval", f"{rng.randrange(2)}/2^1", "--eps", str(rng.randrange(2)), "--k-range", "6:9"],
            ["spectral", "wiener", "--input", "@spectrum.csv"],
            ["spectral", "rajchman", "--input", "@spectrum.csv"],
            ["spectral", "translate", "--input", "@spectrum.csv", "--times",
             ",".join(str(t) for t in sorted(rng.sample(range(16, 120), 3))), "--j-window", "2"],
            ["spectral", "beurling", "--coeffs", "@geometric.json"],
            ["spectral", "beurling", "--coeffs", "@finite.json"],
            ["spectral", "certify", "--coeffs", rng.choice(["@geometric.json", "@finite.json"])],
        ]

    n = _count(16, scale)
    queries = []
    while len(queries) < n:
        batch = menu()
        rng.shuffle(batch)
        queries.extend({"kind": "cli", "argv": argv} for argv in batch)
    del queries[n:]
    return {"workload": "cli-batch", "objects": [], "queries": queries, "files": files,
            "csv": {"K": 14, "L": 12, "function": "one:chi", "window": 128}}


GENERATORS = {
    "skew-spectrum": skew_spectrum,
    "rankone-scan": rankone_scan,
    "cold-mix": cold_mix,
    "cli-batch": cli_batch,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> dict:
    return GENERATORS[workload](seed, scale)
