"""Seeded workload inputs.

Every input the program sees is a pure function of the benchmark seed
and, where a run repeats its job, of the repetition index: the order
the ``report`` workload runs experiments in, the window of the design
space the ``grid`` workload fills, and the request stream the ``serve``
workload sends.  ``random.Random`` seeded with a string hashes it with
SHA-512, so the draws do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

#: Window shape of the ``grid`` workload: nodes x L ratios x leakage
#: targets x supplies, the shape of ``GridSpec.quick()`` (440 points).
GRID_WINDOW_SHAPE: tuple[int, int, int, int] = (2, 11, 4, 5)

#: Request kinds of the ``serve`` stream, by the tier meant to answer.
SURROGATE_KINDS: tuple[str, ...] = ("metrics", "metrics", "snm_vmin_tt")
EXACT_KINDS: tuple[str, ...] = ("metrics_offhull", "metrics_offhull",
                                "snm_vmin_ff", "snm_vmin_ss")

#: One request in this many is meant for the exact tier.
EXACT_EVERY = 10

#: Arrival ``i`` is due at ``(i + 0.5 + u) / rate`` with ``u`` uniform in
#: +-this share of the interval: a fixed offered rate whose seeded
#: jitter never reorders requests.
ARRIVAL_JITTER = 0.4

#: Upper end of the off-hull supply range [V]; inside the exact tier's
#: validated domain (0.10-0.70 V) and above every quick-grid supply.
OFFHULL_VDD_MAX_V = 0.45


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(["perfbench", str(seed)]
                                  + [str(s) for s in salt]))


def experiment_order(ids, seed: int, rep: int = 0) -> list[str]:
    """A seeded permutation of the experiment ids."""
    order = sorted(ids)
    _rng(seed, "report", rep).shuffle(order)
    return order


def grid_window(axes: dict, seed: int, rep: int = 0,
                shape: tuple[int, int, int, int] = GRID_WINDOW_SHAPE
                ) -> dict:
    """A seeded sub-block of a grid's axes.

    ``axes`` is a ``GridSpec.to_meta()`` record.  The window takes
    ``shape[0]`` of its nodes (in axis order) and a contiguous run of
    ``shape[1..3]`` points from each numeric axis, so every point is a
    point of the full grid.  Returns a record of the same form.
    """
    rng = _rng(seed, "grid", rep)
    names = ("nodes", "l_ratios", "log10_ioff", "vdd_v")
    for name, size in zip(names, shape):
        if size > len(axes[name]):
            raise ValueError(f"window wants {size} {name}, axis has "
                             f"{len(axes[name])}")
    picked = sorted(rng.sample(range(len(axes["nodes"])), shape[0]))
    window = {"nodes": [axes["nodes"][i] for i in picked]}
    for name, size in zip(names[1:], shape[1:]):
        start = rng.randrange(len(axes[name]) - size + 1)
        window[name] = list(axes[name][start:start + size])
    return window


def grid_sample_cells(shape, seed: int, rep: int, count: int
                      ) -> list[tuple[int, int, int, int]]:
    """``count`` distinct seeded cell indices of a ``shape`` grid."""
    rng = _rng(seed, "grid-cells", rep)
    cells: set[tuple[int, int, int, int]] = set()
    while len(cells) < count:
        cells.add(tuple(rng.randrange(n) for n in shape))
    return sorted(cells)


def _balanced_kinds(rng: random.Random, pattern: tuple[str, ...],
                    count: int) -> list[str]:
    """``count`` kinds in exact ``pattern`` proportions, block-shuffled."""
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(pattern)
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def _request(rng: random.Random, kind: str, hull: dict,
             node_lengths_nm: dict) -> dict:
    node = rng.choice(hull["nodes"])
    l_ratio = rng.uniform(hull["l_ratios"][0], hull["l_ratios"][-1])
    log10_ioff = rng.uniform(hull["log10_ioff"][0], hull["log10_ioff"][-1])
    if kind == "metrics_offhull":
        vdd_v = rng.uniform(hull["vdd_v"][-1] + 0.02, OFFHULL_VDD_MAX_V)
    else:
        vdd_v = rng.uniform(hull["vdd_v"][0], hull["vdd_v"][-1])
    request = {
        "query": "snm_vmin" if kind.startswith("snm_vmin") else "metrics",
        "node": node,
        "l_poly_nm": l_ratio * node_lengths_nm[node],
        "ioff_target_a_per_um": 10.0 ** log10_ioff,
        "vdd_v": vdd_v,
    }
    if kind.startswith("snm_vmin"):
        request["corner"] = kind.rsplit("_", 1)[1]
    return request


def query_stream(seed: int, hull: dict, node_lengths_nm: dict,
                 rate_per_s: float, duration_s: float
                 ) -> list[tuple[float, str, dict]]:
    """The seeded open-loop request stream of the ``serve`` workload.

    Returns ``(due_s, kind, request)`` triples, ``due_s`` measured from
    the start of the session.  There are ``round(rate_per_s *
    duration_s)`` arrivals at a fixed rate with seeded jitter
    (:data:`ARRIVAL_JITTER`); Poisson arrivals would let the clustering
    of a few slow requests swing a run's latencies by tens of percent
    from seed to seed.  Exactly one request in each block of
    :data:`EXACT_EVERY` is meant for the exact tier (a ``metrics`` query
    above the grid's supply axis, or a shifted-corner ``snm_vmin``); the
    rest lie inside the grid's hull (``hull`` is its
    ``GridSpec.to_meta()`` record), where the surrogate answers.  Kinds
    within each tier come in fixed proportions, so the tier mix does
    not vary with the seed.
    """
    rng = _rng(seed, "serve")
    count = round(rate_per_s * duration_s)
    n_exact = count // EXACT_EVERY
    exact_slots = {block * EXACT_EVERY + rng.randrange(EXACT_EVERY)
                   for block in range(n_exact)}
    exact_kinds = iter(_balanced_kinds(rng, EXACT_KINDS, n_exact))
    cheap_kinds = iter(_balanced_kinds(rng, SURROGATE_KINDS,
                                       count - n_exact))
    stream = []
    for i in range(count):
        jitter = rng.uniform(-ARRIVAL_JITTER, ARRIVAL_JITTER)
        due_s = (i + 0.5 + jitter) / rate_per_s
        kind = next(exact_kinds) if i in exact_slots else next(cheap_kinds)
        request = _request(rng, kind, hull, node_lengths_nm)
        request["id"] = f"q{i}"
        stream.append((due_s, kind, request))
    return stream


def warmup_requests(seed: int, hull: dict, node_lengths_nm: dict
                    ) -> list[dict]:
    """One request of every kind, sent before timing starts."""
    rng = _rng(seed, "serve-warmup")
    return [dict(_request(rng, kind, hull, node_lengths_nm),
                 id=f"warmup-{kind}")
            for kind in dict.fromkeys(SURROGATE_KINDS + EXACT_KINDS)]


def sample_indices(count: int, seed: int, salt: str, k: int) -> list[int]:
    """``k`` distinct seeded indices below ``count`` (all if fewer)."""
    rng = _rng(seed, salt)
    return sorted(rng.sample(range(count), min(k, count)))
