"""Seeded input generators: the same seed gives the same bytes.

Set-up writes every input under ``bench/out/data/<name>_s<seed>_<hash>/``,
where the hash covers the generator's arguments, so two commits compared on
one seed read identical files and a changed generator never reuses a stale
directory.  The program under test only ever sees these files (CSV
directories it loads itself, an edge list it builds a graph from).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path
from typing import Any, Callable

from bench.common import DATA, Samples, Speed, timed

DUP_QUERY = "Nodes(ID, Name) :- Entity(ID, Name).\nEdges(ID1, ID2) :- R(ID1, P), R(ID2, P).\n"

#: how often set-up is repeated in one run; ``setup_s`` is the median
SETUP_REPEATS = 9


def read_query(directory: Path) -> str:
    """The extraction query set-up wrote beside the CSV files."""
    return (directory / "query.dl").read_text(encoding="utf-8")


def _sized(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def dup_args(scale: float) -> dict[str, int]:
    """``extract_dup``: ``pairs`` distinct (id, p) rows over ``keys`` join
    keys (three per key), each written ``copies`` times — the duplicated
    co-occurrence shape whose condensed graph stays below twice its CSR size."""
    return {
        "entities": _sized(10_000, scale, 300),
        "pairs": _sized(21_000, scale, 900),
        "keys": _sized(7_000, scale, 300),
        "copies": 5,
        "change_batches": 12,
        "change_rows": 200,
    }


DBLP_AUTHORS = 650


def dblp_args(scale: float, authors: int = DBLP_AUTHORS) -> dict[str, int]:
    """DBLP-shaped tables: 1.8 publications per author, five authors each.

    Five, not the generator's usual four: the planner condenses the
    co-author join when ``|AuthorPub| / publications > 4``, so a mean of 4.0
    sits on that threshold and the seed alone decides between a condensed
    graph (virtual nodes, DEDUP-1 has work to do) and an expanded one."""
    authors = _sized(authors, scale, 60)
    return {"authors": authors, "publications": int(authors * 1.8), "authors_per_publication": 5}


def ring_args(scale: float, vertices: int = 40_000) -> dict[str, int]:
    """fig20's ring with short chords, plus the seeded mutation schedule."""
    return {
        "vertices": _sized(vertices, scale, 1_000),
        "small": 40,
        "small_adds": 8,
        "removal": 10,
        "bulk": 5,
        "bulk_divisor": 60,
    }


# --------------------------------------------------------------------------- #
def write_dup(directory: Path, seed: int, args: dict[str, int]) -> None:
    rng = random.Random(seed)
    entities, keys = args["entities"], args["keys"]
    seen: set[tuple[int, int]] = set()
    while len(seen) < args["pairs"]:
        seen.add((rng.randrange(entities), rng.randrange(keys)))
    rows = sorted(seen) * args["copies"]
    rng.shuffle(rows)
    (directory / "Entity.csv").write_text(
        "id,name\n" + "".join(f"{i},e{i}\n" for i in range(entities)), encoding="utf-8"
    )
    (directory / "R.csv").write_text(
        "id,p\n" + "".join(f"{a},{b}\n" for a, b in rows), encoding="utf-8"
    )
    (directory / "query.dl").write_text(DUP_QUERY, encoding="utf-8")
    # rows a later "the table changed" step inserts: new pairs, in batches
    batches = []
    for _ in range(args["change_batches"]):
        batch: list[tuple[int, int]] = []
        while len(batch) < args["change_rows"]:
            pair = (rng.randrange(entities), rng.randrange(keys))
            if pair not in seen:
                seen.add(pair)
                batch.append(pair)
        batches.append(batch)
    (directory / "change.json").write_text(json.dumps(batches), encoding="utf-8")


def write_dblp(directory: Path, seed: int, args: dict[str, int]) -> None:
    from repro.datasets import COAUTHOR_QUERY, generate_dblp
    from repro.relational.csv_io import write_database

    db = generate_dblp(
        num_authors=args["authors"],
        num_publications=args["publications"],
        mean_authors_per_pub=float(args["authors_per_publication"]),
        seed=seed,
    )
    write_database(db, directory)
    (directory / "query.dl").write_text(COAUTHOR_QUERY, encoding="utf-8")


def write_ring(directory: Path, seed: int, args: dict[str, int]) -> None:
    """``edges.csv`` (each undirected edge once) and ``schedule.json``: the
    mutate cycles, generated against the edge set so every add is new and
    every removal deletes an edge an earlier ``small`` cycle added."""
    rng = random.Random(seed)
    n = args["vertices"]
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        if u == v or pair in edges:
            return False
        edges.add(pair)
        return True

    lines = []
    for i in range(n):
        if add(i, (i + 1) % n):
            lines.append(f"{i},{(i + 1) % n}\n")
        if rng.random() < 0.5:
            j = (i + rng.randrange(2, 9)) % n
            if add(i, j):
                lines.append(f"{i},{j}\n")
    (directory / "edges.csv").write_text("src,dst\n" + "".join(lines), encoding="utf-8")

    # small and removal cycles in seeded order, bulk cycles last: random bulk
    # edges turn the ring into a small world on which no local repair stays
    # local, so the cheap cycles are measured before them whatever the seed
    kinds = ["small"] * args["small"] + ["removal"] * args["removal"]
    rng.shuffle(kinds)
    first_small = kinds.index("small")
    kinds[0], kinds[first_small] = kinds[first_small], kinds[0]
    kinds += ["bulk"] * args["bulk"]
    bulk_adds = max(8, len(edges) // args["bulk_divisor"])
    removable: list[tuple[int, int]] = []
    schedule = []
    for kind in kinds:
        if kind == "removal":
            u, v = removable.pop(rng.randrange(len(removable)))
            edges.discard((u, v) if u < v else (v, u))
            schedule.append({"kind": kind, "remove": [[u, v]]})
            continue
        adds: list[list[int]] = []
        if kind == "small":
            base = rng.randrange(n)
            while len(adds) < args["small_adds"]:
                u = (base + rng.randrange(120)) % n
                v = (u + rng.randrange(10, 40)) % n
                if add(u, v):
                    adds.append([u, v])
            removable.extend((u, v) for u, v in adds)
        else:
            while len(adds) < bulk_adds:
                u, v = rng.randrange(n), rng.randrange(n)
                if add(u, v):
                    adds.append([u, v])
        schedule.append({"kind": kind, "add": adds})
    (directory / "schedule.json").write_text(json.dumps(schedule), encoding="utf-8")


# --------------------------------------------------------------------------- #
def build(
    name: str,
    writer: Callable[[Path, int, dict[str, int]], None],
    seed: int,
    args: dict[str, Any],
    repeats: int = SETUP_REPEATS,
) -> tuple[Path, dict[str, Any]]:
    """Generate ``name``'s inputs ``repeats`` times (timed), keep the last.

    Every generation is complete and independent, so the centre of the
    timings is one set-up's cost — returned as the ``setup_s`` metric; the
    kept directory's bytes depend only on ``(seed, args)``.
    """
    digest = hashlib.sha256(json.dumps(args, sort_keys=True).encode("utf-8")).hexdigest()[:8]
    final = DATA / f"{name}_s{seed}_{digest}"
    staging = DATA / f"{final.name}.new"
    speed, samples = Speed(), Samples()
    for _ in range(max(1, repeats)):
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        timed(speed, samples, writer, staging, seed, args)
    shutil.rmtree(final, ignore_errors=True)
    staging.rename(final)
    return final, samples.metric("s")
