"""Assemble EXPERIMENTS.md from commentary plus the measured tables.

Run after a full benchmark pass (``pytest benchmarks/ --benchmark-only``)
so that ``results/<experiment>.txt`` holds fresh tables::

    python tools/build_experiments_md.py
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "results")
TARGET = os.path.join(ROOT, "EXPERIMENTS.md")


def parallel_reading() -> str:
    """What the checked-in ``BENCH_parallel.json`` measured, in words."""
    with open(os.path.join(ROOT, "BENCH_parallel.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    config = bench["config"]
    speedups = ", ".join(
        f"{entry['process']['speedup_vs_sequential']:.2f}× on {query}"
        for query, entry in bench["queries"].items()
    )
    return (
        f"on the {bench['host']['usable_cores']}-core host of the checked-in\n"
        f"`BENCH_parallel.json`, {config['partitions']} partitions of "
        f"{config['bytes_per_partition'] >> 20} MiB read\n"
        f"{speedups} over sequential"
    )


def scan_reading() -> str:
    """What the checked-in ``BENCH_scan.json`` measured, in words."""
    with open(os.path.join(ROOT, "BENCH_scan.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    config = bench["config"]
    ratios = "; ".join(
        f"`{projection}` {entry['modes']['ondemand']['speedup_vs_reference']:.2f}x"
        for projection, entry in bench["projections"].items()
    )
    return (
        f"over {config['partitions']} partitions of "
        f"{config['bytes_per_partition'] >> 20} MiB the on-demand scan reads "
        f"items at this multiple of the reference's rate "
        f"(`speedup_vs_reference`): {ratios}"
    )


HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's Section 5, regenerated by
`benchmarks/` (same drivers as `python -m repro.bench`).  The paper ran
up to nine 4-core/8GB nodes on up to 803 GB of NOAA data; we run
MB-scale synthetic data (same schema and knobs, sizes scaled down by
roughly 10^3-10^5) on one process, with per-partition work executed and
timed for real and cluster makespans composed by the `ClusterSpec`
placement model (see DESIGN.md).  The reproduction target is the
**shape** of each result: who wins, by roughly what factor, where the
crossovers fall.

**On magnitudes.** Two systematic differences against the paper recur
below and are called out per experiment:

1. *The pipelining rules' runtime factor.*  The paper's ~100x (Figure
   14) comes from the JVM/Hyracks cost of buffering and copying whole
   documents through fixed-size frames under an 8 GB heap.  As in the
   paper, both plans decode with one JSON parser here (the un-rewritten
   plan's `read_collection` is the DATASCAN scanner over the empty
   path), so the time columns price only what the rules change.  Our
   Python runtime shares references instead of copying bytes, so at MB
   scale the naive plans' wall-time penalty compresses to a small
   constant factor (about 1-3x on the selections and the grouped
   queries) — but the *mechanism* reproduces exactly: the memory
   columns show the naive plans materializing the whole collection
   (and Q2, whose unpruned join-build tuples really are copied, slows
   by two orders of magnitude) while the rewritten plans hold no
   materialized state at all.
2. *Scan-strategy convergence on tiny documents.*  Our tokenizer
   dominates both "materialize the document" (AsterixDB-style) and
   "project the path" (VXQuery-style) scans, so engine gaps that the
   paper attributes to per-document materialization shrink toward
   parity at one-measurement documents.  Where that flattens a paper
   gap, the benchmark asserts parity-with-scaling rather than a win.

Each experiment's measured table below is written by the benchmark run
(`results/<id>.txt`); regenerate this file with
`python tools/build_experiments_md.py`.
"""

# Per-experiment commentary: (title suffix, paper shape, verdict notes).
COMMENTARY = {
    "fig13": (
        "Path Expression Rules (Figure 13)",
        "a clear improvement for all five queries on a 400 MB "
        "collection (the rules merge the two-step keys-or-members pair "
        "and drop coercions).",
        "the plans lose the redundant ASSIGN/UNNEST pair (see "
        "the plan tests), but with Python's reference-sharing the "
        "two-step materialization costs little at this scale, so times "
        "move within noise (both columns decode with the DATASCAN "
        "scanner over the empty path; the selections take ~0.02-0.05 s "
        "here).  Asserted: no regression.",
    ),
    "fig14": (
        "Pipelining Rules (Figure 14)",
        "the drastic one — roughly two orders of magnitude on "
        "every query (log-scale figure), because DATASCAN stops the "
        "whole collection/file from being buffered.",
        "both columns decode with the same scanner, as in the "
        "paper, so the times price the rules alone.  Q2 speeds up by two "
        "orders of magnitude (~150-210x over three runs; each tuple of "
        "its naive join binds the whole collection sequence, which the "
        "tuples share rather than copy: the memory model charges those "
        "bytes per tuple, as Hyracks frames of serialized tuples would "
        "hold them, and most of the naive time is the engine re-measuring "
        "that one shared sequence for every tuple it charges, see ROADMAP "
        "item 5); "
        "the selections speed up ~1.5-2.7x and the grouped queries "
        "~1-1.5x, while their materialized memory drops from the whole "
        "collection (~2.6 MB here) to zero — the paper's mechanism, "
        "visible in the memory columns (see 'On magnitudes' above).",
    ),
    "fig15": (
        "Group-by Rules (Figure 15)",
        "Q1/Q1b improve (count computed while groups form), "
        "Q0/Q0b/Q2 untouched.",
        "same pattern — the grouped queries stop "
        "materializing per-group sequences entirely (memory column "
        "drops to zero) and their times improve; the others are "
        "unchanged within noise.",
    ),
    "fig16": (
        "Q1 vs data size (Figure 16)",
        "both series scale ~linearly from 100 MB to 400 MB with "
        "a large constant gap (log scale).",
        "both series scale ~linearly with size; the naive "
        "series also grows linearly in memory while the rewritten one "
        "stays flat.  With both plans on one decoder the time gap is "
        "~1.2-1.8x rather than the paper's large constant (see 'On "
        "magnitudes' above); the memory gap is the paper's.",
    ),
    "fig17": (
        "Single-node speed-up (Figure 17)",
        "near-linear speed-up to 4 partitions (one per core), "
        "then no further gain — sometimes a slight loss — at 8 "
        "hyperthreaded partitions, because JSON parsing is CPU-bound.",
        "the same curve — ~2x at 2 partitions, ~3.5-4x at 4, "
        "plateau at 8 (the ClusterSpec models hyperthreads as adding no "
        "CPU capacity, with a small oversubscription fee).",
    ),
    "fig18a": (
        "Query time vs measurements/array (Figure 18a)",
        "VXQuery flat across document sizes; MongoDB best at 30 "
        "measurements/array and degrading to ~20000 s at 1; AsterixDB "
        "best at 1; AsterixDB(load) ahead of AsterixDB(external).",
        "VXQuery flat; AsterixDB(load) consistently beats "
        "external (binary ADM decode vs JSON re-parse). Divergences: "
        "our MongoDB's per-document overhead is milder so its curve "
        "stays flat rather than degrading, and our binary decoder is "
        "faster than our JSON tokenizer, which keeps the load-mode "
        "engines competitive with VXQuery at this scale (in the paper "
        "VXQuery leads).",
    ),
    "fig18b": (
        "Space vs measurements/array (Figure 18b)",
        "MongoDB's compressed store grows ~4.5x as documents "
        "shrink from 30 to 1 measurements; VXQuery/AsterixDB flat.",
        "fully reproduced — compression collapses at one "
        "measurement per document (~7x growth here); the raw and ADM "
        "representations are structure-independent.",
    ),
    "table1": (
        "Loading time, MongoDB vs AsterixDB(load) (Table 1)",
        "MongoDB 9000→19876 s as documents shrink; AsterixDB "
        "~24600 s, structure-insensitive; VXQuery loads nothing.",
        "both pay a real load phase at every document size "
        "(VXQuery none), 0.02-0.06 s here.  AsterixDB(load)'s "
        "conversion is structure-insensitive; MongoDB's load, whose "
        "decode is the engine's own scanner, is ~2x dearer at one "
        "measurement per document than at 30, where per-document "
        "compression is most of its work — the paper's rising curve, "
        "far milder (zlib setup per document is cheap).",
    ),
    "fig19": (
        "SparkSQL vs VXQuery, Q1 (Figure 19)",
        "Spark's query-only time wins at 400 MB, ties at "
        "800 MB, loses at 1 GB; counting its load, VXQuery always wins.",
        "same story — query+load is always slower than "
        "VXQuery's total, and the gap widens with size (the load "
        "decodes with the engine's own scanner, so it is ~2x VXQuery's "
        "total here, not the paper's order of magnitude).",
    ),
    "table2": (
        "SparkSQL loading time (Table 2)",
        "6.3 s / 15 s / 40 s for 400 MB / 800 MB / 1 GB.",
        "loading grows with input size (~0.04-0.13 s for "
        "0.4-1 MB, decoding with the engine's own scanner); the "
        "superlinear top end does not show at this scale, where runs "
        "differ by tens of percent.",
    ),
    "table3": (
        "Memory (Table 3)",
        "Spark holds 5.6-8 GB for 400 MB-1 GB inputs (and cannot "
        "load >2 GB on a 16 GB node); VXQuery holds a flat ~1.7 GB.",
        "the SQL engine holds a large multiple of the input "
        "and grows with it; VXQuery's materialized state stays flat and "
        "tiny.  The companion bench asserts that loading past the "
        "memory budget fails outright, as Spark did.",
    ),
    "fig20": (
        "Cluster speed-up (Figure 20)",
        "speed-up proportional to nodes for all five queries on "
        "803 GB; Q2 the slowest throughout.",
        "every query speeds up several-fold to 9 nodes and "
        "Q2 stays the most expensive.  The grouped queries keep a small "
        "serial coordinator-combine tail that flattens their curve "
        "earlier than the paper's (at GB scale it would be negligible).",
    ),
    "fig21": (
        "Cluster scale-up (Figure 21)",
        "execution time roughly constant as nodes and data grow "
        "together (88 GB per node).",
        "roughly flat curves for all queries.",
    ),
    "fig22": (
        "VXQuery vs AsterixDB speed-up (Figure 22)",
        "both speed up; VXQuery severalfold faster — the gap is "
        "the missing pipelining rules.",
        "both speed up (they share the runtime); VXQuery "
        "leads the join query Q2; on Q0b the two scan strategies "
        "converge at one-measurement documents in our substrate (see "
        "'On magnitudes' above).",
    ),
    "fig23": (
        "VXQuery vs AsterixDB scale-up (Figure 23)",
        "both roughly flat, VXQuery ahead.",
        "both flat and comparable; same divergence note as "
        "Figure 22.",
    ),
    "fig24": (
        "VXQuery vs MongoDB speed-up (Figure 24)",
        "MongoDB faster on the selection Q0b (compressed store, "
        "load excluded); VXQuery faster on the join Q2, where MongoDB "
        "needs the unwind/project workaround (its naive join exceeds "
        "the 16 MB document limit and fails — reproduced in the unit "
        "tests).",
        "Q0b comparable with MongoDB often ahead, as in the "
        "paper.  On Q2 our MongoDB's binary scan keeps it competitive "
        "at MB scale — its central-join bottleneck needs GB-scale "
        "joins to dominate; divergence documented, both systems' "
        "scaling asserted.",
    ),
    "fig25": (
        "VXQuery vs MongoDB scale-up (Figure 25)",
        "VXQuery flat; MongoDB flat on Q0b, worse on Q2.",
        "VXQuery flat on both; Q0b comparable between "
        "systems; same Q2 divergence note as Figure 24.",
    ),
    "table4": (
        "MongoDB loading time (Table 4)",
        "9000 s for 88 GB, 81000 s for 803 GB per node — a huge "
        "overhead VXQuery never pays.",
        "loading the ~9x dataset takes ~9x longer; the "
        "companion figures exclude this cost, as the paper's do.",
    ),
    "ablation_projection_depth": (
        "Ablation: projection path depth (Q0 vs Q0b)",
        "Paper (Section 5.3): 'the smaller the argument given to "
        "DATASCAN, the better for exploiting pipelining' — Q0b is its "
        "best case.",
        "Q0b's scan forwards ~9x fewer item bytes than Q0's and "
        "the query runs in 0.60-0.97x Q0's time (five runs on a busy "
        "shared host; the bench bounds it at 1.35x): each member of "
        "`root` is decoded in one C call and its rows are navigated in "
        "Python, so the deeper projection costs no key walk per row.",
    ),
    "ablation_two_step_aggregation": (
        "Ablation: two-step aggregation",
        "Paper (Section 4.3): partitions aggregate locally and a "
        "central node combines.",
        "disabling the rule ships raw tuples to the "
        "coordinator — the exchange volume explodes for the grouped "
        "query (Q2's exchange is dominated by the join "
        "hash-partitioning either way).",
    ),
    "ablation_group_cardinality": (
        "Ablation: group cardinality",
        "Paper (Section 4.3): 'the larger the groups, the better the "
        "observed improvement'.",
        "the group-by rules help more when groups are larger "
        "(fewer stations → bigger groups).",
    ),
    "ablation_frame_size": (
        "Ablation: frame size",
        "Hyracks moves tuples in fixed-size frames (Section 3.1); the "
        "pipelining rules matter because tuples must fit.",
        "frame counts scale inversely with frame size for "
        "the same tuple stream; oversized tuples take the big-object "
        "path (unit-tested).",
    ),
}


# Prose that follows an experiment's table (keyed by experiment id).
POSTSCRIPTS = {
    "fig14": """\
*Scan fast path & segment cache.*  The projecting scanner itself now
has two gears past parse-then-navigate (`tools/bench.py --scan`,
`BENCH_scan.json`, keyed by projection; the tool computes that
baseline itself, as the `reference` row, since no scan mode stands
behind it).  The default `ondemand` mode walks the projection path's
head in the text, one anchored regex per object key, hopping every
non-matching value with the skipper's quote-aware bracket hop, up to
the path's first `()` array.  Each member of that array is a record:
one call of the standard library's C scanner (`scan_once`) decodes it,
and the rest of the path is navigated over the built value in Python.
A record the decoder refuses (a repeated key while counting, a `NaN`,
a region only the skipper's leniency accepts) is walked key by key,
and anything irregular at a walked level discards the top-level
value's staged items and counters and re-projects it with the `text`
skipper, which stays the authority on errors, offsets and partial
counts.  The reference decodes each whole file with one call of the
same C decoder and navigates it in Python; {scan_reading}.  What the
projection saves is memory: the reference materializes every value of
every file, the on-demand scan one record at a time.  Orthogonally, a
*segment cache* (`segment_cache_dir=` / `REPRO_SEGMENT_CACHE`) shreds
each file's projected output into binary columnar segment files keyed
by content fingerprint + projection + malformed-input policy: a warm
rerun decodes `array('d')`-packed and newline-joined columns (the
`RSEG2` format: no `pickle`, so nothing read from the cache directory
is executed) and replays the original scan's counters, skip events and
per-row sizes without touching JSON at all or measuring a cached row
again — the `cache_warm` column lands an order of magnitude under
`cache_cold`.
Both gears are proven byte-identical to the skipper (items, counters,
errors, degradation events) by the differential matrix below.
""",
    "fig17": """\
**Real parallelism vs the simulated makespan.** The figure above
composes a makespan from partition times measured one after another by
the `sequential` backend (smoothed to their mean, since symmetric
partitions differ only by scheduler jitter).  The `process` backend
(`tools/bench.py`, `BENCH_parallel.json`) runs the same partitions on
real cores instead: its measured `parallel_wall_seconds` is the
physical analogue of the Figure 17 makespan at "partitions = cores".
The two views are complementary — the simulation extrapolates one
host's measurements to the paper's 4-core/8-HT placement, while the
real backend validates the premise on whatever cores exist
({parallel_reading}).
For the `process` backend, `QueryResult.simulated_seconds` therefore
skips smoothing: measured contention is real skew a placement should
see, not jitter.
""",
    "fig18b": """\
*Bounded-memory runs.*  The structure-independence on the VXQuery side
extends to query-time state: the same queries run under a memory
budget (spill-to-disk operators) produce identical answers with peak
memory capped — see the Table 3 note and `BENCH_spill.json`.
""",
    "table3": """\
*Bounded-memory runs.*  The flat-memory claim now has an enforced
counterpart: under `memory_budget_bytes` the blocking operators spill
frame-sized run files to disk instead of growing (external hash
grouping, grace join, external sort), and `tools/bench_spill.py`
re-runs every paper query at 1/8th of its unlimited peak, asserting
byte-identical results and zero leaked run files (CI artifact
`BENCH_spill.json`, with bounded peaks and spill counters per
backend).
""",
}

CORRECTNESS = """\

## Correctness: the differential matrix behind every number above

Every before/after comparison in this file implicitly assumes the
rewritten plan computes the *same answer* as the naive one, and that
every backend computes the same answer as sequential.  That assumption
is tested directly rather than presumed: `tools/diffcheck.py` runs each
of the five paper queries through the full configuration matrix —

- rewrite toggles: all rules on, each family (path / pipelining /
  group-by / two-step aggregation) disabled in turn, all off,
- backends: `sequential`, `process`,
- DATASCAN projection: on, and replaced by parse-everything-then-
  navigate (the definitional semantics),
- scan modes: every projected cell — spill and crash cells included —
  runs under `text` (the raw-text skipper, the fallback authority),
  `ondemand` (the single-pass navigator), and
  `cached-warm` (on-demand through the segment cache, compared on the
  warm execution so items come from segment files), and the three
  runs' items *and* degradation reports must be byte-identical, not
  merely canonically equal,
- forced spill (a tiny memory budget) and injected worker crashes (a
  `FaultPlan` kill schedule forcing the worker-loss recovery path),
  one cell per backend per paper query,
- cost-based planning: every paper query re-runs with the cost phase
  *off* on both backends plus a spill and a crash cell, and every
  generated case gets a rotating cost-off cell — the annotated plans
  (hash joins building on the left) and the un-annotated ones must
  agree with the oracle cell for cell,

and compares every cell's result against an independent plain-Python
oracle (`src/repro/correctness/oracle.py`) that never touches the
algebra.  Seeded random GHCN-shaped documents and queries
(`src/repro/correctness/generator.py`) extend the sweep beyond the
paper's queries to the edges where rewrite bugs hide: missing keys,
null values, duplicate keys inside one object, empty results arrays,
and multi-partition layouts; failures are minimized by a shrinker
before being reported.  One generated template exists purely to pin an
*error*: a self-join keyed on a variable-length `attributes` sequence,
where any multi-item key must raise the comparison's `ItemTypeError`
("value comparison 'eq' over a multi-item sequence") identically on
the naive nested-loop, hash, exchange, and grace/spill paths — the
oracle raises, and every cell must fail the same way.  A structural
plan validator additionally runs after **every rule fire** of every
compile, so a rule that produces a malformed plan fails at compile
time with the rule's name.

```
PYTHONPATH=src python tools/diffcheck.py --seed 0 --budget full
```

writes `BENCH_diffcheck.json` (CI runs the same full budget on every
push and uploads the artifact; the checked-in file is that run); the
acceptance state of this repository is zero mismatches across the
full matrix — 5 160 cells at `--budget full`.  Results compare as
multisets of canonical item forms: group
output order is backend-dependent by design, and two-step aggregation
legitimately differs from document-order summation in the last float
ulp, so the comparison folds floats at 12 significant digits.

*Chaos sweep.*  The crash-injected axis has a dedicated harness:
`tools/chaos.py` sweeps named kill/stall schedules — single and
repeated worker kills (`os._exit` under the process backend), stalled
partitions the coordinator waits for (a slow worker is never
duplicated), a kill combined with a transient partition failure, and a
schedule aggressive enough to force
the process→sequential degradation ladder — across the
paper-shaped query set on both backends, asserting every
disturbed run's result is byte-identical to an undisturbed sequential
baseline (CI artifact `BENCH_chaos.json`, with per-cell crash, pool
rebuild and ladder counters).  `tools/check_determinism.py --chaos`
additionally replays the kill schedules twice under serialized pool
execution and diffs items plus the degradation report byte-for-byte.

Building the harness flushed out (and this sweep fixed, each pinned by
a regression test) three silent semantics bugs: the projecting scanners
emitted **every** occurrence of a duplicated object key where the
parser keeps the last; `fn:number` and the string functions mishandled
empty-sequence arguments (F&O §4.5.1, §5.4.x); and equi-joins treated a
missing join key as joinable instead of `() eq x` being false — the
hash-exchange path would have grouped such tuples into a real bucket.
"""

SERVICE_NOTE = """\

## Beyond one-shot runs: the multi-tenant service soak

Every number above comes from one-shot executions — build a processor,
run one query, tear everything down.  The deployment the paper's
engine actually lives in (a VXQuery cluster controller) fields many
concurrent queries against long-lived state, which is what
`QueryService` reproduces: shared catalogs, a persistent backend pool
(one backend instance per concurrency slot), per-tenant admission
quotas with structured rejections, an LRU plan cache keyed by (query
text, rewrite toggles, statistics fingerprint), and an optional result
cache keyed by plan × content-fingerprinted inputs.

`tools/bench_service.py` soaks it (CI artifact `BENCH_service.json`):
concurrent tenants submit the five paper queries for two rounds per
backend, and the harness asserts three things that tie the service
back to the tables above — every cell's items are **byte-identical**
to a one-shot sequential run (the controller adds scheduling, never
semantics); the second round's plan-cache hits show warm-compile
latency under cold-compile latency; and a deliberately tiny-quota
tenant's flood collects deterministic `AdmissionError` rejections
while admitted queries complete unharmed.

*Service chaos.*  The soak assumes the service's own machinery stays
healthy; `tools/chaos_service.py` (CI artifact
`BENCH_servicechaos.json`) drops that assumption.  It sweeps
service-level disturbances across both backends — an injected
slot death before every query (the supervisor must respawn the slot
and the query must retry on a live one), deaths queued across both
slots of a two-slot service, bit-flipped segment-cache files (CRC32
must detect each corrupt segment and the scan must repair it), and
`ENOSPC` on every cache write (the cache must degrade to cache-off) —
and asserts every disturbed answer is byte-identical to the
undisturbed sequential baseline, with zero abandoned slots and every
restart, retry, and cache event surfaced as a structured record in
`stats()` or the response's degradation report.
"""

COST_NOTE = """\

## Cost-based join planning on sampled statistics

The paper's rewrite rules are purely syntactic — they never consult the
data.  The `repro.stats` layer adds the missing half of a classical
optimizer: registration-time sampling (a bounded positional prefix per
partition, extrapolated by bytes) feeds a cost model that makes one
decision after the rule fixpoint: each hash join builds its table on
the estimated-smaller side.  Every keyed join then takes one route, as
VXQuery's do on Hyracks — both sides hash-exchanged into buckets, each
bucket joined locally — so a tiny side is exchanged like any other, a
join chain runs in the order the query writes it, and a hot key
hashes to one bucket.  The decision is a deterministic function of the
snapshot (whose fingerprint keys the service plan cache), each firing
lands in the rewrite audit next to the syntactic rules, and the
differential matrix above is the proof obligation: cost-on and
cost-off plans must agree with the oracle everywhere, including spill
and crash cells.

`tools/bench_cost.py` (CI artifact `BENCH_cost.json`) runs two
synthetic workloads (a tiny dimension and a hot key) cost on and off
and asserts identical items, and `tests/golden_plans/*__cost.txt` pin
the annotated plan shapes
against a deterministic demo snapshot (for the paper's symmetric
self-joins the cost phase must change *nothing*, which is pinned too).
"""

FOOTER = """\

## Operator-level attribution (a Figure 12-style walkthrough)

The paper's Figure 12 presents the rewritten plan whose operators the
rule families produced; the figures that follow it attribute runtime to
those rules by before/after timing.  The profiling layer makes the same
attribution visible *inside* one run: `tools/profile.py --rewrite none`
vs `--rewrite all` profiles the identical query under the naive and the
fully rewritten plan, and the per-operator counters show *where* the
rules' wins come from, not just that they exist.

```
PYTHONPATH=src python tools/profile.py --rewrite none   # before
PYTHONPATH=src python tools/profile.py --rewrite all    # after
```

Q0 on 2 partitions of 1 MiB each (seed 42), deterministic counter
clock.  Before — no rules.  With no `DATASCAN` there is nothing to
partition: the whole collection is materialized on the coordinator
(`strategy=global, partitions=1`) and the path steps run as an
UNNEST/ASSIGN ladder over materialized documents — 32 documents
unnested into 24 000 readings, every one coerced by the ASSIGN above:

```
== query profile (strategy=global, partitions=1, clock=counter) ==
DISTRIBUTE-RESULT tuples_in=54 tuples_out=54 span=96371
  SELECT tuples_in=24000 tuples_out=54 span=96261
    ASSIGN tuples_in=24000 tuples_out=24000 span=72205
      UNNEST tuples_in=32 tuples_out=24000 span=24203
        ASSIGN tuples_in=32 tuples_out=32 span=169
          ASSIGN tuples_in=32 tuples_out=32 span=103
            UNNEST tuples_in=1 tuples_out=32 span=37
              ASSIGN tuples_in=1 tuples_out=1 span=2
                EMPTY-TUPLE-SOURCE
```

After — all rule families.  `introduce-datascan` +
`merge-path-into-datascan` pushed the whole path into a partitioned
scan (`strategy=pipelined, partitions=2`): the same readings now arrive
projected straight off the text by the on-demand scanner (24 000
projection hits, 800 non-matching sibling values skipped without
materialization; 32 records projected in 3 232 navigator steps, 101 per
record: 51 keys read, 25 members visited, 25 arrays decoded in one C
call each, over 13.2 MB of text) and the ladder above the scan is gone:

```
== query profile (strategy=pipelined, partitions=2, clock=counter) ==
DISTRIBUTE-RESULT tuples_in=54 tuples_out=54 span=96176
  SELECT tuples_in=24000 tuples_out=54 span=96064
    ASSIGN tuples_in=24000 tuples_out=24000 span=72006
      DATASCAN bytes_scanned=13200000 items_scanned=24000 projection_hits=24000 projection_skips=800 tape_records=32 tape_tokens=3232 tuples_out=24000 span=24002
```

The rewrite audit printed under each profile records the causal chain —
each rule's fire count and the net operator delta per firing:

```
rule                               fires  op-delta
merge-keys-or-members-into-unnest      1        -1
introduce-datascan                     1        -2
inline-path-assign-into-unnest         1        -1
merge-path-into-datascan               1        -1
inline-variable-assign                 1        -1
```

The same counters feed `BENCH_profile.json` (CI uploads it as an
artifact), so a rule regression shows up as a counter diff, not a
wall-clock mystery.
"""


def main() -> None:
    sections = [HEADER]
    for experiment, (title, paper, measured) in COMMENTARY.items():
        sections.append(f"\n## {title}\n")
        sections.append(f"**Paper.** {paper}\n")
        sections.append(f"**This reproduction.** {measured}\n")
        table_path = os.path.join(RESULTS, f"{experiment}.txt")
        if os.path.exists(table_path):
            with open(table_path, "r", encoding="utf-8") as handle:
                table = handle.read().rstrip()
            sections.append("```\n" + table + "\n```\n")
        else:
            sections.append(
                "*(run `pytest benchmarks/ --benchmark-only` to produce "
                "the measured table)*\n"
            )
        if experiment in POSTSCRIPTS:
            sections.append(
                POSTSCRIPTS[experiment]
                .replace("{parallel_reading}", parallel_reading())
                .replace("{scan_reading}", scan_reading())
            )
    sections.append(CORRECTNESS)
    sections.append(SERVICE_NOTE)
    sections.append(COST_NOTE)
    sections.append(FOOTER)
    with open(TARGET, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
