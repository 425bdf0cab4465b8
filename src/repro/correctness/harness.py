"""The differential harness: one query, every configuration, one answer.

Runs each query through the full matrix of

- rewrite-rule toggles ({all on, each family off, all off} —
  :data:`repro.algebra.rules.TOGGLE_CONFIGS`),
- execution backends (every name in
  :data:`repro.hyracks.backends.BACKENDS`),
- DATASCAN projection on/off (off replaces the projecting scanners
  with :class:`EagerNavigationSource`: parse everything, then
  navigate — the definitional semantics),
- scan modes (:data:`SCAN_MODE_AXIS`: ``text`` raw-text skipper (the
  fallback authority), ``ondemand`` single-pass navigator,
  ``cached-warm`` on-demand through the segment cache compared on the
  warm execution) — every projected cell runs all three and the items
  *and* degradation reports must be byte-identical, not merely
  canonically equal,
- bounded memory (a :data:`SPILL_BUDGET_BYTES` budget tiny enough to
  force the blocking operators through their spill-to-disk paths),
- injected worker crashes (a :class:`~repro.resilience.faults.FaultPlan`
  kill schedule that forces the worker-loss recovery path, paper
  queries only),
- cost-based planning on/off (cost planning only picks a hash join's
  build side, so the answer must be identical with it disabled; paper
  queries get explicit cost-off cells on every backend plus
  spill/crash variants, generated cases a rotating cost-off cell),

and asserts that every cell's result is canonically equal to an
independent oracle.  The rule toggles are also the axis that pins the
runtime's two gears against each other: only a plan with a DATASCAN has
SELECT / ASSIGN operators sitting on one, so with ``pipelining`` off a
cell runs the tuple gear where the rewritten cells run the frame gear
(:mod:`repro.hyracks.operators`), over documents whose missing keys,
nulls, duplicate keys and arrays make every frame irregular.  The grouped queries' output order is genuinely
nondeterministic across strategies, so results compare as multisets of
canonical item forms (:func:`canonical_result`).

For the five paper queries the oracle is
:mod:`repro.correctness.oracle` over the benchmark generator's dataset;
beyond those, seeded random (query, data) pairs from
:mod:`repro.correctness.generator` carry their own oracle closures.
When a generated pair disagrees, a greedy deterministic shrinker
(:func:`shrink_case`) minimizes the documents to a small repro before
reporting.

Every compile in the harness goes through the default pipeline, so the
plan invariant validator runs after every rule fire of every cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algebra.rules import TOGGLE_CONFIGS, RewriteConfig
from repro.correctness.generator import (
    COLLECTION,
    GeneratedCase,
    generate_cases,
)
from repro.correctness.oracle import oracle_result, reference_documents
from repro.data.catalog import InMemorySource
from repro.data.generator import SensorDataConfig, generate_file_text
from repro.errors import ReproError
from repro.hyracks.backends import BACKENDS
from repro.jsonlib.items import canonical_item
from repro.jsonlib.path import navigate_sequence
from repro.processor import JsonProcessor
from repro.resilience.faults import FaultPlan

BACKEND_NAMES = tuple(BACKENDS)
PROJECTION_MODES = ("projected", "eager")
#: The scan-mode axis: every projected cell runs under all three and
#: must produce byte-identical items and degradation reports.
#: ``cached-warm`` = on-demand scan through the segment cache, compared
#: on the *second* (warm) execution so the result comes from segment
#: files, not JSON.
SCAN_MODE_AXIS = ("text", "ondemand", "cached-warm")

#: memory budget for the forced-spill matrix cells — small enough that
#: the paper datasets overflow every blocking operator, large enough
#: that non-spillable expression materialization still fits
SPILL_BUDGET_BYTES = 4096


# ---------------------------------------------------------------------------
# Result canonicalization
# ---------------------------------------------------------------------------


def _fold_floats(node):
    """Format floats at 12 significant digits inside a canonical form.

    Float addition is not associative: two-step aggregation sums
    per-partition then combines, the oracle sums in document order, and
    the two legitimately differ in the last ulp (Q2's average).  Twelve
    significant digits is far tighter than any real semantics bug and
    far looser than summation-order noise.
    """
    if isinstance(node, float):
        return format(node, ".12g")
    if isinstance(node, tuple):
        return tuple(_fold_floats(child) for child in node)
    return node


def canonical_result(items: list) -> tuple:
    """Order-insensitive canonical form of a result sequence.

    Group-by output order depends on hash-table iteration and partition
    merge order, which differ legitimately across backends; comparing
    sorted canonical reprs makes equality mean "same multiset of
    values" with value-based numeric equality (``1`` vs ``1.0``) and
    last-ulp float tolerance (see :func:`_fold_floats`).
    """
    return tuple(
        sorted(repr(_fold_floats(canonical_item(item))) for item in items)
    )


# ---------------------------------------------------------------------------
# The projection-off data source
# ---------------------------------------------------------------------------


class EagerNavigationSource:
    """DataSource wrapper replacing projected scans with parse+navigate.

    ``scan_collection`` is re-implemented as "materialize every item,
    then navigate the path" — the definitional semantics the projecting
    scanners must be equivalent to.
    Module-level and state-free so it pickles to process workers.
    """

    def __init__(self, inner):
        self._inner = inner

    def scan_collection(self, name, path, partition=None, report=None):
        return navigate_sequence(
            self._inner.read_collection(name, partition, report=report), path
        )

    def read_collection(self, name, partition=None, report=None):
        return self._inner.read_collection(name, partition, report=report)

    def read_document(self, uri):
        return self._inner.read_document(uri)

    def partition_count(self, name):
        return self._inner.partition_count(name)

    def attach_scan_counters(self, counters):
        self._inner.attach_scan_counters(counters)

    def configure_scan(
        self, scan_mode=None, segment_cache_dir=None, fingerprint_mode=None
    ):
        configure = getattr(self._inner, "configure_scan", None)
        if configure is not None:
            configure(
                scan_mode=scan_mode,
                segment_cache_dir=segment_cache_dir,
                fingerprint_mode=fingerprint_mode,
            )


# ---------------------------------------------------------------------------
# Report structures
# ---------------------------------------------------------------------------


@dataclass
class Mismatch:
    """One disagreeing (or erroring) cell of the matrix."""

    case: str
    config: str
    backend: str
    projection: str
    kind: str  # "mismatch" | "error" | "missing-error" | "scan-mode-divergence"
    detail: str
    #: scan mode of the failing run (see :data:`SCAN_MODE_AXIS`)
    scan_mode: str = "ondemand"
    #: True when the cell ran under the forced-spill memory budget
    spill: bool = False
    #: True when the cell ran with an injected worker crash
    crash: bool = False
    #: True when the cell ran with cost-based planning enabled
    cost: bool = True
    #: minimized repro (shrunk partitions + query), when available
    repro_query: str | None = None
    repro_partitions: list | None = None

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "config": self.config,
            "backend": self.backend,
            "projection": self.projection,
            "scan_mode": self.scan_mode,
            "spill": self.spill,
            "crash": self.crash,
            "cost": self.cost,
            "kind": self.kind,
            "detail": self.detail,
            "repro_query": self.repro_query,
            "repro_partitions": self.repro_partitions,
        }


@dataclass
class DiffCheckReport:
    """Outcome of one full differential run."""

    seed: int
    budget: str
    paper_cells: int = 0
    generated_cells: int = 0
    generated_cases: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        return self.paper_cells + self.generated_cells

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "paper_cells": self.paper_cells,
            "generated_cases": self.generated_cases,
            "generated_cells": self.generated_cells,
            "total_cells": self.total_cells,
            "scan_modes": list(SCAN_MODE_AXIS),
            "mismatch_count": len(self.mismatches),
            "ok": self.ok,
            "mismatches": [m.to_dict() for m in self.mismatches],
        }


# ---------------------------------------------------------------------------
# Matrix execution
# ---------------------------------------------------------------------------


class _MatrixRunner:
    """Shares data sources and backend instances across matrix cells
    (the process backend's worker pool is expensive to start)."""

    def __init__(self, max_workers: int = 2):
        import tempfile

        self._backends = {
            name: BACKENDS[name](max_workers=max_workers)
            for name in BACKEND_NAMES
        }
        self._spill_dir = tempfile.mkdtemp(prefix="repro-diffcheck-spill-")
        # Shared across cells: keys include content hash + projection +
        # policy, so reuse across cases is safe (and a pre-warmed key
        # only makes a "cold" populate pass cheaper).
        self._cache_dir = tempfile.mkdtemp(prefix="repro-diffcheck-cache-")

    def close(self) -> None:
        import shutil

        for backend in self._backends.values():
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        shutil.rmtree(self._spill_dir, ignore_errors=True)
        shutil.rmtree(self._cache_dir, ignore_errors=True)

    def run(
        self,
        source,
        query_text: str,
        config: RewriteConfig,
        backend_name: str,
        projection: str,
        scan_mode: str = "ondemand",
        memory_budget: int | None = None,
        fault_plan: FaultPlan | None = None,
        cost: bool = True,
    ):
        """Run one cell; returns the full :class:`QueryResult`.

        ``scan_mode="cached-warm"`` executes twice through the shared
        segment cache and returns the warm result — the one whose items
        came from segment files.
        """
        configure = getattr(source, "configure_scan", None)
        if configure is not None:
            if scan_mode == "cached-warm":
                configure(
                    scan_mode="ondemand", segment_cache_dir=self._cache_dir
                )
            else:
                configure(scan_mode=scan_mode, segment_cache_dir="")
        if projection == "eager":
            source = EagerNavigationSource(source)
        processor = JsonProcessor(
            source=source,
            rewrite=config,
            backend=self._backends[backend_name],
            memory_budget_bytes=memory_budget,
            spill_dir=self._spill_dir,
            fault_plan=fault_plan,
            cost=cost,
        )
        if scan_mode == "cached-warm":
            processor.execute(query_text)  # cold pass populates segments
        return processor.execute(query_text)


def _cells(configs, backends, projections):
    for config_name in configs:
        for backend_name in backends:
            for projection in projections:
                yield config_name, backend_name, projection


@dataclass(frozen=True)
class ExpectedError:
    """An oracle that *raises*: every cell must fail the same way.

    Used by the generated cases whose semantics are a pinned error —
    e.g. a join keyed on a multi-item sequence.  The engine's failure
    may arrive wrapped (partition execution wraps worker errors), so
    matching walks the cause chain.
    """

    type_name: str
    message: str

    def matches(self, error: BaseException) -> bool:
        seen = set()
        node: BaseException | None = error
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            if (
                type(node).__name__ == self.type_name
                or self.message in str(node)
            ):
                return True
            node = node.__cause__ or node.__context__
        return False


def _check_cell(
    runner: _MatrixRunner,
    report: DiffCheckReport,
    source,
    case_name: str,
    query_text: str,
    expected,
    config_name: str,
    backend_name: str,
    projection: str,
    memory_budget: int | None = None,
    fault_plan: FaultPlan | None = None,
    cost: bool = True,
) -> tuple[int, Mismatch | None]:
    """Check one matrix cell; returns ``(runs_executed, mismatch)``.

    Projected cells sweep the full :data:`SCAN_MODE_AXIS`: every scan
    mode must match the oracle, and beyond canonical equality the
    items and the degradation report must be *byte-identical*
    (``repr``-compared) across all three modes — the fast path and the
    segment cache are not allowed to perturb even the output order or
    the failure accounting.  The ``none`` and ``no-pipelining`` plans
    have no DATASCAN, but their ``read_collection`` is the scan mode's
    scanner over the empty path, so their projected cells run the
    un-rewritten decode under all three modes (``cached-warm`` decodes
    cold: ``read_collection`` never reads segments).  Eager-navigation
    cells decode the same way and navigate afterwards, so they run the
    default mode only.

    *expected* is either a :func:`canonical_result` tuple or an
    :class:`ExpectedError` — in the latter case every scan mode must
    raise a failure matching it.
    """
    scan_modes = (
        SCAN_MODE_AXIS if projection == "projected" else ("ondemand",)
    )
    reference_mode = None
    reference_bytes = None
    runs = 0

    def mismatch(kind: str, detail: str, scan_mode: str) -> Mismatch:
        return Mismatch(
            case=case_name,
            config=config_name,
            backend=backend_name,
            projection=projection,
            scan_mode=scan_mode,
            spill=memory_budget is not None,
            crash=fault_plan is not None,
            cost=cost,
            kind=kind,
            detail=detail,
        )

    for scan_mode in scan_modes:
        runs += 1
        try:
            result = runner.run(
                source,
                query_text,
                TOGGLE_CONFIGS[config_name],
                backend_name,
                projection,
                scan_mode=scan_mode,
                memory_budget=memory_budget,
                fault_plan=fault_plan,
                cost=cost,
            )
        except ReproError as error:
            if isinstance(expected, ExpectedError):
                if expected.matches(error):
                    continue
                return runs, mismatch(
                    "error",
                    f"expected {expected.type_name}, "
                    f"got {type(error).__name__}: {error}",
                    scan_mode,
                )
            return runs, mismatch(
                "error", f"{type(error).__name__}: {error}", scan_mode
            )
        if isinstance(expected, ExpectedError):
            return runs, mismatch(
                "missing-error",
                f"expected {expected.type_name} "
                f"({expected.message!r}), got {len(result.items)} items",
                scan_mode,
            )
        actual = canonical_result(result.items)
        if actual != expected:
            return runs, mismatch(
                "mismatch",
                (
                    f"expected {len(expected)} canonical items, "
                    f"got {len(actual)}; "
                    f"missing={list(set(expected) - set(actual))[:3]!r} "
                    f"unexpected={list(set(actual) - set(expected))[:3]!r}"
                ),
                scan_mode,
            )
        cell_bytes = (repr(result.items), repr(result.degradation))
        if reference_bytes is None:
            reference_mode, reference_bytes = scan_mode, cell_bytes
        elif cell_bytes != reference_bytes:
            diverged = (
                "items"
                if cell_bytes[0] != reference_bytes[0]
                else "degradation report"
            )
            return runs, mismatch(
                "scan-mode-divergence",
                (
                    f"{diverged} not byte-identical to the "
                    f"{reference_mode} run of the same cell"
                ),
                scan_mode,
            )
    return runs, None


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_case(case: GeneratedCase, still_fails) -> GeneratedCase:
    """Greedy deterministic minimization of a failing generated case.

    Tries, in order: dropping whole partitions, dropping document lines
    within each partition text, and dropping one record at a time from
    each document's ``results`` array (re-serialized; a candidate is
    kept only if ``still_fails`` still reports the failure, so edits
    that lose a load-bearing anomaly — e.g. a duplicate key — are
    rejected).
    """
    import json

    def try_candidate(partitions) -> GeneratedCase | None:
        partitions = [p for p in partitions if any(t.strip() for t in p)]
        if not partitions:
            return None
        candidate = case.with_partitions(partitions)
        try:
            return candidate if still_fails(candidate) else None
        except ReproError:
            # A shrink step that turns the failure into a hard error is
            # still a repro of *something*, but not of this failure.
            return None

    current = case
    changed = True
    while changed:
        changed = False
        # 1. Drop whole partitions.
        if len(current.partitions) > 1:
            for index in range(len(current.partitions)):
                candidate = try_candidate(
                    [
                        p
                        for i, p in enumerate(current.partitions)
                        if i != index
                    ]
                )
                if candidate is not None:
                    current, changed = candidate, True
                    break
        if changed:
            continue
        # 2. Drop document lines inside a partition text.
        for pi, partition in enumerate(current.partitions):
            lines = partition[0].split("\n")
            if len(lines) <= 1:
                continue
            for li in range(len(lines)):
                kept = [line for i, line in enumerate(lines) if i != li]
                partitions = [list(p) for p in current.partitions]
                partitions[pi] = ["\n".join(kept)]
                candidate = try_candidate(partitions)
                if candidate is not None:
                    current, changed = candidate, True
                    break
            if changed:
                break
        if changed:
            continue
        # 3. Drop one record from a document's results array.
        for pi, partition in enumerate(current.partitions):
            lines = partition[0].split("\n")
            for li, line in enumerate(lines):
                try:
                    docs = reference_documents(line)
                except ReproError:
                    continue
                if len(docs) != 1:
                    continue
                reduced = _drop_one_record(docs[0])
                for doc in reduced:
                    new_lines = list(lines)
                    new_lines[li] = json.dumps(doc)
                    partitions = [list(p) for p in current.partitions]
                    partitions[pi] = ["\n".join(new_lines)]
                    candidate = try_candidate(partitions)
                    if candidate is not None:
                        current, changed = candidate, True
                        break
                if changed:
                    break
            if changed:
                break
    return current


def _drop_one_record(document):
    """Variants of *document* with one ``results`` record removed."""
    variants = []
    if not isinstance(document, dict):
        return variants
    members = (
        document["root"]
        if isinstance(document.get("root"), list)
        else [document]
    )
    for mi, member in enumerate(members):
        if not isinstance(member, dict):
            continue
        results = member.get("results")
        if not isinstance(results, list) or not results:
            continue
        for ri in range(len(results)):
            new_member = dict(member)
            new_member["results"] = [
                r for i, r in enumerate(results) if i != ri
            ]
            if isinstance(document.get("root"), list):
                new_root = list(document["root"])
                new_root[mi] = new_member
                variants.append({**document, "root": new_root})
            else:
                variants.append(new_member)
    return variants


# ---------------------------------------------------------------------------
# Top-level run
# ---------------------------------------------------------------------------

#: budget name -> (generated case count, paper dataset size knobs)
BUDGETS = {
    # start_year=2003 so Q0's "December 25 of 2003 or later" filter
    # selects real rows even from the tiny dataset.
    "small": (40, SensorDataConfig(stations=4, start_year=2003,
                                   year_span=2, measurements_per_array=8,
                                   target_file_bytes=4 * 1024)),
    "full": (200, SensorDataConfig(stations=6, start_year=2003,
                                   year_span=3, measurements_per_array=12,
                                   target_file_bytes=8 * 1024)),
}


def _paper_sources(seed: int, config: SensorDataConfig):
    """The benchmark dataset as a 2-partition in-memory collection."""
    rng = random.Random(seed)
    partitions = [
        [generate_file_text(rng, config, wrapped=True)] for _ in range(2)
    ]
    documents = [
        doc
        for partition in partitions
        for text in partition
        for doc in reference_documents(text)
    ]
    return InMemorySource(collections={"/sensors": partitions}), documents


def run_diffcheck(
    seed: int = 0,
    budget: str = "full",
    max_workers: int = 2,
    shrink: bool = True,
    progress=None,
) -> DiffCheckReport:
    """Run the full differential matrix; return a report.

    The five paper queries get every (toggle × backend × projection)
    cell plus one forced-spill cell per backend (all-rules, projected,
    a :data:`SPILL_BUDGET_BYTES` budget) plus one crash-injected cell
    per backend (all-rules, projected, the first partition's worker
    killed on attempt 1 — recovery must still match the oracle
    bit-for-bit).  Every projected cell — including the spill and
    crash cells — additionally sweeps the scan-mode axis
    (:data:`SCAN_MODE_AXIS`) and byte-compares items and degradation
    reports across modes.  Generated pairs check every
    rewrite toggle on the (sequential, projected) cell, plus one
    rotating (backend, projection) cell under the all-rules config, and
    one rotating forced-spill cell, so the whole axis stays covered
    across the case population at a fraction of the cost.
    """
    from repro.bench.queries import ALL_QUERIES

    if budget not in BUDGETS:
        raise ValueError(
            f"unknown budget {budget!r}; expected one of {sorted(BUDGETS)}"
        )
    case_count, data_config = BUDGETS[budget]
    report = DiffCheckReport(seed=seed, budget=budget)
    runner = _MatrixRunner(max_workers=max_workers)
    try:
        _run_paper_queries(runner, report, seed, data_config, ALL_QUERIES,
                           progress)
        _run_generated_cases(runner, report, seed, case_count, shrink,
                             progress)
    finally:
        runner.close()
    return report


def _run_paper_queries(runner, report, seed, data_config, queries, progress):
    source, documents = _paper_sources(seed, data_config)
    for name, builder in queries.items():
        query_text = builder(collection="/sensors", wrapped=True)
        expected = canonical_result(oracle_result(name, documents))
        for cell in _cells(TOGGLE_CONFIGS, BACKEND_NAMES, PROJECTION_MODES):
            runs, mismatch = _check_cell(
                runner, report, source, name, query_text, expected, *cell
            )
            report.paper_cells += runs
            if mismatch is not None:
                report.mismatches.append(mismatch)
        # Forced-spill cells: the same query, all backends, a budget
        # small enough that the blocking operators degrade to disk; the
        # result must still match the oracle bit-for-bit.
        for backend_name in BACKEND_NAMES:
            runs, mismatch = _check_cell(
                runner, report, source, name, query_text, expected,
                "all", backend_name, "projected",
                memory_budget=SPILL_BUDGET_BYTES,
            )
            report.paper_cells += runs
            if mismatch is not None:
                report.mismatches.append(mismatch)
        # Crash-injected cells: the same query with the first
        # partition's worker killed on its first attempt.  Recovery
        # must reschedule the unit and produce the oracle result
        # bit-for-bit on every backend (a real ``os._exit`` under the
        # process backend, simulated crashes elsewhere).
        crash_plan = FaultPlan().kill_worker(0, attempt=1)
        for backend_name in BACKEND_NAMES:
            runs, mismatch = _check_cell(
                runner, report, source, name, query_text, expected,
                "all", backend_name, "projected",
                fault_plan=crash_plan,
            )
            report.paper_cells += runs
            if mismatch is not None:
                report.mismatches.append(mismatch)
        # Cost-off cells: the same query compiled without the
        # cost-based planning phase, on every backend, plus one spill
        # and one crash variant — cost planning is a physical-plan
        # decision only, so the oracle answer cannot move.
        cost_off_cells = [
            (backend_name, None, None) for backend_name in BACKEND_NAMES
        ]
        cost_off_cells.append(("sequential", SPILL_BUDGET_BYTES, None))
        cost_off_cells.append(("sequential", None, crash_plan))
        for backend_name, budget, plan in cost_off_cells:
            runs, mismatch = _check_cell(
                runner, report, source, name, query_text, expected,
                "all", backend_name, "projected",
                memory_budget=budget, fault_plan=plan, cost=False,
            )
            report.paper_cells += runs
            if mismatch is not None:
                report.mismatches.append(mismatch)
        if progress is not None:
            progress(f"paper query {name}: {report.paper_cells} cells")


def _run_generated_cases(runner, report, seed, case_count, shrink, progress):
    cases = generate_cases(seed, case_count)
    report.generated_cases = len(cases)
    rotation = [
        (backend, projection)
        for backend in BACKEND_NAMES
        for projection in PROJECTION_MODES
    ]
    for index, case in enumerate(cases):
        source = InMemorySource(
            collections={COLLECTION: [list(p) for p in case.partitions]}
        )
        try:
            expected = canonical_result(case.expected())
        except ReproError as error:
            # The oracle pins an *error* (e.g. a join keyed on a
            # multi-item sequence): every cell must fail the same way.
            expected = ExpectedError(type(error).__name__, str(error))
        cells = [
            (config_name, "sequential", "projected", None, True)
            for config_name in TOGGLE_CONFIGS
        ]
        cells.append(("all", *rotation[index % len(rotation)], None, True))
        # The rotating forced-spill cell (offset so the same case does
        # not always pair spill with the same backend/projection).
        cells.append(
            (
                "all",
                *rotation[(index + 3) % len(rotation)],
                SPILL_BUDGET_BYTES,
                True,
            )
        )
        # The rotating cost-off cell: the physical plan reverts to the
        # un-costed default; the answer (or pinned error) must not move.
        cells.append(
            ("all", *rotation[(index + 1) % len(rotation)], None, False)
        )
        for config_name, backend_name, projection, budget, cost in cells:
            runs, mismatch = _check_cell(
                runner, report, source, case.name, case.query_text,
                expected, config_name, backend_name, projection,
                memory_budget=budget, cost=cost,
            )
            report.generated_cells += runs
            if mismatch is not None:
                if (
                    shrink
                    and mismatch.kind == "mismatch"
                    and not isinstance(expected, ExpectedError)
                ):
                    mismatch = _shrink_mismatch(runner, case, mismatch)
                report.mismatches.append(mismatch)
        if progress is not None and (index + 1) % 25 == 0:
            progress(f"generated cases: {index + 1}/{len(cases)}")


def _shrink_mismatch(runner, case, mismatch: Mismatch) -> Mismatch:
    config = TOGGLE_CONFIGS[mismatch.config]

    def still_fails(candidate: GeneratedCase) -> bool:
        source = InMemorySource(
            collections={COLLECTION: [list(p) for p in candidate.partitions]}
        )
        try:
            got = runner.run(
                source,
                candidate.query_text,
                config,
                mismatch.backend,
                mismatch.projection,
                scan_mode=(
                    mismatch.scan_mode
                    if mismatch.scan_mode in SCAN_MODE_AXIS
                    else "ondemand"
                ),
                memory_budget=SPILL_BUDGET_BYTES if mismatch.spill else None,
            )
        except ReproError:
            return False
        return (
            canonical_result(got.items)
            != canonical_result(candidate.expected())
        )

    shrunk = shrink_case(case, still_fails)
    mismatch.repro_query = shrunk.query_text
    mismatch.repro_partitions = [list(p) for p in shrunk.partitions]
    return mismatch
