#!/usr/bin/env python3
"""Regenerate the measured numbers in EXPERIMENTS.md from bench metrics JSON.

Every bench binary accepts `--metrics-out PATH` and writes a
sunbfs.metrics/1 JSON report (see docs/OBSERVABILITY.md).  This script
reads those reports and rewrites the marked blocks of EXPERIMENTS.md so
the measured numbers in the document are provably the numbers a bench
actually produced, not hand-copied ones.

Pipeline (from the repo root):

    cmake --build build -j
    mkdir -p reports
    build/bench/bench_table1_partitioning  --metrics-out reports/bench_table1_partitioning.json
    build/bench/bench_fig11_comm_breakdown --metrics-out reports/bench_fig11_comm_breakdown.json
    python3 tools/regen_experiments.py --write     # rewrite EXPERIMENTS.md
    python3 tools/regen_experiments.py --check     # CI: fail if stale

Blocks are delimited in EXPERIMENTS.md by marker comments:

    <!-- regen:NAME begin (tool: BENCH) -->
    ...generated content...
    <!-- regen:NAME end -->

Only the content between markers is touched; surrounding prose is yours.
Stdlib only — no third-party dependencies.
"""

import argparse
import difflib
import json
import re
import sys
from pathlib import Path

SCHEMA = "sunbfs.metrics/1"

# ---------------------------------------------------------------------------
# report loading


def load_report(reports_dir: Path, tool: str) -> dict:
    path = reports_dir / f"{tool}.json"
    if not path.is_file():
        raise FileNotFoundError(
            f"{path} not found — run `build/bench/{tool} --metrics-out {path}` first"
        )
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def gauge(doc: dict, key: str) -> float:
    return float(doc["gauges"][key])


def counter(doc: dict, key: str) -> int:
    return int(doc["counters"][key])


def info(doc: dict, key: str) -> str:
    return str(doc["info"][key])


# ---------------------------------------------------------------------------
# block generators — one per regen marker


def gen_table1(doc: dict) -> str:
    """Table 1 measured column: GTEPS + traffic per partitioning method."""
    rows = [
        # (slug, display name, paper column)
        ("1d_heavy_delegates", "1D + heavy delegates",
         "15.4–23.8 kGTEPS records (2014–16)"),
        ("2d_all_delegated", "2D", "38.6–103 kGTEPS records (2015–21)"),
        ("degree_aware_15d", "degree-aware 1.5D",
         "**180,792 GTEPS, 8× graph size**"),
        ("vanilla_1d", "vanilla 1D", "(infeasible at paper scale)"),
    ]
    scale, ranks = info(doc, "table1.scale"), info(doc, "table1.ranks")
    out = [f"| | paper | measured (scale {scale}, {ranks} ranks) | MB sent | inter-supernode MB |",
           "|---|---|---|---|---|"]
    for slug, name, paper in rows:
        g = gauge(doc, f"table1.{slug}.gteps")
        sent = counter(doc, f"table1.{slug}.bytes_sent") / 1e6
        inter = counter(doc, f"table1.{slug}.bytes_inter_supernode") / 1e6
        out.append(f"| {name} | {paper} | {g:.2f} GTEPS | {sent:.1f} | {inter:.1f} |")
    speedup = gauge(doc, "table1.speedup_vs_best_baseline")
    out.append("")
    out.append(f"1.5D / best delegation baseline = {speedup:.2f}× on this substrate "
               "(paper: 1.75× over the 2021 2D record, at 8× the graph size).")
    return "\n".join(out)


def gen_fig11(doc: dict) -> str:
    """Figure 11 measured shares by rank count."""
    ranks = sorted(
        {int(m.group(1)) for k in doc["gauges"]
         if (m := re.match(r"fig11\.ranks(\d+)\.", k))}
    )
    out = ["| ranks | compute | imbalance | alltoallv | allgather | reduce-scatter | allreduce |",
           "|---|---|---|---|---|---|---|"]
    for p in ranks:
        row = f"fig11.ranks{p}."
        cells = [f"{gauge(doc, row + col):.1f}%" for col in (
            "compute_pct", "imbalance_pct", "alltoallv_pct",
            "allgather_pct", "reduce_scatter_pct", "allreduce_pct")]
        out.append(f"| {p} | " + " | ".join(cells) + " |")
    first, last = f"fig11.ranks{ranks[0]}.", f"fig11.ranks{ranks[-1]}."
    imb = [gauge(doc, f"fig11.ranks{p}.imbalance_pct") for p in ranks]
    out.append("")
    out.append(
        f"Compute share falls {gauge(doc, first + 'compute_pct'):.0f}% → "
        f"{gauge(doc, last + 'compute_pct'):.0f}% from {ranks[0]} to {ranks[-1]} "
        f"ranks; alltoallv ({gauge(doc, first + 'alltoallv_pct'):.0f}% → "
        f"{gauge(doc, last + 'alltoallv_pct'):.0f}%) and the frontier-union "
        f"reductions ({gauge(doc, first + 'allreduce_pct'):.0f}% → "
        f"{gauge(doc, last + 'allreduce_pct'):.0f}%, surfaced as allreduce in "
        "this implementation — same mesh-wide union pattern) lead the "
        "collectives; the measured arrival-spread imbalance spans "
        f"{min(imb):.1f}–{max(imb):.1f}% (see the shape note below)."
    )
    return "\n".join(out)


def gen_tpr(doc: dict) -> str:
    """Threads-per-rank scaling of the headline pipeline (docs/PERF.md)."""
    tprs = sorted(
        {int(m.group(1)) for k in doc["gauges"]
         if (m := re.match(r"headline\.tpr(\d+)\.", k))}
    )
    if not tprs:
        raise KeyError("no headline.tprN.* gauges in the headline report — "
                       "re-run bench_headline_graph500 (it sweeps "
                       "SUNBFS_TPR_SWEEP, default 1,2,4)")
    base = gauge(doc, f"headline.tpr{tprs[0]}.wall_s")
    out = ["| threads/rank | BFS wall s | mean modeled s | GTEPS "
           "| wall speedup vs {} | steady staging allocs |".format(tprs[0]),
           "|---|---|---|---|---|---|"]
    steady = []
    for t in tprs:
        p = f"headline.tpr{t}."
        wall = gauge(doc, p + "wall_s")
        steady.append(counter(doc, p + "staging_allocs_steady"))
        out.append(
            f"| {t} | {wall:.3f} | {gauge(doc, p + 'modeled_s'):.6f} "
            f"| {gauge(doc, p + 'gteps'):.3f} | {base / wall:.2f}× "
            f"| {steady[-1]} |")
    out.append("")
    out.append(
        "Wall clock is host-dependent: on a host with at least "
        "2 × ranks hardware threads the sweep shows the intra-rank kernel "
        "speedup; on fewer (e.g. single-core CI) extra threads only add "
        "oversubscription cost, while the BFS output stays bit-identical "
        "and `comm.staging_allocs` stays at "
        f"{max(steady)} after the warmup root at every thread count.")
    return "\n".join(out)


def gen_exchange(doc: dict) -> str:
    """Exchange-backend ablation: measured bytes per plan (docs/COMM.md)."""
    combos = sorted(
        {(int(m.group(1)), m.group(2)) for k in doc["counters"]
         if (m := re.match(r"exchange\.ranks(\d+)\.([a-z0-9]+)\.stages$", k))}
    )
    if not combos:
        raise KeyError("no exchange.ranks<P>.<backend>.* metrics — re-run "
                       "bench_exchange --metrics-out reports/bench_exchange.json")
    order = {"direct": 0, "2dca": 1}
    combos.sort(key=lambda c: (c[0], order.get(c[1], 9)))
    out = ["| ranks | backend | stages | alltoallv KB | inter-supernode KB "
           "| inter bytes vs direct | steady staging allocs |",
           "|---|---|---|---|---|---|---|"]
    best = None
    largest = combos[-1][0]
    for p, backend in combos:
        row = f"exchange.ranks{p}.{backend}."
        red = gauge(doc, row + "inter_reduction_pct")
        out.append(
            f"| {p} | {backend} | {counter(doc, row + 'stages')} "
            f"| {counter(doc, row + 'alltoallv_bytes') / 1e3:.1f} "
            f"| {counter(doc, row + 'alltoallv_inter_bytes') / 1e3:.1f} "
            f"| {'—' if backend == 'direct' else f'{-red:+.1f}%'} "
            f"| {counter(doc, row + 'staging_allocs_steady')} |")
        if p == largest and backend != "direct":
            if best is None or red > best[1]:
                best = (backend, red)
    out.append("")
    out.append(
        f"At the largest mesh ({largest} ranks) {best[0]} cuts the "
        "inter-supernode subset of the search alltoallv bytes "
        f"{best[1]:.1f}% below the direct exchange, while paying more total "
        "(mostly cheap intra-supernode) bytes for the extra hop; output "
        "stays bit-identical and the staging pools stay allocation-free "
        "under both backends.")
    return "\n".join(out)


def gen_async(doc: dict) -> str:
    """Sync-vs-async crossover sweep (docs/PERF.md, bench_async_crossover)."""
    combos = sorted(
        {(m.group(1), m.group(2)) for k in doc["counters"]
         if (m := re.match(r"crossover\.(\w+)\.([\w.]+)\.rounds$", k))}
    )
    if not combos:
        raise KeyError("no crossover.<input>.<engine>.* metrics — re-run "
                       "bench_async_crossover --metrics-out "
                       "reports/bench_async_crossover.json")
    input_order = {"path8192": 0, "grid2x4096": 1, "torus64x64": 2}
    engine_order = {"1d": 0, "1.5d": 1, "async": 2}
    combos.sort(key=lambda c: (input_order.get(c[0], 9), c[0],
                               engine_order.get(c[1], 9)))
    out = ["| input | diameter | engine | rounds | collective calls "
           "| alltoallv KB | modeled total s |",
           "|---|---|---|---|---|---|---|"]
    ratios = []  # (input, 1d calls / async calls) on the gated lattices
    tax_key = None
    for inp, engine in combos:
        row = f"crossover.{inp}.{engine}."
        diameter = counter(doc, f"crossover.{inp}.diameter")
        out.append(
            f"| {inp} | {diameter if diameter else '~log n'} | {engine} "
            f"| {counter(doc, row + 'rounds')} "
            f"| {counter(doc, row + 'collective_calls')} "
            f"| {counter(doc, row + 'alltoallv_bytes') / 1e3:.1f} "
            f"| {gauge(doc, row + 'modeled_total_s'):.6f} |")
        if engine == "async" and diameter >= 4096:
            ratios.append((inp,
                           counter(doc, f"crossover.{inp}.1d.collective_calls")
                           / counter(doc, row + "collective_calls")))
        if engine == "async" and f"crossover.{inp}.async_tax_vs_best_sync" \
                in doc["gauges"]:
            tax_key = f"crossover.{inp}.async_tax_vs_best_sync"
    out.append("")
    ratio_txt = ", ".join(f"{inp}: {r:.0f}×" for inp, r in ratios)
    tax = gauge(doc, tax_key)
    out.append(
        "On the diameter ≥ 4096 lattices the relaxed engine finishes in "
        f"{ratio_txt} fewer collective calls than level-synchronous 1D "
        "(gate: ≥ 10×) with lower modeled time; on R-MAT, where level "
        "synchrony is already cheap, the relaxation tax vs the best sync "
        f"engine is {tax:.2f}× (gate: ≤ 1.25×).")
    return "\n".join(out)


GENERATORS = {
    # marker name -> (bench tool, generator)
    "table1": ("bench_table1_partitioning", gen_table1),
    "fig11": ("bench_fig11_comm_breakdown", gen_fig11),
    "tpr": ("bench_headline_graph500", gen_tpr),
    "exchange": ("bench_exchange", gen_exchange),
    "async": ("bench_async_crossover", gen_async),
}

MARKER_RE = re.compile(
    r"<!-- regen:(?P<name>[\w-]+) begin \(tool: (?P<tool>[\w-]+)\) -->\n"
    r"(?P<body>.*?)"
    r"<!-- regen:(?P=name) end -->",
    re.DOTALL,
)


# ---------------------------------------------------------------------------
# driver


def regenerate(text: str, reports_dir: Path) -> str:
    seen = set()

    def replace(m: re.Match) -> str:
        name, tool = m.group("name"), m.group("tool")
        if name not in GENERATORS:
            raise KeyError(f"EXPERIMENTS.md references unknown regen block {name!r}")
        expected_tool, gen = GENERATORS[name]
        if tool != expected_tool:
            raise ValueError(
                f"block {name!r} names tool {tool!r}, generator expects {expected_tool!r}")
        seen.add(name)
        body = gen(load_report(reports_dir, tool))
        return (f"<!-- regen:{name} begin (tool: {tool}) -->\n"
                f"{body}\n"
                f"<!-- regen:{name} end -->")

    out = MARKER_RE.sub(replace, text)
    missing = set(GENERATORS) - seen
    if missing:
        raise KeyError(f"EXPERIMENTS.md is missing regen markers for: {sorted(missing)}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reports", type=Path, default=Path("reports"),
                    help="directory of bench --metrics-out JSON files (default: reports/)")
    ap.add_argument("--experiments", type=Path, default=Path("EXPERIMENTS.md"))
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite EXPERIMENTS.md in place")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 (with a diff) if EXPERIMENTS.md is stale [default]")
    args = ap.parse_args()

    old = args.experiments.read_text()
    try:
        new = regenerate(old, args.reports)
    except (FileNotFoundError, KeyError, ValueError) as e:
        print(f"regen_experiments: {e}", file=sys.stderr)
        return 2

    if args.write:
        if new != old:
            args.experiments.write_text(new)
            print(f"regen_experiments: rewrote {args.experiments}")
        else:
            print(f"regen_experiments: {args.experiments} already up to date")
        return 0

    if new == old:
        print(f"regen_experiments: {args.experiments} is up to date")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        fromfile=str(args.experiments), tofile=f"{args.experiments} (regenerated)"))
    print("regen_experiments: STALE — run with --write to update", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
