"""Compare two ledger records: ``python benchmarks/ledger/compare.py A B``.

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the candidate; each is a ``ledger.json`` written by
``run.py --out`` or the directory holding one.  One row per workload and
end-to-end metric: both medians with their min..max, the ratio B/A, and a
verdict against the bound ``BENCHMARK.json`` fixes for that metric:

``better`` / ``worse``  the medians differ by more than the bound;
``same``                they do not;
``unresolved``          the run-to-run spread of either side exceeds the
                        bound and the two ranges overlap, so the records
                        cannot tell a change from noise.

``failed_frac`` may not rise, and ``energy_err_ha`` may not double
(errors below 1e-12 Ha count as zero).  Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
#: energy errors below this are rounding, not accuracy
ENERGY_ZERO_HA = 1e-12


def load(path: str) -> dict:
    p = pathlib.Path(path)
    if p.is_dir():
        p = p / "ledger.json"
    record = json.loads(p.read_text())
    if record.get("schema") != "repro-ledger/1":
        raise SystemExit(f"{p}: not a repro-ledger/1 record")
    return record


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Classify candidate stats ``b`` against base stats ``a``."""
    spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
    overlap = not (a["max"] < b["min"] or b["max"] < a["min"])
    if spread > bound and overlap:
        return "unresolved"
    worsening = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def compare(base: dict, cand: dict, bench: dict) -> list[tuple]:
    rows = []
    for name, a_entry in base["workloads"].items():
        b_entry = cand["workloads"].get(name)
        if b_entry is None:
            rows.append((name, "-", "", "", "", "missing in B"))
            continue
        for metric in bench["end_to_end"]:
            a = a_entry["end_to_end"][metric["name"]]
            b = b_entry["end_to_end"][metric["name"]]
            if a["median"] is None or b["median"] is None:
                rows.append((name, metric["name"], "", "", "", "worse"))
                continue
            rows.append((
                name, metric["name"], _stats(a), _stats(b),
                f"{b['median'] / a['median']:.3f} x A",
                verdict(a, b, metric["better"], metric["bound"]),
            ))
        fa, fb = a_entry["failed_frac"], b_entry["failed_frac"]
        rows.append((name, "failed_frac", f"{fa:.4g}", f"{fb:.4g}", "",
                     "worse" if fb > fa else "same"))
        ea, eb = a_entry["energy_err_ha"], b_entry["energy_err_ha"]
        if ea is not None and eb is not None:
            doubled = eb > 2.0 * max(ea, ENERGY_ZERO_HA)
            rows.append((name, "energy_err_ha", f"{ea:.3e}", f"{eb:.3e}", "",
                         "worse" if doubled else "same"))
    return rows


def _stats(s: dict) -> str:
    return f"{s['median']:.5g} [{s['min']:.5g}..{s['max']:.5g}] n={s['n']}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    base, cand = load(args[0]), load(args[1])
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = compare(base, cand, bench)
    header = ("workload", "metric", "A: median [min..max]", "B: median [min..max]",
              "ratio", "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(6)]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    for stamp, rec in (("A", base), ("B", cand)):
        s = rec["stamp"]
        print(f"{stamp}: commit {s['commit']} dirty={s['dirty']} seed={rec['seed']} "
              f"repeats={rec['repeats']} nproc={s['nproc']}")
    counts = {v: sum(1 for r in rows if r[5] == v)
              for v in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{k}: {v}" for k, v in counts.items()))
    return 1 if any(r[5] in ("worse", "missing in B") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
