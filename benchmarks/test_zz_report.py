"""Final collation: bundle every published result into one report.

Runs last (``zz``): globs ``benchmarks/results/*.txt`` — written by the
earlier benchmark modules in this session — and assembles
``benchmarks/results/REPORT.md``, the single artefact to eyeball after a
full run.
"""

from conftest import RESULTS_DIR

SECTION_ORDER = [
    ("table_transfers", "Section IV — transfer counts"),
    ("fig6a", "Figure 6(a) — lmsg, np=16"),
    ("fig6b", "Figure 6(b) — lmsg, np=64"),
    ("fig6c", "Figure 6(c) — lmsg, np=256"),
    ("fig6_peaks", "Section V-A — peak bandwidths"),
    ("fig7", "Figure 7 — npof2 speedups"),
    ("fig8", "Figure 8 — np=129 sweep"),
    ("laki_trend", "Laki cross-check"),
    ("ablation_contention", "Ablation — contention"),
    ("ablation_placement", "Ablation — placement"),
    ("ablation_topology", "Ablation — topology"),
    ("ablation_eager", "Ablation — protocol threshold"),
    ("extension_tournament", "Extension — broadcast tournament"),
    ("extension_knomial_radix", "Extension — k-nomial radix"),
    ("extension_chain_segments", "Extension — chain segments"),
    ("extension_allreduce", "Extension — allreduce composition"),
]


def test_assemble_report(benchmark):
    parts = [
        "# Benchmark report",
        "",
        "Generated by `pytest benchmarks/ --benchmark-only`; see "
        "EXPERIMENTS.md for the paper-vs-measured analysis.",
        "",
    ]
    included = 0
    seen = set()
    for exp_id, title in SECTION_ORDER:
        path = RESULTS_DIR / f"{exp_id}.txt"
        if not path.exists():
            continue
        seen.add(path.name)
        parts.extend([f"## {title}", "", "```", path.read_text().rstrip(), "```", ""])
        included += 1
    # Anything published outside the known order still gets appended.
    for path in sorted(RESULTS_DIR.glob("*.txt")):
        if path.name not in seen:
            parts.extend(
                [f"## {path.stem}", "", "```", path.read_text().rstrip(), "```", ""]
            )
            included += 1

    report = "\n".join(parts)
    (RESULTS_DIR / "REPORT.md").write_text(report)
    print(f"\nassembled REPORT.md with {included} sections")
    # In a full run every core figure is present; in partial/fast runs at
    # least something must have been published before us.
    assert included >= 1

    benchmark.pedantic(lambda: included, rounds=1, iterations=1)
