"""Record the reference verdicts the benchmark checks every pass against.

For every shipped scenario this runs the checks at the scenario's own
seed and stores the ordered relation labels, their verdicts and the
SHA-256 of the rendered report.  With ``--other-seed`` it runs them again
at that seed and fails if any label or verdict differs, which shows that
the benchmark's seed argument cannot turn a correct run into failures.

Run it as

    python3 perfbench/make_reference.py --other-seed 11

The reference belongs to the code it was recorded from; record it again
only in a change that means to alter verdicts, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import worker


def scenario_verdicts(cli, report, root, name, seed):
    reports, text, _check_s, errors = worker.run_scenario(
        cli, report, worker.scenario_path(root, name), seed)
    if errors:
        raise RuntimeError(f"{name} at seed {seed}: {errors}")
    return [[r.name, r.verdict] for r in reports], text


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--other-seed", type=int, action="append", default=[])
    args = ap.parse_args(argv)

    root = worker.HERE.parent
    sys.path.insert(0, str(root / "src"))
    from sqmzoo import cli, report

    names = sorted(p.stem for p in (root / "scenarios").glob("*.yaml"))
    reference = {}
    differ = []
    for name in names:
        seed = int(cli.load_scenario(worker.scenario_path(root, name))
                   .get("seed", 0))
        relations, text = scenario_verdicts(cli, report, root, name, seed)
        entry = {"seed": seed, "relations": relations,
                 "report_sha256": hashlib.sha256(
                     text.encode("utf-8")).hexdigest(),
                 "verdicts_same_at_seeds": []}
        for other in args.other_seed:
            again, _ = scenario_verdicts(cli, report, root, name, other)
            if again == relations:
                entry["verdicts_same_at_seeds"].append(other)
            else:
                differ.append((name, other))
        reference[name] = entry
        print(f"{name}: {len(relations)} relations", file=sys.stderr)
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, other in differ:
        print(f"verdicts differ: {name} at seed {other}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
