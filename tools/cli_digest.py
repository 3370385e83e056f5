"""Print sha256 digests of a fixed, seeded panel of CLI runs, or compare the panel across two trees.

Usage: python tools/cli_digest.py SRC            (SRC holds the powbounds package, e.g. src)
       python tools/cli_digest.py SRC_A SRC_B    (two trees' packages)

Each run goes through cli.main in-process; its argv, exit code, stdout and
stderr feed the digest of its subcommand and the overall one.  Two trees
whose outputs agree print the same lines.  Given two trees, it prints per
subcommand whether their outputs are byte-equal and, where not, the largest
relative difference among the numbers they print, so an ulp-level move shows
its size; outputs whose text differs outside their numbers say so.
"""

import contextlib
import hashlib
import importlib
import io
import os
import re
import sys

SHARES = ("0.9", "0.8", "0.7", "0.55")  # --alpha-frac: adversary shares 10-45%
COMMANDS = ("bound", "latency", "sweep", "simulate", "protocol-table")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
JSON_KEY = re.compile(r'\s*"([^"]+)":\s*(.*)')
MC_CYCLE = (
    ["attack", "--delta", "0", "--t", "30m", "--trials", "2000"],
    ["attack", "--delta", "10", "--t", "30m", "--trials", "3000"],
    ["race", "--stream", "double-lagger", "--delta", "10", "--t", "1h", "--trials", "1000"],
)


def panel(species):
    return [
        *(["bound", k, "--alpha-frac", f, "--delta", d, "--t", "2h"]
          for k in ("upper", "lower", "upper-universal") for f in SHARES for d in ("0", "10")),
        # the lower bound at t = 0 and at t = delta/2, where it rises with t
        *(["bound", "lower", "--alpha-frac", f, "--delta", "10", "--t", t] for f in SHARES for t in ("0", "5")),
        *(["latency", "--alpha-frac", f, "--delta", d, "--level", e]
          for f in SHARES for d in ("0", "10") for e in ("1e-3", "1e-9")),
        # depth scans: ~32,000 counts from the window's top (two chunks), both
        # ends of --split, and lam ~ 0.003 (a level near 1 and a tiny share give
        # t = 2 s: a lower rate alone only stretches t, lam stays)
        ["latency", "--alpha-frac", "0.5005", "--delta", "0", "--level", "1e-6"],
        *(["latency", "--level", "1e-9", "--split", s] for s in ("0.999", "1e-6")),
        ["latency", "--alpha-frac", "0.999999999", "--delta", "0", "--level", "0.999", "--split", "0.999"],
        ["sweep", "--var", "latency", "--grid", "1800:36000:12", "--delta", "0"],
        ["--format", "csv", "sweep", "--var", "latency", "--grid", "1800:36000:12"],
        # three blocks of 32 times whose later rows take more of the gain pmf q than the first's
        ["--format", "csv", "sweep", "--var", "latency", "--bounds", "lower", "--alpha-frac", "0.55",
         "--total-rate", "600/hour", "--delta", "0.5", "--grid", "0:36000:80"],
        ["sweep", "--var", "rate", "--grid", "6:600:12", "--level", "1e-6"],
        ["--format", "csv", "sweep", "--var", "throughput", "--grid", "1,2,5,10,20,50,100"],
        ["protocol-table"], ["protocol-table", "--check"],
        ["--format", "csv", "protocol-table", "--check", "--adversary", "0.1"],
        *(["--seed", str(s), "simulate", "attack", "--alpha-frac", f, "--delta", d, "--t", t,
           "--trials", "1000"]
          for s in (1, 2) for f in SHARES for d in ("0", "1", "10") for t in ("1h", "2h")),
        *(["--seed", str(s), "simulate", "race", "--stream", st, "--alpha-frac", f, "--delta", d,
           "--t", "1h", "--trials", "600"]
          for s in (3, 4) for st in species for f in ("0.9", "0.55") for d in ("1", "10")),
        *(["--seed", str(s), "simulate", "species", "--alpha-delta", a, "--horizon", "1e5"]
          for s in (5, 6) for a in ("0.025", "0.2", "0.5")),
        # the benchmark's Monte Carlo cycle, the campaigns its mc_cost_s_at_rel10 times
        *(["--seed", str(s), "simulate", *campaign, "--alpha-frac", "0.9", "--total-rate", "6/hour"]
          for s in (3, 4) for campaign in MC_CYCLE),
    ]


def run_panel(src):
    """[(subcommand, argv, exit code, stdout, stderr)] per run, in panel order, for the package under src."""
    for name in [m for m in sys.modules if m.split(".")[0] == "powbounds"]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        cli = importlib.import_module("powbounds.cli")
        species = importlib.import_module("powbounds.simulator").SPECIES
    finally:
        sys.path.pop(0)
    runs = []
    for argv in panel(species):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        command = next(a for a in argv if a in COMMANDS)
        runs.append((command, argv, code, out.getvalue(), err.getvalue()))
    return runs


def labelled_numbers(text):
    """[(label, number)] in the order a run prints them: a JSON line's key, a CSV cell's column, or '-'."""
    header, found = None, []
    for line in text.splitlines():
        key = JSON_KEY.match(line)
        if key:
            found += [(key.group(1), float(x)) for x in NUMBER.findall(key.group(2))]
            continue
        cells = line.split(",")
        if header is None and len(cells) > 1 and not NUMBER.search(line):
            header = cells
            continue
        for i, cell in enumerate(cells):
            label = header[i] if header and i < len(header) and len(cells) > 1 else "-"
            found += [(label, float(x)) for x in NUMBER.findall(cell)]
    return found


def compare(command, runs_a, runs_b):
    """One line: whether a subcommand's runs print the same bytes, and else how far their numbers moved."""
    moved = [(a, b) for a, b in zip(runs_a, runs_b) if a != b]
    if not moved and len(runs_a) == len(runs_b):
        return f"{command:16s} byte-equal  ({len(runs_a)} runs)"
    kinds = sorted({positional(a[1], command) for a, _ in moved})  # e.g. which bound kinds moved
    where = f"differs in {len(moved)} of {len(runs_a)} runs ({', '.join(kinds)})"
    largest = {}
    for a, b in moved:
        texts = ("\n".join(a[3:]), "\n".join(b[3:]))
        if a[2] != b[2] or NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
            return f"{command:16s} {where}, outside their numbers"
        for (label, x), (_, y) in zip(*map(labelled_numbers, texts)):
            rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            largest[label] = max(largest.get(label, 0.0), rel)
    moves = ", ".join(f"{label} {rel:.2g}" for label, rel in largest.items() if rel > 0.0)
    return f"{command:16s} {where}: largest relative difference {moves or 'none'}"


def positional(argv, command):
    """The first argument after the subcommand that is not an option (a bound kind, an attack), or '-'."""
    rest = argv[argv.index(command) + 1 :]
    return rest[0] if rest and not rest[0].startswith("--") else "-"


def main(srcs):
    runs = [run_panel(src) for src in srcs]
    if len(runs) == 1:
        digests, overall = {}, hashlib.sha256()
        for command, *record in runs[0]:
            text = repr(tuple(record)).encode()
            digests.setdefault(command, hashlib.sha256()).update(text)
            overall.update(text)
        for command, digest in digests.items():
            print(f"{command:16s} {digest.hexdigest()}")
        print(f"{'all':16s} {overall.hexdigest()}  ({len(runs[0])} runs)")
        return
    for command in dict.fromkeys(run[0] for run in runs[0]):
        print(compare(command, *([run for run in tree if run[0] == command] for tree in runs)))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1:])
