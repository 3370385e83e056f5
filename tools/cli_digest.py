"""Print sha256 digests of a fixed, seeded panel of CLI runs against the package under SRC.

Usage: python tools/cli_digest.py SRC    (SRC holds the powbounds package, e.g. src)

Each run goes through cli.main in-process; its argv, exit code, stdout and
stderr feed the digest of its subcommand and the overall one.  Two trees
whose outputs agree print the same lines.
"""

import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.abspath(sys.argv[1]))
from powbounds import cli, simulator  # noqa: E402

SHARES = ("0.9", "0.8", "0.7", "0.55")  # --alpha-frac: adversary shares 10-45%
COMMANDS = ("bound", "latency", "sweep", "simulate", "protocol-table")
PANEL = [
    *(["bound", k, "--alpha-frac", f, "--delta", d, "--t", "2h"]
      for k in ("upper", "lower", "upper-universal") for f in SHARES for d in ("0", "10")),
    *(["latency", "--alpha-frac", f, "--delta", d, "--level", e]
      for f in SHARES for d in ("0", "10") for e in ("1e-3", "1e-9")),
    ["sweep", "--var", "latency", "--grid", "1800:36000:12", "--delta", "0"],
    ["--format", "csv", "sweep", "--var", "latency", "--grid", "1800:36000:12"],
    ["sweep", "--var", "rate", "--grid", "6:600:12", "--level", "1e-6"],
    ["--format", "csv", "sweep", "--var", "throughput", "--grid", "1,2,5,10,20,50,100"],
    ["protocol-table"], ["protocol-table", "--check"],
    ["--format", "csv", "protocol-table", "--check", "--adversary", "0.1"],
    *(["--seed", str(s), "simulate", "attack", "--alpha-frac", f, "--delta", d, "--t", t,
       "--trials", "1000"]
      for s in (1, 2) for f in SHARES for d in ("0", "1", "10") for t in ("1h", "2h")),
    *(["--seed", str(s), "simulate", "race", "--stream", st, "--alpha-frac", f, "--delta", d,
       "--t", "1h", "--trials", "600"]
      for s in (3, 4) for st in simulator.SPECIES for f in ("0.9", "0.55") for d in ("1", "10")),
    *(["--seed", str(s), "simulate", "species", "--alpha-delta", a, "--horizon", "1e5"]
      for s in (5, 6) for a in ("0.025", "0.2", "0.5")),
]

digests, overall = {}, hashlib.sha256()
for argv in PANEL:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = repr((argv, code, out.getvalue(), err.getvalue())).encode()
    command = next(a for a in argv if a in COMMANDS)
    digests.setdefault(command, hashlib.sha256()).update(record)
    overall.update(record)
for command, h in digests.items():
    print(f"{command:16s} {h.hexdigest()}")
print(f"{'all':16s} {overall.hexdigest()}  ({len(PANEL)} runs)")
