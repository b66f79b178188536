#!/usr/bin/env python3
"""Regenerates the recorded Table-4 parameter values in bench/common.cpp
from a fresh run of bench/table4_tuned_params (see EXPERIMENTS.md)."""
import re, subprocess, sys, os

# Paths this script must never count as its own output when reporting what
# changed. The fuzz corpus holds .ithasm programs: hand-written edge cases
# and repros that fuzz_vm shrinks out of findings, never this script's.
IGNORED_DIRS = ("tests/fuzz/corpus",)
# Runtime litter from a local evaluation daemon / fleet run (sockets,
# ITHEVC1 snapshots with their tmp+rename staging files, corrupt
# snapshots the daemon quarantined aside at start): never this script's
# output either.
IGNORED_SUFFIXES = (".sock", ".evc", ".evc.tmp", ".bin.tmp", ".tmp", ".corrupt")

gens = os.environ.get("ITH_GA_GENERATIONS", "60")
out = subprocess.run(["./build/bench/table4_tuned_params"], capture_output=True, text=True,
                     env={**os.environ, "ITH_GA_GENERATIONS": gens}).stdout
vals = re.findall(r"\[CALLEE_MAX_SIZE=(\d+), ALWAYS_INLINE_SIZE=(\d+), MAX_INLINE_DEPTH=(\d+), "
                  r"CALLER_MAX_SIZE=(\d+), HOT_CALLEE_MAX_SIZE=(\d+)\]",
                  out.split("Recorded values")[1])
assert len(vals) == 5, out
labels = ["Adapt        ", "Opt:Bal      ", "Opt:Tot      ", "Adapt (PPC)  ", "Opt:Bal (PPC)"]
lines = "".join(f"      /* {labels[i]}*/ make_params({', '.join(vals[i])}),\n" for i in range(5))
src = open("bench/common.cpp").read()
start = src.index("      /* Adapt        */")
end = src.index("  };", start)
open("bench/common.cpp", "w").write(src[:start] + lines + src[end:])
print("recorded:")
print(lines)

# Report every modified file so the run is easy to review, ignoring
# directories other tools own (see IGNORED_DIRS above).
status = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True)
if status.returncode == 0:
    dirty = [line for line in status.stdout.splitlines()
             if line[3:] and not line[3:].startswith(IGNORED_DIRS)
             and not line[3:].endswith(IGNORED_SUFFIXES)]
    if dirty:
        print("modified:")
        print("\n".join(dirty))
