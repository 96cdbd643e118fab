#!/usr/bin/env python3
"""Print the code size of the simulator's hot symbols in a binary.

How much of each hierarchy's event handlers GCC inlines depends on the
translation unit that instantiates them (runner.cc), so an edit to cold
code or to an unrelated header can move a hot function's size, and
simulation speed with it.  Write this report for both sides of a speed
A/B, so a change in simulation time can be told apart from inlining
luck:

    python3 tests/hot_symbols.py build-perf/gvc_perf_pass

Each line is a size in bytes and a short name.  A listed function with
no out-of-line copy was inlined into all its callers and prints as
"inlined".  Exits 1 when nm fails or the binary holds no Hop trampoline
(every Hop target is reached through one, so there always is one).
"""

import argparse
import re
import subprocess
import sys

# Hot functions, by label and the demangled name (clone suffix removed).
FUNCTIONS = [
    ("ComputeUnit::tryIssue", r"gvc::ComputeUnit::tryIssue\(\)"),
    ("ComputeUnit::issueGlobal", r"gvc::ComputeUnit::issueGlobal\(.*\)"),
    ("VectorWarpStream::next", r"gvc::VectorWarpStream::next\(\)"),
    ("PhysCaches::l1Access", r"gvc::PhysCaches::l1Access\(.*\)"),
    ("PhysCaches::l2Arrive", r"gvc::PhysCaches::l2Arrive\(.*\)"),
    ("Iommu::afterTlbLookup", r"gvc::Iommu::afterTlbLookup\(.*\)"),
    ("Iommu::startWalk", r"gvc::Iommu::startWalk\(.*\)"),
    ("Iommu::walkDone", r"gvc::Iommu::walkDone\(.*\)"),
    ("PageTableWalker::pump", r"gvc::PageTableWalker::pump\(\)"),
    ("PageTableWalker::step", r"gvc::PageTableWalker::step\(.*\)"),
]

# An event callback: the invoke() of a lambda stored in a SmallFunc.
EVENT = re.compile(r"gvc::SmallFunc<void \(\), \d+ul>::OpsFor<(.*)::"
                   r"\{lambda\(\)#(\d+)\}, true>::invoke\(.*\)")
HOP = re.compile(r"gvc::Hop<(.*)>::at\(.*\)")
# Events raised inside these functions are hot too.
EVENT_OWNERS = re.compile(r"gvc::(ComputeUnit|PageTableWalker)::(\w+)\(")
CLONE = re.compile(r" \[clone [^]]*\]")


def short(cls):
    """gvc::A<gvc::B, ...> -> A<B>: the class and its first argument."""
    cls = cls.replace("gvc::", "")
    m = re.fullmatch(r"(\w+)<(\w+)[,>].*", cls)
    return f"{m.group(1)}<{m.group(2)}>" if m else cls


def hop_label(args):
    """Label a Hop<Owner, &Owner::fn> trampoline by its target."""
    depth = 0
    for i, c in enumerate(args):
        depth += (c == "<") - (c == ">")
        if c == "," and depth == 0:
            return "Hop " + short(args[:i]) + "::" + \
                args.rsplit("::", 1)[1]
    return "Hop " + args


def label_of(name):
    """The report label of a demangled symbol, or None if not hot."""
    clone = " [clone]" if CLONE.search(name) else ""
    name = CLONE.sub("", name)
    for label, pattern in FUNCTIONS:
        if re.fullmatch(pattern, name):
            return label + clone
    m = EVENT.fullmatch(name)
    if not m:
        return None
    hop = HOP.fullmatch(m.group(1))
    if hop:
        return hop_label(hop.group(1))
    owner = EVENT_OWNERS.match(m.group(1))
    if owner:
        return f"{owner.group(1)}::{owner.group(2)} event #{m.group(2)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("--nm", default="nm", help="nm to run (default: nm)")
    args = ap.parse_args()
    try:
        out = subprocess.run([args.nm, "-S", "-C", "--defined-only",
                              args.binary], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"hot_symbols: {e}")

    sizes = {}
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[2] not in "tTW":
            continue
        label = label_of(parts[3])
        if label:
            sizes[label] = int(parts[1], 16)

    for label, _ in FUNCTIONS:
        if not any(k == label or k.startswith(label + " [")
                   for k in sizes):
            sizes[label] = None
    for label in sorted(sizes):
        size = sizes[label]
        print(f"{'inlined' if size is None else size:>8}  {label}")
    if not any(k.startswith("Hop ") for k in sizes):
        sys.exit(f"hot_symbols: no Hop trampoline in {args.binary}")


if __name__ == "__main__":
    main()
