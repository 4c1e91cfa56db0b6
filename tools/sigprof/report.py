#!/usr/bin/env python3
"""Symbolise a sigprof.so dump: self / inclusive time by function, and the
hottest addresses with their (inlined) source lines.

    report.py sigprof.12345 [--top 25] [--under NAME]

A sample counts as *self* time of the function holding its innermost frame
and as *inclusive* time of every function on its stack, once. Functions are
the binary's real (non-inlined) ones, `addr2line -f -C`; the address table
adds the inline chain, `-i`, so a hot line inside an inlined callee shows.
`--under NAME` keeps only stacks with a function whose name contains NAME
(e.g. the measured window without the warm-up).
"""
import argparse
import bisect
import collections
import subprocess


def parse(path):
    """The sampled stacks, the executable file mappings (sorted), each mapped
    file's load base (its lowest mapped address: what its ELF addresses add
    to), and how many samples the buffer had no room for."""
    stacks, maps, bases = [], [], {}
    with open(path) as dump:
        header = dump.readline().split()
        dropped = int(header[3])
        lines = iter(dump)
        for line in lines:
            if line.strip() == "maps":
                break
            frames = [int(a, 16) for a in line.split()]
            if frames:
                stacks.append(frames)
        for line in lines:
            fields = line.split()
            if len(fields) >= 6 and fields[5].startswith("/"):
                start, end = (int(a, 16) for a in fields[0].split("-"))
                bases[fields[5]] = min(start, bases.get(fields[5], start))
                if "x" in fields[1]:
                    maps.append((start, end, fields[5]))
    return stacks, sorted(maps), bases, dropped


def symbolise(addresses, maps, bases):
    """address -> [(function, file:line), ...], innermost first."""
    starts = [m[0] for m in maps]
    by_object = collections.defaultdict(list)
    for addr in addresses:
        at = bisect.bisect_right(starts, addr) - 1
        if at >= 0 and addr < maps[at][1]:
            by_object[maps[at][2]].append(addr)
    resolved = {}
    for obj, addrs in by_object.items():
        base = bases[obj]
        try:
            out = subprocess.run(
                ["addr2line", "-a", "-f", "-C", "-i", "-e", obj] + [hex(a - base) for a in addrs],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            continue
        chains, current = [], None
        for line in out:
            # `-a` prints each queried address, unindented, ahead of its frames.
            if line.startswith("0x") and " " not in line:
                current = []
                chains.append(current)
            elif current is not None:
                current.append(line)
        for addr, chain in zip(addrs, chains):
            resolved[addr] = list(zip(chain[0::2], chain[1::2]))
    return resolved


def clip(name, width):
    return name if len(name) <= width else name[: width - 1] + "…"


def short(location):
    """`crates/...` or `library/...` instead of an absolute path."""
    for anchor in ("/crates/", "/ledger/", "/library/", "/vendor/"):
        if anchor in location:
            return location[location.index(anchor) + 1:]
    return location


def main():
    args = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    args.add_argument("dump")
    args.add_argument("--top", type=int, default=25)
    args.add_argument("--under", metavar="NAME")
    args = args.parse_args()

    stacks, maps, bases, dropped = parse(args.dump)
    # Frame 0 is the interrupted instruction; callers hold return addresses,
    # one past the call they are inside.
    stacks = [[pc] + [ret - 1 for ret in callers] for pc, *callers in stacks]
    frames = symbolise({a for s in stacks for a in s}, maps, bases)

    def function(addr):
        chain = frames.get(addr)
        return chain[-1][0] if chain else "??"

    if args.under:
        stacks = [s for s in stacks if any(args.under in function(a) for a in s)]
    total = len(stacks)
    if not total:
        raise SystemExit("no samples" + (f" under {args.under!r}" if args.under else ""))

    self_time, inclusive, hot = collections.Counter(), collections.Counter(), collections.Counter()
    for stack in stacks:
        self_time[function(stack[0])] += 1
        hot[stack[0]] += 1
        for name in {function(a) for a in stack}:
            inclusive[name] += 1

    note = f", {dropped} dropped (sample buffer full)" if dropped else ""
    scope = f" under {args.under!r}" if args.under else ""
    print(f"{total} samples{scope}{note}\n")
    print(f"{'self':>7} {'incl':>7}  function")
    listed = {name for name, _ in self_time.most_common(args.top)}
    listed |= {name for name, _ in inclusive.most_common(args.top)}
    for name in sorted(listed, key=lambda n: (-self_time[n], -inclusive[n])):
        share = f"{100 * self_time[name] / total:6.1f}% {100 * inclusive[name] / total:6.1f}%"
        print(f"{share}  {clip(name, 120)}")
    print(f"\n{'self':>7}  address: source line, then the lines it is inlined into")
    for addr, count in hot.most_common(args.top):
        chain = frames.get(addr) or [("??", "??")]
        where = " <- ".join(short(location) for _, location in chain)
        print(f"{100 * count / total:6.1f}%  {clip(chain[-1][0], 60)}: {where}")


if __name__ == "__main__":
    main()
