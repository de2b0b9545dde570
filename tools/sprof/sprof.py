#!/usr/bin/env python3
"""Symbolize sprof sample files and print where the samples fell.

    sprof.py [--top N] run1.sprof [run2.sprof ...]

Samples of all the files given are pooled (they must come from one build of
one executable). Addresses inside the executable are resolved with
`addr2line -i`, which needs line tables: build with
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only (ci/profile.sh does). Four
tables are printed, each as a share of all samples:

  by crate    the crate the sampled code was written in: the innermost frame
              of the inline chain that lies in a workspace crate. Generic
              std code monomorphized out of line (a BinaryHeap sift, a sort)
              has no such frame and is listed under std; samples in a shared
              library are listed under its name, with the crate that made
              the call beside it when the stack scan found one.
  self        the function whose machine code was running (the outermost
              frame of the chain), inlined callees included.
  inclusive   every function on the inline chain, so a function that was
  of inlines  inlined everywhere still shows what it costs. Not a call-graph
              inclusive time: out-of-line callees are not added to callers.
  library     samples in a shared library by the innermost frame at the call
  calls       site (`alloc`, `dealloc`, `copy_nonoverlapping`: which libc
              entry it was) and the crate that frame was inlined into.

A shared library has no line tables here, so its samples are named after the
nearest exported symbol below them: glibc's static `_int_malloc`, `_int_free`
and `malloc_consolidate` read as `__default_morecore`, the symbol they follow.
"""
import bisect
import collections
import re
import subprocess
import sys


def load(paths):
    """(executable, [((file, offset), (file, offset) of the caller or None)])."""
    exe, samples = None, []
    for path in paths:
        bases, ranges, raw = {}, [], []
        with open(path) as f:
            for line in f:
                tag, _, rest = line.rstrip("\n").partition(" ")
                if tag == "exe":
                    if exe not in (None, rest):
                        sys.exit(f"{path}: samples of {rest}, the others are of {exe}")
                    exe = rest
                elif tag == "map":
                    lo, hi, perms, off, name = rest.split(" ", 4)
                    if int(off, 16) == 0:
                        bases.setdefault(name, int(lo, 16))
                    if "x" in perms:
                        ranges.append((int(lo, 16), int(hi, 16), name))
                elif tag == "s":
                    raw.append([int(a, 16) for a in rest.split()])
        ranges.sort()
        starts = [r[0] for r in ranges]

        def locate(addr):
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < ranges[i][1]:
                name = ranges[i][2]
                return name, addr - bases.get(name, ranges[i][0])
            return None, addr

        # A return address belongs to the call before it: symbolize that.
        samples += [(locate(rip), locate(ret - 1) if ret else None) for rip, ret in raw]
    if exe is None:
        sys.exit("no sample file names its executable")
    return exe, samples


def addr2line(exe, addrs):
    """{addr: [(function, file), ...]} innermost frame first."""
    addrs = sorted(addrs)
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = chains.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((out[i], out[i + 1].rsplit(":", 1)[0]))
            i += 2
    return chains


def dynsyms(lib):
    """Sorted (value, name) of a shared library's exported functions."""
    out = subprocess.run(["nm", "-D", "--defined-only", lib],
                         capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] in "TtWwi":
            syms.append((int(parts[0], 16), parts[2].split("@")[0]))
    return sorted(syms)


HASH = re.compile(r"::h[0-9a-f]{16}$")
GENERIC = re.compile(r"<[^<>]*>")


def short(fn):
    """`<T as Trait<U>>::f::h0123...` -> `T::f`, generic arguments dropped."""
    fn = HASH.sub("", fn)
    if fn.startswith("<"):
        depth = 0
        for i, ch in enumerate(fn):
            depth += (ch == "<") - (ch == ">")
            if depth == 0:
                fn = fn[1:i].split(" as ")[0] + fn[i + 1:]
                break
    while True:
        cut = GENERIC.sub("", fn)
        if cut == fn:
            return fn
        fn = cut


def frame_name(fn, path):
    """Line tables name an inlined function without its path: add the file."""
    fn = short(fn)
    if "::" in fn or path in ("?", "??"):
        return fn
    return f"{fn} [{'/'.join(path.split('/')[-2:])}]"


def crate_of(path):
    m = re.search(r"/rustc/[^/]+/library/([^/]+)/", path)
    if m:
        return "std (" + m.group(1) + ")"
    m = re.search(r"/(?:deps|registry/src/[^/]+)/([A-Za-z_]+)-\d", path)
    if m:
        return "std (" + m.group(1) + ")"
    m = re.search(r"(?:^|/)crates/([^/]+)/", path)
    if m:
        return m.group(1)
    if re.search(r"(?:^|/)(tests|examples|benchmark)/", path):
        return "harness"
    return None


def home_crate(chain):
    """The innermost workspace crate on an inline chain; for std code
    compiled out of line, the crate of the function itself."""
    for _, path in chain:
        c = crate_of(path)
        if c and not c.startswith("std"):
            return c
    return crate_of(chain[-1][1]) or "?"


def table(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"  {100 * n / total:6.2f} %  {n:6d}  {name}")


def main(argv):
    top = 25
    if argv[:1] == ["--top"]:
        top, argv = int(argv[1]), argv[2:]
    if not argv:
        sys.exit(__doc__)
    exe, samples = load(argv)
    total = len(samples)
    if total == 0:
        sys.exit("no samples")
    in_exe = {a for (f, a), c in samples if f == exe}
    in_exe |= {c[1] for _, c in samples if c and c[0] == exe}
    chains = addr2line(exe, in_exe)
    libs = {}

    by_crate = collections.Counter()
    self_fn = collections.Counter()
    inclusive = collections.Counter()
    lib_calls = collections.Counter()
    unknown = [("?", "?")]
    for (file, addr), caller in samples:
        if file == exe:
            chain = chains.get(addr) or unknown
            by_crate[home_crate(chain)] += 1
            self_fn[frame_name(*chain[-1])] += 1
            for fn in {frame_name(*frame) for frame in chain}:
                inclusive[fn] += 1
            continue
        lib = file.rsplit("/", 1)[-1] if file else "[kernel, vdso or jit]"
        sym = "?"
        if file:
            syms = libs.setdefault(file, dynsyms(file))
            i = bisect.bisect_right(syms, (addr, "\xff")) - 1
            if i >= 0:
                sym = syms[i][1]
        site = (chains.get(caller[1]) if caller else None) or unknown
        by_crate[f"{lib}  <- {home_crate(site)}"] += 1
        self_fn[f"{lib}:{sym}"] += 1
        inclusive[f"{lib}:{sym}"] += 1
        lib_calls[f"{frame_name(*site[0])}  <- {home_crate(site)}"] += 1

    print(f"{total} samples of {exe}")
    table("by crate", by_crate, total, top)
    table("self (function whose code was running)", self_fn, total, top)
    table("inclusive of inlines (every function on the inline chain)", inclusive, total, top)
    table("library calls (innermost frame at the call site)", lib_calls, total, top)


if __name__ == "__main__":
    main(sys.argv[1:])
