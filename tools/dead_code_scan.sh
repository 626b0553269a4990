#!/usr/bin/env bash
# Dead-code gate: every robust:: function that one of the ten libraries
# defines must be kept by at least one non-test executable (apps, bench,
# examples and perfbench), or be listed with its reason in
# tools/dead_code_allowlist.txt.
#
#   tools/dead_code_scan.sh [build-dir]     # default: .dead_code_build
#
# The executables are built at -O0 with one section per function and data
# object and linked with --gc-sections, so each binary holds only what its
# main() reaches. The script compares, by mangled name, the functions the
# libraries define (nm types T and W under namespace robust) with those the
# executables keep, and prints each unkept one demangled. It exits 1 when a
# function is unkept and not allowlisted, or when an allowlist entry names a
# function an executable now keeps or no library defines any more.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/.dead_code_build}
allowlist=$root/tools/dead_code_allowlist.txt
jobs=${JOBS:-$(nproc)}

flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "dead_code_scan: building into $build" >&2
cmake -S "$root" -B "$build/main" -DROBUST_BUILD_TESTS=OFF "${flags[@]}" >&2
cmake --build "$build/main" -j "$jobs" >&2
# perfbench is its own CMake project over the same sources.
cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}" >&2
cmake --build "$build/perfbench" --target perfbench -j "$jobs" >&2

mapfile -t libs < <(find "$build/main/src" -name 'librobust_*.a' | sort)
mapfile -t exes < <({ find "$build/main/apps" "$build/main/bench" \
                          "$build/main/examples" -maxdepth 1 -type f \
                          -perm -u+x; echo "$build/perfbench/perfbench"; } |
                    sort)

# Global functions (T, W) whose mangled name lies in namespace robust.
robust_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TW]$/ && $3 ~ /^_ZN[KRO]*6robust/ { print $3 }' | sort -u
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
robust_functions "${libs[@]}" > "$work/defined"
robust_functions "${exes[@]}" > "$work/kept"
comm -23 "$work/defined" "$work/kept" | c++filt | sort -u > "$work/unkept"
c++filt < "$work/defined" | sort -u > "$work/defined.txt"
c++filt < "$work/kept" | sort -u > "$work/kept.txt"

# Allowlist: "<demangled function> # <reason>" per line; '#' starts a
# comment line.
status=0
: > "$work/allowed"
lineno=0
while IFS= read -r line || [[ -n $line ]]; do
  lineno=$((lineno + 1))
  [[ -z ${line//[[:space:]]/} || $line == \#* ]] && continue
  name=${line%% # *}
  reason=${line#* # }
  if [[ $name == "$line" || -z ${reason//[[:space:]]/} ]]; then
    echo "allowlist:$lineno: entry has no reason: $line"
    status=1
    continue
  fi
  printf '%s\n' "$name" >> "$work/allowed"
  if grep -Fxq -- "$name" "$work/kept.txt"; then
    echo "allowlist:$lineno: an executable keeps it now: $name"
    status=1
  elif ! grep -Fxq -- "$name" "$work/defined.txt"; then
    echo "allowlist:$lineno: no library defines it: $name"
    status=1
  fi
done < "$allowlist"

sort -u -o "$work/allowed" "$work/allowed"
comm -23 "$work/unkept" "$work/allowed" > "$work/dead"
while IFS= read -r name; do
  echo "unkept: $name"
  status=1
done < "$work/dead"

echo "dead_code_scan: ${#exes[@]} executables, ${#libs[@]} libraries," \
     "$(wc -l < "$work/defined") robust functions defined," \
     "$(wc -l < "$work/unkept") unkept ($(comm -12 "$work/unkept" \
     "$work/allowed" | wc -l) allowlisted)"
exit "$status"
