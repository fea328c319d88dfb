#!/usr/bin/env bash
# Linker probe: fail when the src libraries define an lmo:: function that no
# product binary links. The products (every bench, the examples, lmo_served
# and perfbench's driver) are built at -O0 with -ffunction-sections and
# --gc-sections in build-probe/, so a function reaches a product only when
# the product calls it; the libraries' lmo:: code symbols minus the
# products' are then the code only tests use. Header-inline functions are
# out of its reach: a library object emits one only where library code
# calls it.
#
#   tools/unlinked_symbols.sh
#
# Exits 1 when an unlinked function is not on the survivor list below, or
# when a survivor matches no unlinked function (it became linked or was
# deleted), so the list cannot go stale.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT=build-probe

# The one survivor list: a demangled-name prefix, a tab, then the reason.
SURVIVORS="$(cat <<'EOF'
lmo::Rng::uniform_int(	test fixture: random sizes, ranks and trees in property tests
lmo::core::priced_by_path(	goes when LmoParams reads link classes (ROADMAP item 2)
lmo::estimate::MeasurementStore::MeasurementStore(lmo::estimate::MeasurementStore&&)	pair of the linked move assignment; tests move-construct stores
lmo::estimate::PlanBuilder::PlanBuilder()	test fixture: flat plans with no topology
lmo::sim::GroundTruth::L(	test oracle: the true link latency fits are checked against
lmo::sim::operator==(lmo::sim::Topology const&	test oracle: topology JSON round trips
lmo::sim::operator==(lmo::sim::TopologyLevel const&	test oracle: topology JSON round trips
EOF
)"

FLAGS=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
PRODUCTS=$(basename -s .cpp bench/bench_*.cpp examples/*.cpp tools/lmo_served.cpp)
cmake -B "$OUT" -S . "${FLAGS[@]}" >/dev/null
cmake --build "$OUT" -j "$(nproc)" --target $PRODUCTS >/dev/null
cmake -B "$OUT/perfbench" -S perfbench "${FLAGS[@]}" >/dev/null
cmake --build "$OUT/perfbench" -j "$(nproc)" >/dev/null

# Defined code symbols of functions in namespace lmo (mangled _ZN3lmo...,
# so std:: templates over lmo types and lambdas stay out), demangled.
syms() {
  nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KRO]*3lmo/ { print $3 }' |
    sort -u
}
BINS=$(for p in $PRODUCTS; do find "$OUT" -type f -name "$p"; done)
comm -23 <(syms "$OUT"/src/*/*.a) <(syms $BINS "$OUT/perfbench/lmo_perfbench") |
  c++filt | sort -u >"$OUT/unlinked.txt"

awk -F'\t' '
  NR == FNR { if ($1 != "") { reason[$1] = $2; hits[$1] = 0 }; next }
  { n++; ok = 0; for (p in reason) if (index($0, p) == 1) { ok = 1; hits[p]++ }
    if (!ok) { print "unlinked by every product: " $0 > "/dev/stderr"; bad = 1 } }
  END { for (p in hits) if (!hits[p]) {
          print "stale survivor (linked now, or gone): " p " (" reason[p] ")" > "/dev/stderr"
          bad = 1 }
        if (!bad) print "unlinked_symbols: " n + 0 " unlinked functions, all listed survivors"
        exit bad }' <(printf '%s\n' "$SURVIVORS") "$OUT/unlinked.txt"
