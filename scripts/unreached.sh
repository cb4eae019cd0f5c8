#!/usr/bin/env bash
# Traffic check for model mechanisms: prints the simulator functions that
# no binary links, then their count on stderr. Builds every bench binary
# and the perfbench harness in debug into target/unreached, and lists the
# demangled functions (nm types T/t) whose path starts in a simulator
# crate, closures and trait impls dropped, that the crates' rlibs define
# and no binary contains. The rlibs and binaries are the ones these two
# builds name in their artifact messages, so files that earlier builds
# left in the target directory do not count. Reporting only: the list
# rightly keeps test oracles, so it is not a CI gate.
#
#   scripts/unreached.sh > unreached.txt
set -euo pipefail
cd "$(dirname "$0")/.."
out=target/unreached
crates='simcore|hwmodel|hlwk_core|linuxsim|netsim|mpisim|workloads|cluster'
artifacts=$(
    cargo build -q --offline -p bench --bins --target-dir "$out" --message-format=json
    cargo build -q --offline --locked --manifest-path perfbench/harness/Cargo.toml \
        --target-dir "$out" --message-format=json
)
syms() { nm -C --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[Tt]$/ { sub(/^[^ ]* [Tt] /, ""); print }' | grep -E "^($crates)::" | grep -v '{{closure}}' | sort -u; }
built=$(grep '"reason":"compiler-artifact"' <<<"$artifacts")
rlibs=$(grep -oE "\"[^\"]*/lib($crates)-[0-9a-f]+\.rlib\"" <<<"$built" | tr -d '"' | sort -u)
bins=$(grep -oE '"executable":"[^"]+"' <<<"$built" | cut -d'"' -f4 | sort -u)
list=$(comm -23 <(syms $rlibs) <(syms $bins))
printf '%s\n' "$list"
echo "$(grep -c . <<<"$list") simulator functions reached by no binary" >&2
