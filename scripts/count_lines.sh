#!/bin/sh
# Non-test source lines per crate: every line of each crates/*/src/**/*.rs
# above that file's first `#[cfg(test)]`, with `tests.rs` files excluded.
# Prints one `crate lines` row per crate, then the `sc-chain + sc-evm +
# sc-core` sum behind the north star's least-code bullet in ROADMAP.md.
# Takes no arguments.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} +
}

sum=0
for src in crates/*/src; do
    crate=${src#crates/}
    crate=${crate%/src}
    lines=$(count "$src")
    echo "$crate $lines"
    case $crate in
    chain | evm | core) sum=$((sum + lines)) ;;
    esac
done
echo "chain+evm+core $sum"
