#!/bin/sh
# Fail if an ISA-specific kernel object defines a weak or COMDAT symbol.
#
#   scripts/check_isa_symbols.sh [BUILD_DIR]     (default: build)
#
# kernels_avx2.cc and kernels_avx512.cc are compiled with -mavx2 /
# -mavx512*, the rest of the library for the baseline ISA. An inline
# function or template those TUs emit as a weak (COMDAT) definition
# shares its symbol with the baseline copies, and the linker keeps
# whichever copy it sees first: baseline code could then run AVX-512
# instructions on a CPU without them. Their code must stay internal
# (anonymous namespaces, static) or be plain strong definitions.
set -eu

build=${1:-build}
status=0
for name in kernels_avx2.cc.o kernels_avx512.cc.o; do
    objs=$(find "$build" -name "$name" -path '*ideal_simd.dir*')
    if [ -z "$objs" ]; then
        echo "check_isa_symbols: $name not found under $build" >&2
        status=1
        continue
    fi
    for obj in $objs; do
        # Defined weak (W, V) and GNU unique (u) symbols.
        weak=$(nm -C "$obj" | awk '$2 ~ /^[WVu]$/')
        groups=$(readelf -g -W "$obj" | grep -i 'COMDAT' || true)
        if [ -n "$weak" ] || [ -n "$groups" ]; then
            echo "check_isa_symbols: $obj defines weak/COMDAT symbols:" >&2
            [ -n "$weak" ] && echo "$weak" >&2
            [ -n "$groups" ] && echo "$groups" >&2
            status=1
        else
            echo "check_isa_symbols: $obj ok (no weak or COMDAT symbols)"
        fi
    done
done
exit $status
