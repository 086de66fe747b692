#!/bin/sh
# Run a command; pass when it exits with the expected code and its
# combined stdout+stderr contains the expected text.
#
#   expect.sh CODE TEXT CMD [ARG...]
#
# TEXT is a fixed string ("" matches anything). On failure the output
# is printed so `ctest --output-on-failure` shows why.
code=$1
text=$2
shift 2
out=$("$@" 2>&1)
got=$?
if [ "$got" -ne "$code" ]; then
    printf '%s\n' "$out"
    echo "expected exit code $code, got $got"
    exit 1
fi
if [ -n "$text" ] && ! printf '%s\n' "$out" | grep -qF -- "$text"; then
    printf '%s\n' "$out"
    echo "output does not contain: $text"
    exit 1
fi
exit 0
