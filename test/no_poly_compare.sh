#!/bin/sh
# Fail when the simulator's access path calls OCaml's polymorphic
# comparison.  A compare the type checker leaves polymorphic compiles to a
# C call into the runtime (caml_equal, caml_compare, ...) instead of one
# machine compare; on a per-access path that call can cost more than the
# rest of the access.  This scans the relocations of the native objects of
# lib/memsim, lib/alloc and Obs.Profile and lists every call it finds.
#
#   test/no_poly_compare.sh
set -eu

cd "$(dirname "$0")/.."
dune build @default
objs=_build/default/lib
hits=$(for o in "$objs"/memsim/.memsim.objs/native/*.o \
                "$objs"/alloc/.alloc.objs/native/*.o \
                "$objs"/obs/.obs.objs/native/obs__Profile.o; do
  objdump -dr "$o" |
    grep -E '\scaml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)([-+]0x[0-9a-f]+)?$' |
    sed "s|^|$o: |"
done)
if [ -n "$hits" ]; then
  echo "polymorphic compare on the access path:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "no polymorphic compare in lib/memsim, lib/alloc or Obs.Profile"
