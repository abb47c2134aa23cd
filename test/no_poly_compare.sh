#!/bin/sh
# Two checks on the native code of the simulator's access path.
#
# 1. No polymorphic comparison.  A compare the type checker leaves
#    polymorphic compiles to a C call into the runtime (caml_equal,
#    caml_compare, ...) instead of one machine compare; on a per-access
#    path that call can cost more than the rest of the access.  This
#    scans the relocations of the native objects of lib/memsim,
#    lib/alloc, lib/core, lib/layout (every morph runs a layout engine),
#    lib/olden, lib/structures and Obs.Profile and lists every call it
#    finds.
#
# 2. Calls across modules are direct.  The build (dune-workspace) uses
#    the release profile, which compiles without -opaque; under -opaque
#    every call from Machine into Cache, Hierarchy, Tlb or Memory is an
#    indirect call that cannot be inlined.  The check fails when
#    Machine's object has no direct relocation to Cache.access, which is
#    what a build with -opaque (such as dune's dev profile) produces.
#
#   test/no_poly_compare.sh
set -eu

cd "$(dirname "$0")/.."
dune build @default
objs=_build/default/lib
hits=$(for o in "$objs"/memsim/.memsim.objs/native/*.o \
                "$objs"/alloc/.alloc.objs/native/*.o \
                "$objs"/core/.ccsl.objs/native/*.o \
                "$objs"/layout/.layout.objs/native/*.o \
                "$objs"/olden/.olden.objs/native/*.o \
                "$objs"/structures/.structures.objs/native/*.o \
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
echo "no polymorphic compare in lib/memsim, lib/alloc, lib/core, lib/layout, lib/olden, lib/structures or Obs.Profile"

machine="$objs"/memsim/.memsim.objs/native/memsim__Machine.o
if ! objdump -dr "$machine" |
    grep -qE '\scamlMemsim__Cache(\.|__)access_[0-9]+([-+]0x[0-9a-f]+)?$'; then
  echo "$machine makes no direct call to Cache.access: the build compiles with -opaque" >&2
  exit 1
fi
echo "Machine calls Cache.access directly (no -opaque)"
