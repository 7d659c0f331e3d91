/* The OLC version word, kept in field 0 of every B+-tree node block.
 *
 * OCaml 5.1 has no atomic record fields, so these three stubs give the
 * node's first field the semantics of Atomic.get / compare_and_set /
 * set: sequentially consistent __atomic operations on Field(node, 0).
 * The field only ever holds an immediate (a tagged int), so a store
 * involves no write barrier, and the CAS compares the tagged words
 * exactly as Atomic.compare_and_set compares ints.  All three are
 * [@@noalloc]: no GC can run during the call, so the node cannot move
 * under it.
 *
 * The acquire fence ahead of the load keeps an optimistic reader's
 * earlier plain loads of the node before its validating re-read of the
 * version, the load-to-load order OCaml's own Atomic.get guarantees
 * (a no-op on x86, one barrier on weaker architectures).
 */

#include <caml/mlvalues.h>

CAMLprim value ei_olc_version_get(value node)
{
  __atomic_thread_fence(__ATOMIC_ACQUIRE);
  return __atomic_load_n(&Field(node, 0), __ATOMIC_SEQ_CST);
}

CAMLprim value ei_olc_version_cas(value node, value seen, value v)
{
  value expected = seen;
  return Val_bool(__atomic_compare_exchange_n(&Field(node, 0), &expected, v,
                                              0, __ATOMIC_SEQ_CST,
                                              __ATOMIC_SEQ_CST));
}

CAMLprim value ei_olc_version_set(value node, value v)
{
  __atomic_store_n(&Field(node, 0), v, __ATOMIC_SEQ_CST);
  return Val_unit;
}
