/* Monotonic nanosecond clock for timing spans and histograms.
 *
 * CLOCK_MONOTONIC never steps backwards (NTP slews it but never jumps
 * it).  The nanosecond count fits an OCaml immediate int on 64-bit
 * platforms for ~146 years of uptime, so the stub allocates nothing and
 * is declared [@@noalloc] on the OCaml side.
 */

#include <time.h>
#include <caml/mlvalues.h>

CAMLprim value ei_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
