/* Process CPU time with nanosecond resolution: getrusage, behind
   Sys.time, reports whole microseconds, too coarse for operations
   that take tens of microseconds. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double lzbench_cpu_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

value lzbench_cpu_seconds_byte(value unit)
{
  return caml_copy_double(lzbench_cpu_seconds(unit));
}
