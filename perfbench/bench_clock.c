/* Monotonic nanosecond clock for the benchmark's own timers, kept apart
   from the program's Obs clock so the measuring code never changes when
   the measured code does. */
#include <time.h>
#include <caml/mlvalues.h>

value rrbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
