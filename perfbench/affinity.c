/* CPU placement for the benchmark's own threads and children. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>

/* pin the calling thread to the CPUs of an OCaml int list; threads and
   processes it creates afterwards inherit the mask */
value perfbench_pin(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1))
    CPU_SET(Int_val(Field(l, 0)), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    caml_failwith("sched_setaffinity");
  CAMLreturn(Val_unit);
}

/* the CPUs the calling thread may run on, highest first */
value perfbench_allowed(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    caml_failwith("sched_getaffinity");
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) {
      cell = caml_alloc(2, 0);
      Store_field(cell, 0, Val_int(c));
      Store_field(cell, 1, list);
      list = cell;
    }
  CAMLreturn(list);
}
