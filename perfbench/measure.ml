(* Clocks, resource probes, order statistics and the JSON the benchmark
   prints. Everything here is measurement plumbing; no taxogram code. *)

let now = Unix.gettimeofday

(* user+sys seconds of this process, all domains and threads *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the text following the first occurrence of [pat] in [s] *)
let after s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
        | _ -> None)
      (String.split_on_char '\n' (read_file path))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in " ^ path)

(* restart this process's VmHWM from its current resident set *)
let reset_peak_rss () = write_file "/proc/self/clear_refs" "5"

let clock_ticks = 100.0

(* user+sys seconds of another process, from /proc/<pid>/stat (clock-tick
   resolution); the command field may contain spaces, so split after ')' *)
let cpu_of_pid pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let start = String.rindex s ')' + 2 in
  let rest = String.sub s start (String.length s - start) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of stat(5); [rest] starts at field 3 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks

(* --- CPU placement and host speed ---------------------------------------- *)

(* On a 2-vCPU VM with noisy neighbours the two vCPUs run at different
   and drifting speeds (a loop pinned to one ran 570 ms against
   370-460 ms on the other), and the scheduler moves work between them,
   which makes op times bimodal. So single-threaded measured work is
   pinned to one "work" CPU, helpers (load-generating clients) to the
   other, and 2-way work gets both. A calibration kernel timed on each
   CPU between ops gives each CPU's speed; times are reported at the
   host's reference speed (see [slowdown]; raw values stay in the
   details line).
   The kernel is the benchmark's own allocation-heavy OCaml code, not
   the program's, and runs in a forked process so it adds nothing to the
   measured process's heap or resident set. *)

(* pin the calling thread; threads and processes it creates afterwards
   inherit the CPUs *)
external pin : int list -> unit = "perfbench_pin"

external allowed : unit -> int list = "perfbench_allowed"

(* the CPUs the run started with, before any pinning *)
let host_cpus = allowed ()

let work_cpu, help_cpu =
  match host_cpus with
  | w :: h :: _ -> (w, h)
  | [ w ] -> (w, w)
  | [] -> (0, 0)

let pin_work () = pin [ work_cpu ]

let pin_help () = pin [ help_cpu ]

let pin_both () = pin [ work_cpu; help_cpu ]

let kernel () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 mod 30011) (string_of_int i)
  done;
  let l = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h []) in
  ignore (Sys.opaque_identity l);
  now () -. t0

type calibrator = { pid : int; ask : Unix.file_descr; answer : in_channel }

let calibrator = ref None

(* kernel seconds on the work CPU and on the helper CPU *)
let calib_work = ref []

let calib_help = ref []

(* fork the calibrator; call before any thread or domain exists *)
let start_calibrator () =
  let ask_r, ask_w = Unix.pipe () and ans_r, ans_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close ask_w;
    Unix.close ans_r;
    let oc = Unix.out_channel_of_descr ans_w in
    let b = Bytes.create 1 in
    let on cpu =
      pin [ cpu ];
      kernel ()
    in
    (try
       while Unix.read ask_r b 0 1 = 1 do
         let w = on work_cpu in
         let h = on help_cpu in
         Printf.fprintf oc "%.9f %.9f\n%!" w h
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close ask_r;
    Unix.close ans_w;
    (* processes spawned later must not hold the calibrator's pipe open *)
    Unix.set_close_on_exec ask_w;
    Unix.set_close_on_exec ans_r;
    calibrator := Some { pid; ask = ask_w; answer = Unix.in_channel_of_descr ans_r }

let stop_calibrator () =
  match !calibrator with
  | None -> ()
  | Some c ->
    calibrator := None;
    Unix.close c.ask;
    close_in_noerr c.answer;
    ignore (Unix.waitpid [] c.pid)

(* one kernel on each CPU. The child processes in [pause] (running
   servers) are stopped meanwhile, so work they do in the background
   slows the measured ops but not the kernel, and is not divided out. *)
let calibrate ?(pause = []) () =
  match !calibrator with
  | None -> ()
  | Some c ->
    let paused =
      List.filter
        (fun pid ->
          match Unix.kill pid Sys.sigstop with
          | () -> (
            (* returns once the process has actually stopped *)
            match Unix.waitpid [ Unix.WUNTRACED ] pid with
            | _, Unix.WSTOPPED _ -> true
            | _ -> false)
          | exception Unix.Unix_error _ -> false)
        pause
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun pid -> try Unix.kill pid Sys.sigcont with Unix.Unix_error _ -> ()) paused)
      (fun () ->
        ignore (Unix.write_substring c.ask "w" 0 1);
        Scanf.sscanf (input_line c.answer) "%f %f" (fun w h ->
            calib_work := w :: !calib_work;
            calib_help := h :: !calib_help))

(* minor words (millions) and major collections of this domain during [f] *)
let allocation f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  ( v,
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

(* --- order statistics --------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* the tail the benchmark reports: p99 from 1000 samples on, below that
   the highest order statistic with at least ten samples above it, never
   below the median. Returns (value, percentile used, sample count). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.0, 0)
  else
    let k =
      if n >= 1000 then int_of_float (Float.ceil (0.99 *. float_of_int n))
      else max ((n + 1) / 2) (n - 10)
    in
    (a.(k - 1), 100.0 *. float_of_int k /. float_of_int n, n)

(* the kernel's time at the reference speed: a round figure in the range
   its median took (13-17 ms) on the 2-vCPU host the benchmark was
   defined on, so reported times read as that host's typical
   milliseconds *)
let calib_reference = 0.016

(* a CPU's kernel time relative to the reference (> 1: slow) *)
let slowdown_work () = median !calib_work /. calib_reference

let slowdown_help () = median !calib_help /. calib_reference

(* the host's: both CPUs' speeds summed. Times are scaled by this one
   also when their work ran on the work CPU alone, because each CPU's
   reading wanders: in fourteen 10-seed sweeps of one workload each,
   scaling by it left no time but set-up spreading by more than 0.13
   (quartile distance over median), while the work CPU's own reading
   left up to 0.23 and raw times up to 0.30. *)
let slowdown () = 2.0 /. ((1.0 /. slowdown_work ()) +. (1.0 /. slowdown_help ()))

(* first and third quartile, as Python's statistics.quantiles(n=4) *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (nan, nan)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (4 * j)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
    ^ "}"

(* --- what a workload gets and gives back -------------------------------- *)

type ctx = {
  seed : int;
  seconds : float;  (* measured time of one run *)
  traced : bool;
  work : string;  (* scratch directory inside the checkout *)
  serve_exe : string;  (* the tsg-serve binary built from this checkout *)
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  details : (string * json) list;  (* sample counts, percentiles, params *)
}

(* per-sample summary for the details line *)
let summary xs =
  let q1, q3 = quartiles xs in
  Obj
    [
      ("n", Int (List.length xs));
      ("median", Num (median xs));
      ("q1", Num q1);
      ("q3", Num q3);
    ]
