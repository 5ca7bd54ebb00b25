(* A real tsg-serve --listen process and closed-loop TCP connections to
   it. Every spawned server is registered so the run stops and reaps it
   on every exit path. *)

module M = Measure

type t = { pid : int; port : int; log : string }

let live : t list ref = ref []

let spawned = ref 0

(* SIGTERM drains gracefully, which waits for open connections to
   close; an interrupted run, whose connections are still open, kills *)
let stop ?(signal = Sys.sigterm) t =
  (try Unix.kill t.pid signal with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun s -> s.pid <> t.pid) !live

(* helper processes: this benchmark executable run for one set-up
   sample (see Wl_pipe). A helper stops its own server, so it is always
   asked with SIGTERM, before the servers go. *)
let helpers : int list ref = ref []

let stop_all ?signal () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !helpers;
  helpers := [];
  List.iter (stop ?signal) !live

(* a calibration kernel on each CPU (see Measure) with every live server
   paused *)
let calibrate () = M.calibrate ~pause:(List.map (fun s -> s.pid) !live) ()

(* run this benchmark executable with [args] and return its stdout; it
   starts with both CPUs, as this process did, so its work CPU is ours *)
let run_helper args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  M.pin_both ();
  let pid =
    Fun.protect ~finally:M.pin_work (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr)
  in
  Unix.close w;
  helpers := pid :: !helpers;
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  let _, status = Unix.waitpid [] pid in
  helpers := List.filter (fun p -> p <> pid) !helpers;
  match status with
  | Unix.WEXITED 0 -> out
  | _ -> failwith ("helper " ^ String.concat " " args ^ " failed")

type conn = { ic : in_channel; oc : out_channel; mutable tag : int }

let connect port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.TCP_NODELAY true;
  Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr s; oc = Unix.out_channel_of_descr s; tag = 0 }

let close c = close_out_noerr c.oc

let read_line c =
  match In_channel.input_line c.ic with
  | Some l -> l
  | None -> failwith "tsg-serve closed the connection"

(* one tagged request, answered immediately; returns the reply block
   untagged (header line plus result lines, newline-separated) *)
let request c line =
  c.tag <- c.tag + 1;
  let prefix = Printf.sprintf "id %d " c.tag in
  output_string c.oc (prefix ^ line ^ "\n");
  flush c.oc;
  let first = read_line c in
  let plen = String.length prefix in
  if String.length first < plen || String.sub first 0 plen <> prefix then
    failwith ("reply out of order: " ^ first);
  let head = String.sub first plen (String.length first - plen) in
  match String.split_on_char ' ' head with
  | [ "ok"; n ] when int_of_string_opt n <> None ->
    let lines = List.init (int_of_string n) (fun _ -> read_line c) in
    String.concat "\n" (head :: lines)
  | _ -> head

(* a barrier verb: [stats] answers a block ending in "end stats" *)
let stats c =
  output_string c.oc "stats\n";
  flush c.oc;
  let rec go acc =
    match read_line c with
    | "end stats" -> List.rev acc
    | "begin stats" -> go acc
    | l -> go (l :: acc)
  in
  go []

let health c =
  output_string c.oc "health\n";
  flush c.oc;
  read_line c

(* spawn, wait for the listening line on stderr, then for a healthy
   reply; returns the server and the seconds from spawn to healthy *)
let start ~exe ~work args =
  incr spawned;
  let log = Filename.concat work (Printf.sprintf "serve-%d.log" !spawned) in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  (* started on the work CPU (see Measure), so its start-up runs there,
     with TSG_DOMAINS set to the domain count it picks by default when it
     may use all of the run's CPUs *)
  let env =
    Array.append
      [| Printf.sprintf "TSG_DOMAINS=%d" (min 8 (List.length M.host_cpus)) |]
      (Unix.environment ())
  in
  let t0 = M.now () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: (args @ [ "--listen"; "0" ])))
      env null null err
  in
  Unix.close err;
  Unix.close null;
  live := { pid; port = 0; log } :: !live;
  let deadline = t0 +. 120.0 in
  let rec port () =
    if M.now () > deadline then failwith ("tsg-serve did not start; see " ^ log);
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith ("tsg-serve exited at start-up: " ^ M.read_file log));
    let text = M.read_file log in
    match M.after text "listening on 127.0.0.1:" with
    | Some rest -> int_of_string (List.hd (String.split_on_char '\n' rest))
    | None ->
      Unix.sleepf 0.002;
      port ()
  in
  let t = { pid; port = port (); log } in
  live := t :: List.filter (fun s -> s.pid <> pid) !live;
  let c = connect t.port in
  let rec healthy () =
    let h = health c in
    if String.length h >= 9 && String.sub h 0 9 = "ok health" then ()
    else (Unix.sleepf 0.002; healthy ())
  in
  healthy ();
  let dt = M.now () -. t0 in
  close c;
  (t, dt)
