(* tsg-blast: open-loop TCP load generator for tsg-serve and tsg-router.

     tsg-serve --patterns p.pat --taxonomy d.tax --listen 7411 &
     tsg-blast --port 7411 --duration 30 --clients 8
     tsg-blast --port 7411 --request "top-k 5 support" --rate 200
     tsg-blast --port 7400 --router --min-success 0.99

   Each client connection pipelines one request line plus a [health]
   barrier per round (data queries are batched server-side until a
   barrier flushes them), paced at --rate rounds per second per client
   (0 = as fast as the socket accepts). A separate reader thread drains
   replies, so senders never back off on a slow server — the load is
   open-loop, which is exactly what overload protection has to survive.

   With --router each round sends a single tagged request
   ([id <n> <request>]) instead: tagged data queries are answered
   immediately (no barrier needed), replies are matched by tag, and the
   round-trip of every request is measured directly. Works against
   tsg-router and tsg-serve alike.

   Prints an aggregate summary (reply counts by class, a per-error-code
   breakdown, round-trip p50/p99) and exits non-zero when no reply ever
   arrived, a connection saw a malformed stream, or the success rate
   ok/(ok+errors) fell below --min-success. *)

module Protocol = Tsg_query.Protocol

open Cmdliner

type tally = {
  lock : Mutex.t;
  mutable sent : int; (* request lines written, barriers excluded *)
  mutable ok : int;
  mutable errors : int;
  mutable overloaded : int;
  codes : (string, int) Hashtbl.t; (* error code -> count *)
  mutable rtt_s : float list; (* per-round round trips *)
  mutable broken : int; (* connections that died mid-stream *)
}

let tally () =
  {
    lock = Mutex.create ();
    sent = 0;
    ok = 0;
    errors = 0;
    overloaded = 0;
    codes = Hashtbl.create 8;
    rtt_s = [];
    broken = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let count_error t code =
  let name = Protocol.code_string code in
  locked t (fun () ->
      t.errors <- t.errors + 1;
      if code = Protocol.Overloaded then t.overloaded <- t.overloaded + 1;
      Hashtbl.replace t.codes name
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.codes name)))

let client ~host ~port ~request ~rate ~router ~deadline t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (host, port)) with
  | exception Unix.Unix_error _ ->
    locked t (fun () -> t.broken <- t.broken + 1);
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | () ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* send times of in-flight rounds, consumed by the reader in FIFO
       order (the protocol preserves request order per connection) *)
    let pending : float Queue.t = Queue.create () in
    let qlock = Mutex.create () in
    let pop_pending () =
      Mutex.lock qlock;
      let v = Queue.take_opt pending in
      Mutex.unlock qlock;
      v
    in
    let note_rtt sent_at =
      match sent_at with
      | Some s ->
        let rtt = Unix.gettimeofday () -. s in
        locked t (fun () -> t.rtt_s <- rtt :: t.rtt_s)
      | None -> ()
    in
    let reader () =
      try
        while true do
          let tag, block = Protocol.read_reply ic in
          (* in router mode every reply is tagged and ends one round *)
          if router && tag <> None then note_rtt (pop_pending ());
          match Protocol.reply_error block with
          | Some code -> count_error t code
          | None ->
            if String.starts_with ~prefix:"ok health" block then begin
              if not router then note_rtt (pop_pending ())
            end
            else if String.starts_with ~prefix:"ok" block then
              locked t (fun () -> t.ok <- t.ok + 1)
        done
      with End_of_file | Sys_error _ -> ()
    in
    let rt = Thread.create reader () in
    let seq = ref 0 in
    (try
       while Unix.gettimeofday () < deadline do
         if router then begin
           incr seq;
           output_string oc (Printf.sprintf "id %d %s\n" !seq request)
         end
         else begin
           output_string oc request;
           output_char oc '\n';
           output_string oc "health\n"
         end;
         Mutex.lock qlock;
         Queue.push (Unix.gettimeofday ()) pending;
         Mutex.unlock qlock;
         flush oc;
         locked t (fun () -> t.sent <- t.sent + 1);
         if rate > 0.0 then Thread.delay (1.0 /. rate)
       done;
       output_string oc "quit\n";
       flush oc;
       Unix.shutdown fd Unix.SHUTDOWN_SEND
     with Sys_error _ | Unix.Unix_error _ ->
       locked t (fun () -> t.broken <- t.broken + 1));
    Thread.join rt;
    try Unix.close fd with Unix.Unix_error _ -> ()

let run host port request duration clients rate router min_success =
  match Tsg_query.Serve.parse_bind_addr host with
  | Error d ->
    prerr_endline (Tsg_util.Diagnostic.to_string d);
    2
  | Ok host ->
    let t = tally () in
    let deadline = Unix.gettimeofday () +. duration in
    let threads =
      List.init clients (fun _ ->
          Thread.create
            (fun () -> client ~host ~port ~request ~rate ~router ~deadline t)
            ())
    in
    List.iter Thread.join threads;
    let rtt = Array.of_list t.rtt_s in
    Array.sort compare rtt;
    let ms q = 1000.0 *. Tsg_util.Stats.percentile_sorted q rtt in
    let replies = t.ok + t.errors in
    let success_rate =
      if replies = 0 then 0.0
      else float_of_int t.ok /. float_of_int replies
    in
    Printf.printf "tsg-blast: %d clients x %.1fs against port %d%s\n" clients
      duration port
      (if router then " (router mode)" else "");
    Printf.printf "  rounds sent:        %d\n" t.sent;
    Printf.printf "  ok replies:         %d\n" t.ok;
    Printf.printf "  error replies:      %d\n" t.errors;
    Printf.printf "  of which OVERLOADED %d\n" t.overloaded;
    List.iter
      (fun (code, n) -> Printf.printf "    error %-11s %d\n" code n)
      (List.sort compare
         (Hashtbl.fold (fun c n acc -> (c, n) :: acc) t.codes []));
    Printf.printf "  broken connections: %d\n" t.broken;
    Printf.printf "  success rate:       %.4f (min %.3f)\n" success_rate
      min_success;
    Printf.printf "  round rtt p50:      %.3f ms\n" (ms 50.0);
    Printf.printf "  round rtt p99:      %.3f ms\n" (ms 99.0);
    if replies = 0 then begin
      prerr_endline "tsg-blast: no replies received";
      1
    end
    else if success_rate < min_success then begin
      Printf.eprintf "tsg-blast: success rate %.4f below --min-success %.3f\n"
        success_rate min_success;
      1
    end
    else 0

let host_arg =
  let doc = "server address (an IPv4 or IPv6 literal)" in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "server port" in
  Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let request_arg =
  let doc =
    "request line to blast (each round also sends a $(b,health) barrier \
     so replies flush immediately; with $(b,--router) the request is \
     tagged instead and no barrier is sent)"
  in
  Arg.(value & opt string "top-k 5 support" & info [ "request" ] ~docv:"LINE" ~doc)

let duration_arg =
  let doc = "seconds to keep blasting" in
  Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"S" ~doc)

let clients_arg =
  let doc = "concurrent client connections" in
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)

let rate_arg =
  let doc = "rounds per second per client (0 = unpaced)" in
  Arg.(value & opt float 0.0 & info [ "rate" ] ~docv:"R" ~doc)

let router_arg =
  let doc =
    "tagged per-request mode: send $(b,id <n> <request>) lines and match \
     replies by tag — the natural way to drive tsg-router (also works \
     against tsg-serve, whose tagged replies flush immediately)"
  in
  Arg.(value & flag & info [ "router" ] ~doc)

let min_success_arg =
  let doc =
    "exit non-zero when ok/(ok+errors) falls below this fraction (no \
     replies at all always fails)"
  in
  Arg.(value & opt float 0.5 & info [ "min-success" ] ~docv:"FRAC" ~doc)

let cmd =
  let doc = "open-loop TCP load generator for tsg-serve and tsg-router" in
  Cmd.v
    (Cmd.info "tsg-blast" ~doc)
    Term.(
      const run $ host_arg $ port_arg $ request_arg $ duration_arg
      $ clients_arg $ rate_arg $ router_arg $ min_success_arg)

let () = exit (Cmd.eval' cmd)
