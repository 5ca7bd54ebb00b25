module Protocol = Tsg_query.Protocol
module Epoch = Tsg_query.Epoch
module Limiter = Tsg_util.Limiter
module Prng = Tsg_util.Prng
module Checksum = Tsg_util.Checksum

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type t = {
  host : Unix.inet_addr;
  port : int;
  r_name : string;
  io_timeout_s : float;
  pool_limit : int;
  lock : Mutex.t;
  mutable pool : conn list;
  mutable seq : int;
  r_window : Limiter.Window.t;
  r_breaker : Limiter.Breaker.t;
  r_up : bool Atomic.t;
  r_epoch : Epoch.t option Atomic.t;
  r_degraded : bool Atomic.t;
  (* jittered probe backoff: a down replica is re-probed on an
     exponential schedule with per-replica jitter, so a shard-wide
     restart does not summon every router's probes in lockstep *)
  backoff_base_s : float;
  backoff_cap_s : float;
  r_prng : Prng.t;  (** guarded by [lock] *)
  mutable fail_streak : int;  (** guarded by [lock] *)
  mutable retry_at : float;  (** guarded by [lock] *)
}

let create ?clock ?(io_timeout_s = 2.0) ?(window = 256) ?(breaker_window = 32)
    ?(breaker_min_samples = 8) ?(breaker_cooldown_s = 1.0) ?(pool_limit = 8)
    ?(backoff_base_s = 0.1) ?(backoff_cap_s = 2.0) ~host ~port ~name () =
  {
    host;
    port;
    r_name = name;
    io_timeout_s;
    pool_limit;
    lock = Mutex.create ();
    pool = [];
    seq = 0;
    r_window = Limiter.Window.create ~capacity:window;
    r_breaker =
      Limiter.Breaker.create ?clock ~window:breaker_window
        ~min_samples:breaker_min_samples ~cooldown_s:breaker_cooldown_s ();
    r_up = Atomic.make true;
    r_epoch = Atomic.make None;
    r_degraded = Atomic.make false;
    backoff_base_s;
    backoff_cap_s;
    (* deterministic per name+port (distinct replicas jitter apart), mixed
       with the wall clock so two routers fronting the same fleet do not
       share a schedule either *)
    r_prng =
      Prng.create
        (Checksum.mix64 (Checksum.fnv1a64 name)
           (Int64.of_float (Unix.gettimeofday () *. 1e6)));
    fail_streak = 0;
    retry_at = 0.0;
  }

let name t = t.r_name

let endpoint t = (t.host, t.port)

let window t = t.r_window

let breaker t = t.r_breaker

let up t = Atomic.get t.r_up

let epoch t = Atomic.get t.r_epoch

let set_epoch t e = Atomic.set t.r_epoch e

let degraded t = Atomic.get t.r_degraded

let set_degraded t d = Atomic.set t.r_degraded d

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let close_conn c =
  (* closing the channels would double-close the shared fd *)
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let close t =
  let conns = locked t (fun () ->
      let cs = t.pool in
      t.pool <- [];
      cs)
  in
  List.iter close_conn conns

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (t.host, t.port));
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let checkout t =
  match
    locked t (fun () ->
        match t.pool with
        | c :: rest ->
          t.pool <- rest;
          Some c
        | [] -> None)
  with
  | Some c -> c
  | None -> connect t

let checkin t c =
  let keep =
    locked t (fun () ->
        if List.length t.pool < t.pool_limit then begin
          t.pool <- c :: t.pool;
          true
        end
        else false)
  in
  if not keep then close_conn c

let next_tag t =
  locked t (fun () ->
      t.seq <- t.seq + 1;
      Printf.sprintf "r%d" t.seq)

let max_stale_blocks = 64

let call ?timeout_s t request =
  let timeout_s = Option.value ~default:t.io_timeout_s timeout_s in
  match checkout t with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: connect: %s" t.r_name (Unix.error_message e))
  | c -> (
    let tag = next_tag t in
    let attempt () =
      (try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO (Float.max 0.01 timeout_s)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      output_string c.oc (Printf.sprintf "id %s %s\n" tag request);
      flush c.oc;
      let rec await budget =
        if budget = 0 then failwith "too many unmatched replies"
        else
          let got_tag, block = Protocol.read_reply c.ic in
          if got_tag = Some tag then block
          else
            (* a reply abandoned by an earlier timed-out call on this
               pooled connection: skip it *)
            await (budget - 1)
      in
      await max_stale_blocks
    in
    match attempt () with
    | block ->
      checkin t c;
      Ok block
    | exception e ->
      close_conn c;
      let msg =
        match e with
        | End_of_file -> "connection closed"
        | Sys_blocked_io -> "read timed out"
        | Sys_error m -> m
        | Unix.Unix_error (ue, _, _) -> Unix.error_message ue
        | Failure m -> m
        | e -> Printexc.to_string e
      in
      Error (Printf.sprintf "%s: %s" t.r_name msg))

(* [... epoch <e> ...] anywhere in a health line *)
let epoch_of_health block =
  let rec scan = function
    | "epoch" :: e :: _ -> Epoch.of_string e
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (String.split_on_char ' ' block)

let backoff_delay t =
  locked t (fun () ->
      t.fail_streak <- min (t.fail_streak + 1) 16;
      let d =
        Float.min t.backoff_cap_s
          (t.backoff_base_s *. Float.pow 2.0 (float_of_int (t.fail_streak - 1)))
      in
      (* full jitter in [d/2, d): the point is that replicas (and
         routers) spread out, not the exact curve *)
      d /. 2.0 +. Prng.float t.r_prng (d /. 2.0))

let probe ?(timeout_s = 1.0) ?(force = false) t =
  let now = Unix.gettimeofday () in
  let backed_off =
    (not force)
    && (not (Atomic.get t.r_up))
    && locked t (fun () -> now < t.retry_at)
  in
  if backed_off then false
  else begin
    let healthy =
      match call ~timeout_s t "health" with
      | Ok block when String.starts_with ~prefix:"ok health" block ->
        Atomic.set t.r_epoch (epoch_of_health block);
        true
      | Ok _ | Error _ -> false
    in
    Atomic.set t.r_up healthy;
    if healthy then
      locked t (fun () ->
          t.fail_streak <- 0;
          t.retry_at <- 0.0)
    else begin
      let delay = backoff_delay t in
      locked t (fun () -> t.retry_at <- Unix.gettimeofday () +. delay)
    end;
    healthy
  end
