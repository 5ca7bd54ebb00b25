type clock = unit -> float

let wall_clock = Unix.gettimeofday

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

module Token_bucket = struct
  type t = {
    clock : clock;
    rate : float;
    burst : float;
    lock : Mutex.t;
    mutable tokens : float;
    mutable last : float;
  }

  let create ?(clock = wall_clock) ~rate ~burst () =
    if not (Float.is_finite rate && rate > 0.0) then
      invalid_arg "Token_bucket.create: rate must be finite and positive";
    let burst = Float.max 1.0 burst in
    {
      clock;
      rate;
      burst;
      lock = Mutex.create ();
      tokens = burst;
      last = clock ();
    }

  (* clocks may stall or step backwards (virtual clocks, NTP): elapsed
     time is clamped at zero so the bucket never drains spontaneously *)
  let refill t =
    let now = t.clock () in
    let elapsed = Float.max 0.0 (now -. t.last) in
    t.last <- Float.max t.last now;
    t.tokens <- Float.min t.burst (t.tokens +. (elapsed *. t.rate))

  let try_take ?(cost = 1.0) t =
    locked t.lock (fun () ->
        refill t;
        if t.tokens >= cost then begin
          t.tokens <- t.tokens -. cost;
          true
        end
        else false)

  let retry_after_s ?(cost = 1.0) t =
    locked t.lock (fun () ->
        refill t;
        if t.tokens >= cost then 0.0
        else (cost -. t.tokens) /. t.rate)

  let available t =
    locked t.lock (fun () ->
        refill t;
        t.tokens)
end

module Breaker = struct
  type state = Closed | Open | Half_open

  type t = {
    clock : clock;
    window : int;
    min_samples : int;
    failure_ratio : float;
    cooldown_s : float;
    lock : Mutex.t;
    outcomes : bool array;  (* ring of the last [window] outcomes *)
    mutable next : int;
    mutable filled : int;
    mutable failures : int;
    mutable st : state;
    mutable opened_at : float;
    mutable probing : bool;  (* half-open: one probe outstanding *)
  }

  let create ?(clock = wall_clock) ?(window = 128) ?(min_samples = 32)
      ?(failure_ratio = 0.5) ?(cooldown_s = 1.0) () =
    if window < 1 then invalid_arg "Breaker.create: window < 1";
    {
      clock;
      window;
      min_samples = max 1 min_samples;
      failure_ratio;
      cooldown_s;
      lock = Mutex.create ();
      outcomes = Array.make window false;
      next = 0;
      filled = 0;
      failures = 0;
      st = Closed;
      opened_at = neg_infinity;
      probing = false;
    }

  let forget t =
    t.filled <- 0;
    t.next <- 0;
    t.failures <- 0

  let push t ok =
    if t.filled = t.window then begin
      (* evict the oldest outcome *)
      if t.outcomes.(t.next) then t.failures <- t.failures - 1
    end
    else t.filled <- t.filled + 1;
    t.outcomes.(t.next) <- not ok;
    if not ok then t.failures <- t.failures + 1;
    t.next <- (t.next + 1) mod t.window

  (* open -> half-open once the cooldown has elapsed; call under lock *)
  let tick t =
    match t.st with
    | Open when t.clock () -. t.opened_at >= t.cooldown_s ->
      t.st <- Half_open;
      t.probing <- false
    | Open | Closed | Half_open -> ()

  let state t =
    locked t.lock (fun () ->
        tick t;
        t.st)

  let allow t =
    locked t.lock (fun () ->
        tick t;
        match t.st with
        | Closed -> true
        | Open -> false
        | Half_open ->
          if t.probing then false
          else begin
            t.probing <- true;
            true
          end)

  let record t ~ok =
    locked t.lock (fun () ->
        tick t;
        match t.st with
        | Half_open ->
          t.probing <- false;
          if ok then begin
            t.st <- Closed;
            forget t
          end
          else begin
            t.st <- Open;
            t.opened_at <- t.clock ()
          end
        | Open ->
          (* a straggler from before the trip; the window is history *)
          ()
        | Closed ->
          push t ok;
          if
            t.filled >= t.min_samples
            && float_of_int t.failures
               >= t.failure_ratio *. float_of_int t.filled
          then begin
            t.st <- Open;
            t.opened_at <- t.clock ()
          end)

  let retry_after_s t =
    locked t.lock (fun () ->
        tick t;
        match t.st with
        | Closed | Half_open -> 0.0
        | Open ->
          Float.max 0.0 (t.cooldown_s -. (t.clock () -. t.opened_at)))
end

module Window = struct
  type t = {
    lock : Mutex.t;
    ring : float array;
    mutable next : int;
    mutable filled : int;
    mutable seen : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Window.create: capacity < 1";
    {
      lock = Mutex.create ();
      ring = Array.make capacity 0.0;
      next = 0;
      filled = 0;
      seen = 0;
    }

  let observe t v =
    locked t.lock (fun () ->
        t.ring.(t.next) <- v;
        t.next <- (t.next + 1) mod Array.length t.ring;
        if t.filled < Array.length t.ring then t.filled <- t.filled + 1;
        t.seen <- t.seen + 1)

  let count t = locked t.lock (fun () -> t.filled)

  let total t = locked t.lock (fun () -> t.seen)

  let snapshot t = locked t.lock (fun () -> Array.sub t.ring 0 t.filled)

  let percentile t q =
    if q < 0.0 || q > 100.0 then
      invalid_arg "Window.percentile: q outside [0,100]";
    let xs = snapshot t in
    if Array.length xs = 0 then 0.0
    else begin
      Array.sort compare xs;
      Stats.percentile_sorted q xs
    end

  let max_value t =
    let xs = snapshot t in
    Array.fold_left Float.max 0.0 xs
end
