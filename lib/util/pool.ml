(* Work-stealing domain pool with deterministic task ids.

   Each domain owns a Chase–Lev-style deque: the owner pushes and pops at
   the bottom (LIFO, depth-first, no synchronization beyond two atomic
   loads and a store in the common case), thieves CAS the top to steal
   the oldest task one at a time (breadth-first, which moves the biggest
   remaining subtrees). There is no mutex anywhere on the scheduling
   path; the only contended operations are single-word CASes on the
   deque ends and the pending-task counter. The one mutex, [park], hands
   runs to parked worker domains and back. *)

let default_domains () =
  let fallback = min 8 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "TSG_DOMAINS" with
  | None | Some "" -> fallback
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> fallback)

(* --- deques ---------------------------------------------------------- *)

module Ws_deque = struct
  (* Chase–Lev work-stealing deque over a growable circular buffer.

     Invariants: [top <= bottom]; logical indices are monotonically
     increasing ints (never wrapped back), so CASes on [top] are immune
     to ABA. The physical slot for logical index [i] in an array of
     (power-of-two) size [n] is [i land (n-1)]. A slot is reused by
     [push] only once [bottom - top] has shrunk past it, which requires
     [top] to have advanced — so a thief holding a stale [top] always
     fails its CAS and never observes a recycled slot as current.

     Memory-model notes (OCaml 5 atomics are SC): the owner publishes a
     task with a plain slot write followed by the atomic store of
     [bottom]; a thief reads [top] then [bottom] then the slot, so a
     thief that observes [bottom > top] also observes the slot write
     that preceded that [bottom]. [grow] installs the new array in [tab]
     (atomic) before publishing any index that lives in it, and never
     mutates the old array, so a lagging thief reading the old array
     still sees correct values for the indices it can successfully
     steal. *)

  type 'a t = {
    top : int Atomic.t;  (* next index to steal *)
    bottom : int Atomic.t;  (* next index to push *)
    tab : 'a option array Atomic.t;
  }

  let min_capacity = 32

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      tab = Atomic.make (Array.make min_capacity None);
    }

  let grow q t b =
    let old = Atomic.get q.tab in
    let n = Array.length old in
    let n' = 2 * n in
    let a = Array.make n' None in
    for i = t to b - 1 do
      a.(i land (n' - 1)) <- old.(i land (n - 1))
    done;
    Atomic.set q.tab a;
    a

  (* owner only *)
  let push q x =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    let a = Atomic.get q.tab in
    let a = if b - t >= Array.length a then grow q t b else a in
    a.(b land (Array.length a - 1)) <- Some x;
    Atomic.set q.bottom (b + 1)

  (* owner only *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    (* SC fence between the bottom store and the top load: both atomic *)
    let t = Atomic.get q.top in
    if b < t then begin
      (* empty; restore *)
      Atomic.set q.bottom t;
      None
    end
    else begin
      let a = Atomic.get q.tab in
      let i = b land (Array.length a - 1) in
      let x = a.(i) in
      if b > t then begin
        (* more than one element left: no thief can reach slot [b] *)
        a.(i) <- None;
        x
      end
      else begin
        (* last element: race any thief for it via the top CAS *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then begin
          a.(i) <- None;
          x
        end
        else None
      end
    end

  (* any domain *)
  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if b - t <= 0 then None
    else begin
      let a = Atomic.get q.tab in
      let x = a.(t land (Array.length a - 1)) in
      if Atomic.compare_and_set q.top t (t + 1) then x else None
    end
end

(* --- supervision ------------------------------------------------------ *)

exception Transient of string

exception Deadline_exceeded of {
  task : int list;
  elapsed_s : float;
  deadline_s : float;
}

type policy = {
  deadline_s : float option;
  max_attempts : int;
  backoff_s : float;
  max_backoff_s : float;
  retry_on : exn -> bool;
}

let default_retry_on = function
  | Transient _ | Fault.Injected _ -> true
  | _ -> false

let default_policy =
  {
    deadline_s = None;
    max_attempts = 3;
    backoff_s = 0.001;
    max_backoff_s = 0.25;
    retry_on = default_retry_on;
  }

type supervision = {
  policy : policy;
  q_lock : Mutex.t;
  mutable quarantined : (int list * Diagnostic.t) list;
}

type 'a task = { tid : int list; f : 'a ctx -> 'a }

and 'a state = {
  deques : 'a task Ws_deque.t array;
  results : (int list * 'a) list array;  (* slot [d] written only by domain [d] *)
  pending : int Atomic.t;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  supervision : supervision option;
}

and 'a ctx = {
  st : 'a state;
  dom : int;
  task_id : int list;
  mutable forks : int;
  mutable started : float;  (* attempt start, for the deadline *)
}

let id ctx = ctx.task_id

let check_deadline ctx =
  match ctx.st.supervision with
  | None -> ()
  | Some { policy = { deadline_s = None; _ }; _ } -> ()
  | Some { policy = { deadline_s = Some limit; _ }; _ } ->
    let elapsed = Unix.gettimeofday () -. ctx.started in
    if elapsed > limit then
      raise
        (Deadline_exceeded
           { task = ctx.task_id; elapsed_s = elapsed; deadline_s = limit })

let pool_task_site = "pool.task"

let quarantine_diagnostic ~task ~attempts e bt =
  match Fault.diagnostic e with
  | Some d -> d
  | None -> (
    let tid = String.concat "." (List.map string_of_int task) in
    match e with
    | Deadline_exceeded { elapsed_s; deadline_s; _ } ->
      Diagnostic.makef ~rule:"POOL002" Diagnostic.Error
        "task %s exceeded its %.3fs deadline (%.3fs elapsed)" tid deadline_s
        elapsed_s
    | e ->
      let where =
        match Printexc.backtrace_slots bt with
        | Some slots when Array.length slots > 0 -> (
          match Printexc.Slot.location slots.(0) with
          | Some l -> Printf.sprintf " at %s:%d" l.Printexc.filename l.Printexc.line_number
          | None -> "")
        | _ -> ""
      in
      Diagnostic.makef ~rule:"POOL001" Diagnostic.Error
        "task %s failed after %d attempt%s: %s%s" tid attempts
        (if attempts = 1 then "" else "s")
        (Printexc.to_string e) where)

(* One attempt of a supervised task. Retry only when the policy calls the
   failure transient AND the failed attempt forked nothing: forked
   subtasks are already scheduled under their deterministic ids, so
   re-running the parent would enqueue duplicates. *)
let exec_supervised st sup dom task =
  let rec go attempt =
    let ctx = { st; dom; task_id = task.tid; forks = 0; started = Unix.gettimeofday () } in
    match
      Fault.inject pool_task_site;
      task.f ctx
    with
    | r -> st.results.(dom) <- (task.tid, r) :: st.results.(dom)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if
        attempt < sup.policy.max_attempts
        && ctx.forks = 0
        && sup.policy.retry_on e
      then begin
        let pause =
          Float.min sup.policy.max_backoff_s
            (sup.policy.backoff_s *. Float.pow 2.0 (float_of_int (attempt - 1)))
        in
        if pause > 0.0 then Unix.sleepf pause;
        go (attempt + 1)
      end
      else begin
        let d =
          if ctx.forks > 0 && sup.policy.retry_on e then
            let base = quarantine_diagnostic ~task:task.tid ~attempts:attempt e bt in
            { base with
              Diagnostic.message =
                base.Diagnostic.message
                ^ Printf.sprintf
                    " (not retried: the failed attempt had already forked %d \
                     subtask%s)"
                    ctx.forks
                    (if ctx.forks = 1 then "" else "s") }
          else quarantine_diagnostic ~task:task.tid ~attempts:attempt e bt
        in
        Mutex.lock sup.q_lock;
        sup.quarantined <- (task.tid, d) :: sup.quarantined;
        Mutex.unlock sup.q_lock
      end
  in
  go 1

let exec st dom task =
  (match Atomic.get st.failed with
  | Some _ -> ()  (* cancelled: drain without running *)
  | None -> (
    match st.supervision with
    | Some sup -> exec_supervised st sup dom task
    | None -> (
      match
        Fault.inject pool_task_site;
        task.f { st; dom; task_id = task.tid; forks = 0; started = Unix.gettimeofday () }
      with
      | r -> st.results.(dom) <- (task.tid, r) :: st.results.(dom)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set st.failed None (Some (e, bt))))));
  Atomic.decr st.pending

(* With one domain nothing can steal, so a queued child would only wait
   for its parent to return, holding what it captured all the while: run
   it now instead, through the same [exec]. Its time does not count
   against the parent's deadline. *)
let fork ctx f =
  let k = ctx.forks in
  ctx.forks <- k + 1;
  Atomic.incr ctx.st.pending;
  let task = { tid = ctx.task_id @ [ k ]; f } in
  if Array.length ctx.st.deques = 1 then begin
    let t0 = Unix.gettimeofday () in
    exec ctx.st ctx.dom task;
    ctx.started <- ctx.started +. (Unix.gettimeofday () -. t0)
  end
  else Ws_deque.push ctx.st.deques.(ctx.dom) task

(* Steal exactly one task (the victim's oldest) and run it here; the
   forks it makes land on this domain's own deque, so a successful steal
   migrates a whole subtree for the price of one CAS. *)
let try_steal st dom =
  let n = Array.length st.deques in
  let rec probe i =
    if i >= n then None
    else
      let victim = (dom + i) mod n in
      match Ws_deque.steal st.deques.(victim) with
      | Some _ as hit -> hit
      | None -> probe (i + 1)
  in
  probe 1

let worker st dom =
  let misses = ref 0 in
  let rec loop () =
    match Ws_deque.pop st.deques.(dom) with
    | Some task ->
      misses := 0;
      exec st dom task;
      loop ()
    | None ->
      if Atomic.get st.pending = 0 || Atomic.get st.failed <> None then ()
      else begin
        match try_steal st dom with
        | Some task ->
          misses := 0;
          exec st dom task;
          loop ()
        | None ->
          (* nothing to steal yet: spin briefly, then sleep so idle
             domains stop competing for the cores doing real work *)
          incr misses;
          if !misses < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002;
          loop ()
      end
  in
  loop ()

(* --- parked workers ----------------------------------------------------- *)

(* Helper domains outlive the runs they serve. Between jobs a worker
   blocks on its own condition, and idle workers wait in one
   process-wide free list, since domains are a process-wide resource. A
   run used to spawn and join its helpers, and each dead domain left its
   heap pools behind: over 1,500 two-domain runs the major heap grew
   from 1.54M to 2.10M words at ~220k live, where one parked worker
   held it at 0.97M. [park] guards the free list, every worker's [job]
   and every run's [latch]. *)

type worker = {
  wake : Condition.t;
  mutable job : ((unit -> unit) * latch) option;
  mutable domain : unit Domain.t option;  (* set once spawned *)
}

(* one run's helpers still at work, and the first failure one of them
   escaped with; the run waits on [finished] for the last *)
and latch = {
  mutable helping : int;
  mutable crash : (exn * Printexc.raw_backtrace) option;
  finished : Condition.t;
}

let park = Mutex.create ()

let idle : worker list ref = ref []

let closing = ref false

(* A worker's life: wait for a job, run it, drain its arena, and go back
   on the free list before the run learns it is done, so that the run's
   caller finds it parked again. After [closing], it leaves instead. *)
let rec serve w =
  let job =
    Mutex.protect park (fun () ->
        while Option.is_none w.job && not !closing do
          Condition.wait w.wake park
        done;
        let job = w.job in
        w.job <- None;
        job)
  in
  match job with
  | None -> ()
  | Some (work, latch) ->
    let crash =
      match work () with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Arena.drain ();
    Mutex.protect park (fun () ->
        if not !closing then idle := w :: !idle;
        if Option.is_none latch.crash then latch.crash <- crash;
        latch.helping <- latch.helping - 1;
        if latch.helping = 0 then Condition.signal latch.finished);
    serve w

(* Hand [work 1] .. [work n] to [n] workers: parked ones first, fresh
   ones only when the list runs short, so a nested or concurrent run
   never waits for a busy worker. Workers record backtraces when the
   caller does. *)
let dispatch n work =
  let latch = { helping = 0; crash = None; finished = Condition.create () } in
  let backtraces = Printexc.backtrace_status () in
  Mutex.protect park (fun () ->
      for i = 1 to n do
        let w =
          match !idle with
          | w :: rest ->
            idle := rest;
            w
          | [] ->
            let w = { wake = Condition.create (); job = None; domain = None } in
            w.domain <- Some (Domain.spawn (fun () -> serve w));
            w
        in
        let job () =
          Printexc.record_backtrace backtraces;
          work i
        in
        w.job <- Some (job, latch);
        latch.helping <- latch.helping + 1;
        Condition.signal w.wake
      done);
  latch

(* the run's join: every helper is back on the free list, and its writes
   are visible here *)
let await latch =
  Mutex.protect park (fun () ->
      while latch.helping > 0 do
        Condition.wait latch.finished park
      done);
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) latch.crash

(* at exit, parked workers leave and are joined; a worker still at work
   leaves when its job ends *)
let () =
  at_exit (fun () ->
      let parked =
        Mutex.protect park (fun () ->
            closing := true;
            let l = !idle in
            idle := [];
            List.iter (fun w -> Condition.signal w.wake) l;
            l)
      in
      List.iter (fun w -> Option.iter Domain.join w.domain) parked)

let run_state ~size ~supervision tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let d = size in
  let st =
    {
      deques = Array.init d (fun _ -> Ws_deque.create ());
      results = Array.make d [];
      pending = Atomic.make n;
      failed = Atomic.make None;
      supervision;
    }
  in
  (* Seed round-robin before any helper starts (the hand-off under [park]
     publishes the writes), pushing the highest ids first so each owner's
     LIFO pop yields ascending ids — which maximizes the canonical prefix
     under budgeted early stops. *)
  for i = n - 1 downto 0 do
    Ws_deque.push st.deques.(i mod d) { tid = [ i ]; f = arr.(i) }
  done;
  let latch = dispatch (d - 1) (worker st) in
  worker st 0;
  await latch;
  st

(* --- the execution surface ------------------------------------------- *)

module Exec = struct
  type t = { size : int }

  let create ?domains () =
    let d =
      match domains with Some d -> max 1 d | None -> default_domains ()
    in
    { size = d }

  let domains t = t.size

  let run t tasks =
    match tasks with
    | [] -> []
    | _ ->
      let st = run_state ~size:t.size ~supervision:None tasks in
      (match Atomic.get st.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list st.results
      |> List.concat
      |> List.sort (fun (a, _) (b, _) -> compare a b)

  let run_supervised t ?(policy = default_policy) tasks =
    match tasks with
    | [] -> []
    | _ ->
      let sup = { policy; q_lock = Mutex.create (); quarantined = [] } in
      let st = run_state ~size:t.size ~supervision:(Some sup) tasks in
      (* supervised runs never set [failed]: every task either produced a
         result or a quarantine record *)
      let ok =
        Array.to_list st.results
        |> List.concat
        |> List.map (fun (tid, r) -> (tid, Ok r))
      in
      let bad = List.map (fun (tid, d) -> (tid, Error d)) sup.quarantined in
      List.sort (fun (a, _) (b, _) -> compare a b) (ok @ bad)
end
