(* Spans the traced run records around its own calls into each layer's
   public functions: name, start, end, parent span and the op they belong
   to. They stay in memory and are written out when the run ends; nothing
   here reaches into lib/. *)

type span = {
  id : int;
  parent : int;  (* -1 for an op's root span *)
  op : int;
  name : string;
  t0 : float;
  mutable t1 : float;
}

let spans : span list ref = ref []

let next_id = ref 0

let open_spans : int list ref = ref []

let current_op = ref 0

(* untraced runs call the same code with recording off *)
let enabled = ref false

let new_op () =
  incr current_op;
  !current_op

let with_span name f =
  if not !enabled then f ()
  else
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let s = { id; parent; op = !current_op; name; t0 = Measure.now (); t1 = nan } in
  open_spans := id :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Measure.now ();
      open_spans := List.tl !open_spans;
      spans := s :: !spans)
    f

(* per span name within one op: (total seconds, self seconds), where self
   time is the span's duration minus the time its child spans cover *)
let breakdown op =
  let mine = List.filter (fun s -> s.op = op) !spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace children s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    mine;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let tot, sf = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (tot +. d, sf +. self))
    mine;
  fun name -> Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt acc name)

let write path =
  let b = Buffer.create 65536 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Measure.to_string
           (Measure.Obj
              [
                ("id", Measure.Int s.id);
                ("parent", Measure.Int s.parent);
                ("op", Measure.Int s.op);
                ("name", Measure.Str s.name);
                ("start_s", Measure.Num s.t0);
                ("end_s", Measure.Num s.t1);
              ]));
      Buffer.add_char b '\n')
    (List.rev !spans);
  Measure.write_file path (Buffer.contents b)
