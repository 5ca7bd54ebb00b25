module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Checkpoint = Tsg_core.Checkpoint
module Pattern = Tsg_core.Pattern
module Relabel = Tsg_core.Relabel
module Taxogram = Tsg_core.Taxogram
module Bitset = Tsg_util.Bitset
module Diagnostic = Tsg_util.Diagnostic
module Fault = Tsg_util.Fault
module Pool = Tsg_util.Pool
module Timer = Tsg_util.Timer

(* a root's seed 1-edge (from, edge, to), ordered as the miner orders
   its roots *)
let compare_seed ((a, l, b) : int * int * int) (a', l', b') =
  if a <> a' then Int.compare a a'
  else if l <> l' then Int.compare l l'
  else Int.compare b b'

module Seed_set = Set.Make (struct
  type t = int * int * int

  let compare = compare_seed
end)

(* a cached root group and, from its first render on, its patterns'
   artifact text, which holds while the group is clean: a remap keeps
   every graph and support count, and a label's name never changes *)
type group = { entry : Checkpoint.entry; mutable text : Publish.entry list option }

(* the cached groups and the database their support sets index *)
type cache = {
  groups : group list;  (* one per frequent seed, by seed *)
  basis : int64 array;  (* {!Corpus.members} of that database *)
}

type t = {
  corpus : Corpus.t;
  config : Taxogram.config;
  exec : Pool.Exec.t;
  params : string;
  fingerprint : int64;
  mutable cache : cache option;  (* [None]: the next refresh mines fully *)
  mutable watermark : int64;
  mutable dirty : Seed_set.t;
}

let create ~corpus ~config ~exec () =
  let params = Taxogram.fingerprint_params ~config ~class_miner:`Gspan in
  {
    corpus;
    config;
    exec;
    params;
    (* WAL replay pins the database, so the fingerprint binds the
       taxonomy and the configuration *)
    fingerprint =
      Checkpoint.fingerprint ~taxonomy:(Corpus.taxonomy corpus)
        ~db:(Db.of_list []) ~params;
    cache = None;
    watermark = -1L;
    dirty = Seed_set.empty;
  }

let mined_seq t = t.watermark

let dirty_count t = Seed_set.cardinal t.dirty

let mark_dirty t g =
  let mg = Relabel.graph (Corpus.taxonomy t.corpus) g in
  t.dirty <-
    Graph.fold_edges
      (fun u v l acc ->
        let la = Graph.node_label mg u and lb = Graph.node_label mg v in
        let key = if la <= lb then (la, l, lb) else (lb, l, la) in
        Seed_set.add key acc)
      mg t.dirty

type refresh_stats = {
  full : bool;
  roots_mined : int;
  roots_cached : int;
  patterns : int;
  wall_s : float;
}

(* every cached entry comes from a gSpan run or a checked snapshot *)
let seed g = Option.get g.entry.Checkpoint.seed

let by_seed a b = compare_seed (seed a) (seed b)

let pattern_count groups =
  List.fold_left
    (fun n g -> n + List.length g.entry.Checkpoint.patterns)
    0 groups

(* graph id in [from]'s database -> graph id in [into]'s, [-1] when the
   graph left ({!Corpus.members} arrays, both ascending) *)
let position_map ~from ~into =
  let map = Array.make (Array.length from) (-1) in
  let j = ref 0 in
  Array.iteri
    (fun i s ->
      while !j < Array.length into && Int64.compare into.(!j) s < 0 do
        incr j
      done;
      if !j < Array.length into && Int64.equal into.(!j) s then map.(i) <- !j)
    from;
  map

exception Stale

(* a clean group, its sets re-indexed onto a database of [size] graphs. A
   set no member of which moved is kept as it is. A removed graph held no
   clean root's seed (its removal marked the root dirty), so no clean set
   holds it; a set that does makes the cache [Stale]. *)
let remap map ~size g =
  let set s =
    if Bitset.capacity s = size && Bitset.for_all (fun i -> map.(i) = i) s
    then s
    else begin
      let dst = Bitset.create size in
      Bitset.iter
        (fun i ->
          if map.(i) < 0 then raise Stale;
          Bitset.set dst map.(i))
        s;
      dst
    end
  in
  let pattern (p : Pattern.t) =
    let s = set p.Pattern.support_set in
    if s == p.Pattern.support_set then p
    else Pattern.make ~db_size:size p.Pattern.graph s
  in
  let e = g.entry in
  let patterns = List.map pattern e.Checkpoint.patterns in
  { g with entry = { e with Checkpoint.covered = set e.covered; patterns } }

let refresh t =
  Fault.inject "pipeline.remine";
  let timer = Timer.start () in
  let db = Corpus.db t.corpus in
  let size = Db.size db in
  let theta = t.config.Taxogram.min_support in
  let now = Corpus.members t.corpus in
  (* the groups this refresh keeps: the clean ones, re-indexed onto the
     present database; none when the threshold moved (every root's bar
     moved with it) *)
  let kept =
    match t.cache with
    | Some c
      when Db.threshold_of_size (Array.length c.basis) theta
           = Db.support_count_to_threshold db theta -> (
      let clean =
        List.filter (fun e -> not (Seed_set.mem (seed e) t.dirty)) c.groups
      in
      if c.basis = now then Some clean
      else
        let map = position_map ~from:c.basis ~into:now in
        match List.map (remap map ~size) clean with
        | groups -> Some groups
        | exception Stale -> None)
    | Some _ | None -> None
  in
  let mined =
    match kept with
    | Some _ when Seed_set.is_empty t.dirty -> []
    | Some _ | None ->
      let root_select =
        if Option.is_none kept then None
        else Some (fun seed -> Seed_set.mem seed t.dirty)
      in
      let spec =
        Taxogram.Spec.collect ~config:t.config ~exec:t.exec ?root_select ()
      in
      List.map
        (fun entry -> { entry; text = None })
        (Taxogram.run spec (Corpus.taxonomy t.corpus) db).Taxogram.root_groups
  in
  let groups =
    match (kept, mined) with
    | None, _ -> mined
    | Some kept, [] -> kept
    (* dirty groups are replaced by what the selective run found
       (possibly nothing: vanished roots) *)
    | Some kept, _ -> List.sort by_seed (List.rev_append kept mined)
  in
  t.cache <- Some { groups; basis = now };
  t.dirty <- Seed_set.empty;
  t.watermark <- Corpus.seq t.corpus;
  (* the cache now indexes the present database; nothing asks for an
     older one *)
  Corpus.forget_removals t.corpus ~upto:t.watermark;
  {
    full = Option.is_none kept;
    roots_mined = List.length mined;
    roots_cached = List.length groups - List.length mined;
    patterns = pattern_count groups;
    wall_s = Timer.elapsed_s timer;
  }

let patterns t =
  match t.cache with
  | None -> []
  | Some c -> List.concat_map (fun g -> g.entry.Checkpoint.patterns) c.groups

let render t =
  (* stamped with the WAL watermark: replicas loading this artifact
     agree on an epoch whose sequence half is the log position it
     describes (-1 before any refresh renders an unstamped artifact) *)
  let epoch_seq =
    if Int64.compare t.watermark 0L >= 0 then Some t.watermark else None
  in
  let entry =
    Publish.entry ~taxonomy:(Corpus.taxonomy t.corpus)
      ~edge_labels:(Corpus.edge_labels t.corpus)
  in
  let text g =
    if Option.is_none g.text then
      g.text <- Some (List.map entry g.entry.Checkpoint.patterns);
    Option.get g.text
  in
  let groups = match t.cache with Some c -> c.groups | None -> [] in
  Publish.assemble ~epoch_seq ~db_size:(Corpus.size t.corpus)
    (List.concat_map text groups)

(* ------------------------------------------------------------------ *)
(* State snapshots: a {!Checkpoint} of a completed run *)

let save_state t path =
  match t.cache with
  | None -> invalid_arg "Incremental.save_state: nothing mined yet"
  | Some c ->
    Checkpoint.save path
      {
        Checkpoint.fingerprint = t.fingerprint;
        params = t.params;
        corpus_seq = t.watermark;
        db_size = Array.length c.basis;
        roots_total = List.length c.groups;
        entries = List.mapi (fun i g -> { g.entry with root = i }) c.groups;
      }

let state_watermark content =
  match Checkpoint.header ~file:"state snapshot" content with
  | s -> Some s.Checkpoint.corpus_seq
  | exception Checkpoint.Error _ -> None

(* why snapshot [s], whose sets index the graphs [basis] names, cannot be
   this engine's cache, if it cannot *)
let unusable t (s : Checkpoint.t) basis =
  let why fmt = Printf.ksprintf Option.some fmt in
  let nodes = Taxonomy.label_count (Corpus.taxonomy t.corpus) in
  let edges = Label.size (Corpus.edge_labels t.corpus) in
  let known_seed (a, l, b) = a <= b && b < nodes && l < edges in
  let foreign (p : Pattern.t) =
    let g = p.Pattern.graph in
    Array.exists (fun l -> l >= nodes) (Graph.node_labels g)
    || Array.exists (fun (_, _, l) -> l >= edges) (Graph.edges g)
  in
  let rec bad_entry prev = function
    | [] -> None
    | (e : Checkpoint.entry) :: rest -> (
      match e.Checkpoint.seed with
      | None -> why "root %d has no seed" e.root
      | Some seed
        when (not (known_seed seed)) || List.exists foreign e.patterns ->
        why "root %d holds a label id the replayed tables lack" e.root
      | Some seed when prev >= Some seed ->
        why "root %d is out of seed order" e.root
      | next -> bad_entry next rest)
  in
  let head = Corpus.seq t.corpus in
  if not (String.equal s.params t.params) then
    why "configuration drift: snapshot %S, engine %S" s.params t.params
  else if not (Int64.equal s.fingerprint t.fingerprint) then
    why "taxonomy drift: fingerprint %016Lx, expected %016Lx" s.fingerprint
      t.fingerprint
  else if Int64.compare s.corpus_seq head > 0 then
    why "watermark %Ld is ahead of the log head %Ld" s.corpus_seq head
  else if List.length s.entries <> s.roots_total then
    why "incomplete snapshot: %d entries for %d roots"
      (List.length s.entries) s.roots_total
  else if Array.length basis <> s.db_size then
    why "%d graphs at watermark %Ld, the log replays %d" s.db_size
      s.corpus_seq (Array.length basis)
  else bad_entry None s.entries

let load_state t content =
  t.cache <- None;
  let refuse msg =
    Error
      (Diagnostic.makef ~rule:"PIPE003" Diagnostic.Warning
         "state snapshot unusable (%s), re-mining from scratch" msg)
  in
  match Checkpoint.parse ~file:"state snapshot" content with
  | exception Checkpoint.Error d -> refuse d.Diagnostic.message
  | s -> (
    let basis = Corpus.members ~at:s.Checkpoint.corpus_seq t.corpus in
    match unusable t s basis with
    | Some msg -> refuse msg
    | None ->
      let groups = List.map (fun entry -> { entry; text = None }) s.entries in
      t.cache <- Some { groups; basis };
      t.watermark <- s.Checkpoint.corpus_seq;
      Ok ())
