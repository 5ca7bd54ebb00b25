module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Gspan = Tsg_gspan.Gspan

type size = { positions : int; entries : int; set_members : int }

type entry = {
  labels : Label.id array;
  sets : Bitset.t array;
  members : int array;
  class_slot : int;
  first_child : int array;
  children : int array;
}

type t = {
  class_graph : Graph.t;
  class_support_set : Bitset.t;
  occ_count : int;
  occ_gid : int array;
  occ_rank : int array;
  graph_count : int;
  entries : entry array;
  all_occs : Bitset.t;
  db_size : int;
  counted : size; (* what [size] returns, counted by [build] *)
}

let slot_count e = Array.length e.labels

let recount (t : t) =
  let entries = ref 0 and set_members = ref 0 in
  Array.iter
    (fun e ->
      entries := !entries + slot_count e;
      Array.iter (fun s -> set_members := !set_members + Bitset.cardinal s)
        e.sets)
    t.entries;
  {
    positions = Array.length t.entries;
    entries = !entries;
    set_members = !set_members;
  }

(* the layout [build] promises, re-derived from the taxonomy: member
   counts, the class slot, children in taxonomy order, monotone ranks *)
let check_layout ~taxonomy ~report ~lname t =
  let add fmt = Printf.ksprintf report fmt in
  let distinct = ref 0 in
  if Array.length t.occ_rank <> t.occ_count then
    add "%d ranks for %d occurrences" (Array.length t.occ_rank) t.occ_count
  else
    Array.iteri
      (fun occ gid ->
        if occ > 0 && gid < t.occ_gid.(occ - 1) then
          add "occurrences %d and %d out of graph-id order" (occ - 1) occ;
        if occ = 0 || gid <> t.occ_gid.(occ - 1) then incr distinct;
        if t.occ_rank.(occ) <> !distinct - 1 then
          add "occurrence %d: graph rank %d, expected %d" occ
            t.occ_rank.(occ) (!distinct - 1))
      t.occ_gid;
  if t.graph_count <> !distinct
     || t.graph_count <> Bitset.cardinal t.class_support_set
  then
    add "%d graph ranks for %d distinct graphs (%d supporting)" t.graph_count
      !distinct (Bitset.cardinal t.class_support_set);
  Array.iteri
    (fun pos e ->
      let n = slot_count e in
      let slot = Hashtbl.create n in
      Array.iteri
        (fun k l ->
          if Hashtbl.mem slot l then
            add "position %d: label %s in two slots" pos (lname l)
          else Hashtbl.add slot l k;
          if Bitset.capacity e.sets.(k) <> t.occ_count then
            add "position %d, label %s: set capacity %d for %d occurrences"
              pos (lname l) (Bitset.capacity e.sets.(k)) t.occ_count;
          if e.members.(k) <> Bitset.cardinal e.sets.(k) then
            add "position %d, label %s: %d members recorded, %d in the set"
              pos (lname l) e.members.(k) (Bitset.cardinal e.sets.(k)))
        e.labels;
      let class_label = Graph.node_label t.class_graph pos in
      if e.class_slot < 0 || e.class_slot >= n
         || e.labels.(e.class_slot) <> class_label
      then add "position %d: class slot is not label %s" pos
          (lname class_label);
      if Array.length e.first_child <> n + 1 then
        add "position %d: %d child offsets for %d slots" pos
          (Array.length e.first_child) n
      else
        for k = 0 to n - 1 do
          let expected =
            List.filter_map (Hashtbl.find_opt slot)
              (Taxonomy.children taxonomy e.labels.(k))
          in
          let lo = e.first_child.(k) and hi = e.first_child.(k + 1) in
          let recorded =
            if 0 <= lo && lo <= hi && hi <= Array.length e.children then
              Array.to_list (Array.sub e.children lo (hi - lo))
            else []
          in
          if recorded <> expected then
            add "position %d, label %s: children slots differ from taxonomy"
              pos (lname e.labels.(k))
        done)
    t.entries

let self_check_impl ~taxonomy ~original ~keep_label t =
  let issues = ref [] in
  let add fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let lname l = Taxonomy.name taxonomy l in
  let positions = Graph.node_count t.class_graph in
  (* brute-force generalized-iso embeddings over the original database *)
  let maps = ref [] in
  let bf_count = ref 0 in
  Db.iteri
    (fun gid g ->
      Tsg_iso.Gen_iso.iter_embeddings taxonomy ~pattern:t.class_graph ~target:g
        (fun map ->
          incr bf_count;
          maps := (gid, Array.copy map) :: !maps))
    original;
  let maps = List.rev !maps in
  if !bf_count <> t.occ_count then
    add "index holds %d occurrences but brute force finds %d embeddings"
      t.occ_count !bf_count;
  let db_n = Db.size original in
  let bf_per_gid = Array.make db_n 0 in
  List.iter (fun (gid, _) -> bf_per_gid.(gid) <- bf_per_gid.(gid) + 1) maps;
  let idx_per_gid = Array.make db_n 0 in
  Array.iter (fun gid -> idx_per_gid.(gid) <- idx_per_gid.(gid) + 1) t.occ_gid;
  for gid = 0 to db_n - 1 do
    if bf_per_gid.(gid) <> idx_per_gid.(gid) then
      add "graph %d: %d occurrences indexed but %d brute-force embeddings" gid
        idx_per_gid.(gid) bf_per_gid.(gid)
  done;
  let support = Bitset.create db_n in
  List.iter (fun (gid, _) -> Bitset.set support gid) maps;
  if not (Bitset.equal support t.class_support_set) then
    add "class support set disagrees with brute-force support set";
  if Bitset.cardinal t.all_occs <> t.occ_count then
    add "all_occs holds %d members for %d occurrences"
      (Bitset.cardinal t.all_occs) t.occ_count;
  check_layout ~taxonomy ~report:(fun m -> issues := m :: !issues) ~lname t;
  for pos = 0 to positions - 1 do
    let class_label = Graph.node_label t.class_graph pos in
    (* expected OIE cardinalities: one count per covered ancestor label *)
    let expected = Hashtbl.create 16 in
    List.iter
      (fun (gid, map) ->
        let g = Db.get original gid in
        let original_label = Graph.node_label g map.(pos) in
        Bitset.iter
          (fun anc ->
            if anc = class_label || keep_label anc then
              Hashtbl.replace expected anc
                (1 + Option.value ~default:0 (Hashtbl.find_opt expected anc)))
          (Taxonomy.ancestor_set taxonomy original_label))
      maps;
    let e = t.entries.(pos) in
    Array.iteri
      (fun k l ->
        let set = e.sets.(k) in
        match Hashtbl.find_opt expected l with
        | None ->
          add "position %d: label %s indexed but covers no embedding" pos
            (lname l)
        | Some n ->
          if n <> Bitset.cardinal set then
            add "position %d, label %s: OcS cardinality %d but %d embeddings"
              pos (lname l) (Bitset.cardinal set) n)
      e.labels;
    Hashtbl.iter
      (fun l n ->
        if not (Array.mem l e.labels) then
          add "position %d: label %s covered by %d embeddings missing from OIE"
            pos (lname l) n)
      expected;
    (* a specialization's occurrence set is contained in its ancestors' *)
    Array.iteri
      (fun k l ->
        Array.iteri
          (fun k' l' ->
            if l <> l'
               && Taxonomy.is_ancestor taxonomy ~anc:l' l
               && not (Bitset.subset e.sets.(k) e.sets.(k'))
            then
              add "position %d: OcS(%s) not within OcS(ancestor %s)" pos
                (lname l) (lname l'))
          e.labels)
      e.labels
  done;
  if recount t <> t.counted then
    add "stored size differs from a recount of the entries";
  List.rev !issues

let self_check ~taxonomy ~original ?(keep_label = fun _ -> true) t =
  self_check_impl ~taxonomy ~original ~keep_label t

(* keep the debug-mode brute-force cross-check affordable *)
let debug_check_max_occs = 2_000

let debug_check_max_db = 500

(* Per-domain scratch for [build]: a label-indexed slot table, [unseen]
   everywhere between positions. While one position is walked, a label's
   slot holds the index of its occurrence set, or [dropped] once
   [keep_label] has refused it; [touched] lists the labels given a slot,
   in first-touch order, for the reset. [sets] and [counts] are indexed
   by slot, [kids] collects a position's child slots; all three are
   copied out to exact size before the reset. *)
type slots = {
  mutable slot : int array;
  mutable touched : int array;
  mutable sets : Bitset.t array;
  mutable counts : int array;
  mutable kids : int array;
}

let unseen = -1

let dropped = -2

let no_set = Bitset.create 0

let slots_key : slots Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { slot = [||]; touched = [||]; sets = [||]; counts = [||]; kids = [||] })

(* one position's entry: labels get their slots in the order a per-visit
   lookup would first meet them — occurrences in order, each original
   label's ancestors in increasing order *)
let build_entry sc ~taxonomy ~keep_label ~class_label ancestors occ_count =
  let slot = sc.slot and touched = sc.touched in
  let sets = sc.sets and counts = sc.counts in
  let n_sets = ref 0 and n_touched = ref 0 in
  let occ = ref 0 in
  let visit anc =
    let k = slot.(anc) in
    if k >= 0 then begin
      Bitset.set sets.(k) !occ;
      counts.(k) <- counts.(k) + 1
    end
    else if k = unseen then begin
      touched.(!n_touched) <- anc;
      incr n_touched;
      if anc = class_label || keep_label anc then begin
        let set = Bitset.create occ_count in
        Bitset.set set !occ;
        sets.(!n_sets) <- set;
        counts.(!n_sets) <- 1;
        slot.(anc) <- !n_sets;
        incr n_sets
      end
      else slot.(anc) <- dropped
    end
  in
  (* each slot's in-entry children, in [Taxonomy.children] order, read
     off the slot table while it still holds this position *)
  let rec add_kids n_kids = function
    | [] -> n_kids
    | c :: rest ->
      let s = slot.(c) in
      if s < 0 then add_kids n_kids rest
      else begin
        if n_kids = Array.length sc.kids then
          sc.kids <- Array.append sc.kids (Array.make (n_kids + 16) 0);
        sc.kids.(n_kids) <- s;
        add_kids (n_kids + 1) rest
      end
  in
  let link labels =
    let n = Array.length labels in
    let first_child = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      first_child.(k + 1) <-
        add_kids first_child.(k) (Taxonomy.children taxonomy labels.(k))
    done;
    (first_child, Array.sub sc.kids 0 first_child.(n))
  in
  Fun.protect
    ~finally:(fun () ->
      for j = 0 to !n_touched - 1 do
        slot.(touched.(j)) <- unseen
      done;
      Array.fill sets 0 !n_sets no_set)
    (fun () ->
      while !occ < occ_count do
        Bitset.iter visit (ancestors !occ);
        incr occ
      done;
      let n = !n_sets in
      let labels = Array.make n 0 in
      for j = 0 to !n_touched - 1 do
        let anc = touched.(j) in
        let k = slot.(anc) in
        if k >= 0 then labels.(k) <- anc
      done;
      let first_child, children = link labels in
      {
        labels;
        sets = Array.sub sets 0 n;
        members = Array.sub counts 0 n;
        class_slot = slot.(class_label);
        first_child;
        children;
      })

(* occurrence id -> rank of its graph among the class's graphs; embedding
   lists are in graph-id order, so ranks never decrease *)
let graph_ranks occ_gid =
  let ranks = Array.make (Array.length occ_gid) 0 in
  let rank = ref (-1) and last = ref (-1) in
  Array.iteri
    (fun occ gid ->
      if gid < !last then
        invalid_arg "Occ_index.build: embeddings out of graph-id order";
      if gid > !last then begin
        incr rank;
        last := gid
      end;
      ranks.(occ) <- !rank)
    occ_gid;
  (ranks, !rank + 1)

let build ~taxonomy ~original ?(keep_label = fun _ -> true)
    (p : Gspan.pattern) =
  Tsg_util.Fault.inject "occ_index.build";
  let positions = Graph.node_count p.graph in
  let embeddings = Array.of_list p.embeddings in
  let occ_count = Array.length embeddings in
  let occ_gid = Array.map (fun e -> e.Gspan.graph_id) embeddings in
  let occ_rank, graph_count = graph_ranks occ_gid in
  let graphs = Array.map (fun gid -> Db.get original gid) occ_gid in
  let sc = Domain.DLS.get slots_key in
  let labels = Taxonomy.label_count taxonomy in
  if Array.length sc.slot < labels then begin
    sc.slot <- Array.make labels unseen;
    sc.touched <- Array.make labels 0;
    sc.sets <- Array.make labels no_set;
    sc.counts <- Array.make labels 0;
    sc.kids <- Array.make labels 0
  end;
  let entries =
    Array.init positions (fun pos ->
        build_entry sc ~taxonomy ~keep_label
          ~class_label:(Graph.node_label p.graph pos)
          (fun occ ->
            Taxonomy.ancestor_set taxonomy
              (Graph.node_label graphs.(occ) embeddings.(occ).Gspan.map.(pos)))
          occ_count)
  in
  let sum f = Array.fold_left (fun n e -> n + f e) 0 entries in
  let t =
    {
      class_graph = p.graph;
      class_support_set = Bitset.copy p.support_set;
      occ_count;
      occ_gid;
      occ_rank;
      graph_count;
      entries;
      all_occs = Bitset.full occ_count;
      db_size = Db.size original;
      counted =
        {
          positions;
          entries = sum slot_count;
          set_members = sum (fun e -> Array.fold_left ( + ) 0 e.members);
        };
    }
  in
  if
    Tsg_util.Debug.checks_enabled ()
    && occ_count <= debug_check_max_occs
    && Db.size original <= debug_check_max_db
  then begin
    match self_check_impl ~taxonomy ~original ~keep_label t with
    | [] -> ()
    | issues ->
      failwith ("Occ_index.self_check: " ^ String.concat "; " issues)
  end;
  t

let occurrence_set t ~position label =
  let e = t.entries.(position) in
  let rec from k =
    if k = slot_count e then None
    else if e.labels.(k) = label then Some e.sets.(k)
    else from (k + 1)
  in
  from 0

let covered_labels t ~position =
  List.sort compare (Array.to_list t.entries.(position).labels)

(* ranks never decrease along an occurrence set's members, so each new
   rank met is a graph not met before *)
let ranks_into t ~dst occs =
  Bitset.clear dst;
  let last = ref (-1) and count = ref 0 in
  Bitset.iter
    (fun occ ->
      let r = t.occ_rank.(occ) in
      if r <> !last then begin
        last := r;
        incr count;
        Bitset.set dst r
      end)
    occs;
  !count

let graph_set t occs =
  let set = Bitset.create t.db_size in
  Bitset.iter (fun occ -> Bitset.set set t.occ_gid.(occ)) occs;
  set

let size (t : t) = t.counted
