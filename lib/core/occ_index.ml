module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Gspan = Tsg_gspan.Gspan

type size = { positions : int; entries : int; set_members : int }

type t = {
  class_graph : Graph.t;
  class_support_set : Bitset.t;
  occ_count : int;
  occ_gid : int array;
  entries : (Label.id, Bitset.t) Hashtbl.t array;
  all_occs : Bitset.t;
  db_size : int;
  mutable stamp : int;
  seen : int array; (* per graph id: last stamp that touched it *)
  counted : size; (* what [size] returns, counted by [build] *)
}

let recount (t : t) =
  let entries = ref 0 and set_members = ref 0 in
  Array.iter
    (fun table ->
      entries := !entries + Hashtbl.length table;
      Hashtbl.iter (fun _ s -> set_members := !set_members + Bitset.cardinal s)
        table)
    t.entries;
  {
    positions = Array.length t.entries;
    entries = !entries;
    set_members = !set_members;
  }

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
    let table = t.entries.(pos) in
    Hashtbl.iter
      (fun l set ->
        match Hashtbl.find_opt expected l with
        | None ->
          add "position %d: label %s indexed but covers no embedding" pos
            (lname l)
        | Some n ->
          if n <> Bitset.cardinal set then
            add "position %d, label %s: OcS cardinality %d but %d embeddings"
              pos (lname l) (Bitset.cardinal set) n)
      table;
    Hashtbl.iter
      (fun l n ->
        if not (Hashtbl.mem table l) then
          add "position %d: label %s covered by %d embeddings missing from OIE"
            pos (lname l) n)
      expected;
    (* a specialization's occurrence set is contained in its ancestors' *)
    Hashtbl.iter
      (fun l set ->
        Hashtbl.iter
          (fun l' set' ->
            if l <> l'
               && Taxonomy.is_ancestor taxonomy ~anc:l' l
               && not (Bitset.subset set set')
            then
              add "position %d: OcS(%s) not within OcS(ancestor %s)" pos
                (lname l) (lname l'))
          table)
      table
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
   in first-touch order, for the reset. *)
type slots = { mutable slot : int array; mutable touched : int array }

let unseen = -1

let dropped = -2

let slots_key : slots Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { slot = [||]; touched = [||] })

(* one position's entry: occurrences in order, each original label's
   ancestors in increasing order, so the sets are created — and the
   table filled — in the order a per-visit lookup would first meet them *)
let build_entry sc ~keep_label ~class_label ~members ancestors occ_count =
  let slot = sc.slot and touched = sc.touched in
  let sets = ref (Array.make 16 (Bitset.create 0)) in
  let n_sets = ref 0 and n_touched = ref 0 in
  let occ = ref 0 in
  let visit anc =
    let k = slot.(anc) in
    if k >= 0 then begin
      Bitset.set !sets.(k) !occ;
      incr members
    end
    else if k = unseen then begin
      touched.(!n_touched) <- anc;
      incr n_touched;
      if anc = class_label || keep_label anc then begin
        if !n_sets = Array.length !sets then
          sets := Array.append !sets (Array.make !n_sets (Bitset.create 0));
        let set = Bitset.create occ_count in
        Bitset.set set !occ;
        incr members;
        !sets.(!n_sets) <- set;
        slot.(anc) <- !n_sets;
        incr n_sets
      end
      else slot.(anc) <- dropped
    end
  in
  Fun.protect
    ~finally:(fun () ->
      for j = 0 to !n_touched - 1 do
        slot.(touched.(j)) <- unseen
      done)
    (fun () ->
      while !occ < occ_count do
        Bitset.iter visit (ancestors !occ);
        incr occ
      done;
      let table = Hashtbl.create 16 in
      for j = 0 to !n_touched - 1 do
        let anc = touched.(j) in
        let k = slot.(anc) in
        if k >= 0 then Hashtbl.add table anc !sets.(k)
      done;
      table)

let build ~taxonomy ~original ?(keep_label = fun _ -> true)
    (p : Gspan.pattern) =
  Tsg_util.Fault.inject "occ_index.build";
  let positions = Graph.node_count p.graph in
  let embeddings = Array.of_list p.embeddings in
  let occ_count = Array.length embeddings in
  let occ_gid = Array.map (fun e -> e.Gspan.graph_id) embeddings in
  let graphs = Array.map (fun gid -> Db.get original gid) occ_gid in
  let sc = Domain.DLS.get slots_key in
  let labels = Taxonomy.label_count taxonomy in
  if Array.length sc.slot < labels then begin
    sc.slot <- Array.make labels unseen;
    sc.touched <- Array.make labels 0
  end;
  let members = ref 0 in
  let entries =
    Array.init positions (fun pos ->
        build_entry sc ~keep_label
          ~class_label:(Graph.node_label p.graph pos)
          ~members
          (fun occ ->
            Taxonomy.ancestor_set taxonomy
              (Graph.node_label graphs.(occ) embeddings.(occ).Gspan.map.(pos)))
          occ_count)
  in
  let all_occs = Bitset.full occ_count in
  let t =
    {
      class_graph = p.graph;
      class_support_set = Bitset.copy p.support_set;
      occ_count;
      occ_gid;
      entries;
      all_occs;
      db_size = Db.size original;
      stamp = 0;
      seen = Array.make (Db.size original) (-1);
      counted =
        {
          positions;
          entries =
            Array.fold_left (fun n tb -> n + Hashtbl.length tb) 0 entries;
          set_members = !members;
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
  Hashtbl.find_opt t.entries.(position) label

let covered_labels t ~position =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.entries.(position) []
  |> List.sort compare

let distinct_graph_count t occs =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let count = ref 0 in
  Bitset.iter
    (fun occ ->
      let gid = t.occ_gid.(occ) in
      if t.seen.(gid) <> stamp then begin
        t.seen.(gid) <- stamp;
        incr count
      end)
    occs;
  !count

let graph_set t occs =
  let set = Bitset.create t.db_size in
  Bitset.iter (fun occ -> Bitset.set set t.occ_gid.(occ)) occs;
  set

let size (t : t) = t.counted
