module Graph = Tsg_graph.Graph
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Arena = Tsg_util.Arena

type enhancements = {
  child_pruning : bool;
  label_prefilter : bool;
  start_preprocess : bool;
  collapse_equal_children : bool;
}

let all_on =
  {
    child_pruning = true;
    label_prefilter = true;
    start_preprocess = true;
    collapse_equal_children = true;
  }

let all_off =
  {
    child_pruning = false;
    label_prefilter = false;
    start_preprocess = false;
    collapse_equal_children = false;
  }

type stats = {
  mutable intersections : int;
  mutable visited : int;
  mutable emitted : int;
  mutable over_generalized : int;
}

let fresh_stats () =
  { intersections = 0; visited = 0; emitted = 0; over_generalized = 0 }

exception Out_of_time

let enumerate ~taxonomy ~min_support ~enhancements ?stats
    ?(budget = Tsg_util.Timer.Budget.unlimited) (oi : Occ_index.t) emit =
  let stats = Option.value ~default:(fresh_stats ()) stats in
  let positions = Graph.node_count oi.class_graph in
  let occ_set pos l = Occ_index.occurrence_set oi ~position:pos l in
  let raw_children pos l =
    List.filter (fun c -> occ_set pos c <> None) (Taxonomy.children taxonomy l)
  in
  (* [memoize f] answers [f pos l] from per-position tables keyed by label,
     computing each entry once; the tables live for this call only *)
  let memoize f =
    let memo = Array.init positions (fun _ -> Hashtbl.create 16) in
    fun pos l ->
      match Hashtbl.find memo.(pos) l with
      | v -> v
      | exception Not_found ->
        let v = f pos l in
        Hashtbl.add memo.(pos) l v;
        v
  in
  (* (d): a label is collapsed when a child shares its occurrence set — any
     pattern through it is over-generalized, so enumeration skips it and
     exposes its children directly. *)
  let collapsed =
    memoize (fun pos l ->
        enhancements.collapse_equal_children
        &&
        let own = Option.get (occ_set pos l) in
        List.exists
          (fun c -> Bitset.equal own (Option.get (occ_set pos c)))
          (raw_children pos l))
  in
  let effective_children pos l =
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let rec go c =
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        if collapsed pos c then List.iter go (raw_children pos c)
        else out := c :: !out
      end
    in
    List.iter go (raw_children pos l);
    List.rev !out
  in
  (* The candidate table: a (position, label)'s effective children, each
     with its occurrence set, built on the first visit that needs them and
     shared by every later visit of the class. *)
  let candidates =
    memoize (fun pos l ->
        Array.of_list
          (List.map
             (fun c -> (c, Option.get (occ_set pos c)))
             (effective_children pos l)))
  in
  (* (c): advance a start label along equal-occurrence-set children, but
     only when the child still dominates every covered label of the
     position (always true on tree taxonomies; the guard keeps DAGs
     complete). *)
  let advance_start pos l =
    if not enhancements.start_preprocess then l
    else begin
      let covered = Occ_index.covered_labels oi ~position:pos in
      let dominates c =
        let dset = Taxonomy.descendant_set taxonomy c in
        List.for_all (fun x -> Bitset.mem dset x) covered
      in
      let rec go l =
        let own = Option.get (occ_set pos l) in
        let next =
          List.find_opt
            (fun c ->
              Bitset.equal own (Option.get (occ_set pos c)) && dominates c)
            (raw_children pos l)
        in
        match next with Some c -> go c | None -> l
      in
      go l
    end
  in
  let visited : (int array, unit) Hashtbl.t = Hashtbl.create 256 in
  (* automorphic classes (e.g. an a-a edge) reach the same pattern through
     several label vectors; emit one representative per isomorphism class *)
  let emitted_keys : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let emit_pattern labels ocs =
    let graph = Graph.relabel oi.class_graph (fun v -> labels.(v)) in
    let key = Tsg_gspan.Min_code.canonical_key graph in
    if not (Hashtbl.mem emitted_keys key) then begin
      Hashtbl.add emitted_keys key ();
      stats.emitted <- stats.emitted + 1;
      let support_set = Occ_index.graph_set oi ocs in
      emit (Pattern.make ~db_size:oi.db_size graph support_set)
    end
  in
  (* visit: labels/ocs/support describe the current pattern; positions
     before [start] are frozen (the PNS), but the over-generalization check
     still spans all positions. *)
  let rec visit labels ocs support start =
    stats.visited <- stats.visited + 1;
    if
      stats.visited land 1023 = 0
      && Tsg_util.Timer.Budget.exceeded budget
    then raise Out_of_time;
    let over_generalized = ref false in
    (* One arena scratch per recursion level: every candidate's occurrence
       set is intersected into it in place and, on descent, handed to the
       recursive call directly — the child level borrows its own scratch,
       so ours is only overwritten once that call has returned. No bitset
       is allocated per candidate in this loop, the dominant one in
       Step 3. *)
    let scratch = Arena.acquire (Bitset.capacity ocs) in
    for pos = 0 to positions - 1 do
      let cands = candidates pos labels.(pos) in
      for i = 0 to Array.length cands - 1 do
        let c, child_set = cands.(i) in
        Bitset.inter_into ~dst:scratch ocs child_set;
        stats.intersections <- stats.intersections + 1;
        let support' = Occ_index.distinct_graph_count oi scratch in
        if support' = support then over_generalized := true;
        let descend =
          pos >= start && support' > 0
          && ((not enhancements.child_pruning) || support' >= min_support)
        in
        if descend then begin
          let labels' = Array.copy labels in
          labels'.(pos) <- c;
          if not (Hashtbl.mem visited labels') then begin
            Hashtbl.add visited labels' ();
            visit labels' scratch support' pos
          end
        end
      done
    done;
    Arena.release scratch;
    if !over_generalized then
      stats.over_generalized <- stats.over_generalized + 1
    else if support >= min_support then emit_pattern labels ocs
  in
  let start_labels =
    Array.init positions (fun pos ->
        advance_start pos (Graph.node_label oi.class_graph pos))
  in
  let start_ocs =
    Array.to_seq start_labels
    |> Seq.mapi (fun pos l -> Option.get (occ_set pos l))
    |> Seq.fold_left
         (fun acc set ->
           match acc with
           | None -> Some (Bitset.copy set)
           | Some a ->
             Bitset.inter_into ~dst:a a set;
             Some a)
         None
  in
  match start_ocs with
  | None -> () (* no positions: cannot happen, classes have >= 1 edge *)
  | Some ocs ->
    let support = Occ_index.distinct_graph_count oi ocs in
    Hashtbl.add visited (Array.copy start_labels) ();
    if support > 0 then visit start_labels ocs support 0
