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

(* PNS visited set over slot vectors: int-array equality and an int-fold
   hash, where a polymorphic table pays [caml_hash] and [caml_equal] per
   probe. *)
module Visited = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash (a : int array) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x9e3779b1) + a.(i)
    done;
    !h lxor (!h lsr 31)
end)

let enumerate ~taxonomy ~min_support ~enhancements ?stats
    ?(budget = Tsg_util.Timer.Budget.unlimited) (oi : Occ_index.t) emit =
  let stats = Option.value ~default:(fresh_stats ()) stats in
  let entries = oi.entries in
  let positions = Array.length entries in
  let iter_children (e : Occ_index.entry) k f =
    for j = e.first_child.(k) to e.first_child.(k + 1) - 1 do
      f e.children.(j)
    done
  in
  (* the first child of slot [k] satisfying [p], in taxonomy order *)
  let find_child (e : Occ_index.entry) k p =
    let rec from j =
      if j = e.first_child.(k + 1) then None
      else if p e.children.(j) then Some e.children.(j)
      else from (j + 1)
    in
    from e.first_child.(k)
  in
  (* A child's set is within its parent's, so equal member counts mean
     equal sets. *)
  let same_set (e : Occ_index.entry) k c = e.members.(c) = e.members.(k) in
  (* (d): a slot is collapsed when a child shares its occurrence set — any
     pattern through it is over-generalized, so enumeration skips it and
     exposes its children directly. *)
  let collapsed e k =
    enhancements.collapse_equal_children
    && Option.is_some (find_child e k (same_set e k))
  in
  (* one mark per slot, stamped per [effective_children] call *)
  let mark =
    Array.make
      (Array.fold_left (fun n e -> max n (Array.length e.Occ_index.labels)) 0
         entries)
      0
  in
  let generation = ref 0 in
  let effective_children e k =
    incr generation;
    let stamp = !generation in
    let out = ref [] in
    let rec go c =
      if mark.(c) <> stamp then begin
        mark.(c) <- stamp;
        if collapsed e c then iter_children e c go else out := c :: !out
      end
    in
    iter_children e k go;
    Array.of_list (List.rev !out)
  in
  (* The candidate table: a (position, slot)'s effective children, built
     on the first visit that needs them and shared by every later visit
     of the class; each candidate's rank set is built with the first
     table that holds it. *)
  let unbuilt = [| -1 |] and no_ranks = Bitset.create 0 in
  let tables =
    Array.map (fun e -> Array.make (Array.length e.Occ_index.labels) unbuilt)
      entries
  in
  let rank_sets =
    Array.map (fun e -> Array.make (Array.length e.Occ_index.labels) no_ranks)
      entries
  in
  let candidates pos k =
    let t = tables.(pos).(k) in
    if t != unbuilt then t
    else begin
      let e = entries.(pos) in
      let t = effective_children e k in
      Array.iter
        (fun c ->
          if rank_sets.(pos).(c) == no_ranks then begin
            let r = Bitset.create oi.graph_count in
            ignore (Occ_index.ranks_into oi ~dst:r e.sets.(c));
            rank_sets.(pos).(c) <- r
          end)
        t;
      tables.(pos).(k) <- t;
      t
    end
  in
  (* (c): advance a start slot along equal-occurrence-set children, but
     only when every covered label strictly below the current one also
     lies below the child (always true on tree taxonomies; the guard keeps
     DAGs complete: the walk from the child never meets the others). *)
  let advance_start pos k =
    let e = entries.(pos) in
    let dominates l c =
      let below_l = Taxonomy.descendant_set taxonomy l
      and below_c = Taxonomy.descendant_set taxonomy c in
      Array.for_all
        (fun x -> x = l || (not (Bitset.mem below_l x)) || Bitset.mem below_c x)
        e.labels
    in
    let rec go k =
      match
        find_child e k (fun c ->
            same_set e k c && dominates e.labels.(k) e.labels.(c))
      with
      | Some c -> go c
      | None -> k
    in
    if enhancements.start_preprocess then go k else k
  in
  let visited = Visited.create 256 in
  (* automorphic classes (e.g. an a-a edge) reach the same pattern through
     several label vectors; emit one representative per isomorphism class *)
  let emitted_keys : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let emit_pattern slots ocs =
    let graph =
      Graph.relabel oi.class_graph (fun v -> entries.(v).labels.(slots.(v)))
    in
    let key = Tsg_gspan.Min_code.canonical_key graph in
    if not (Hashtbl.mem emitted_keys key) then begin
      Hashtbl.add emitted_keys key ();
      stats.emitted <- stats.emitted + 1;
      let support_set = Occ_index.graph_set oi ocs in
      emit (Pattern.make ~db_size:oi.db_size graph support_set)
    end
  in
  (* a candidate is descended into only with this support *)
  let threshold =
    if enhancements.child_pruning then max 1 min_support else 1
  in
  (* visit: slots/ocs/ranks/support describe the current pattern (a slot
     per position, its occurrence set, that set's rank set and support);
     positions before [start] are frozen (the PNS), but the
     over-generalization check still spans all positions. *)
  let rec visit slots ocs ranks support start =
    stats.visited <- stats.visited + 1;
    if
      stats.visited land 1023 = 0
      && Tsg_util.Timer.Budget.exceeded budget
    then raise Out_of_time;
    let over_generalized = ref false in
    (* One arena scratch pair per recursion level: a candidate's
       occurrence set and rank set are computed into them in place and,
       on descent, handed to the recursive call directly — the child
       level borrows its own pair, so ours is only overwritten once that
       call has returned. No bitset is allocated per candidate in this
       loop, the dominant one in Step 3.

       |ranks ∧ R(child)| bounds the candidate's support from above, so
       the intersection and its exact count run only when the bound
       reaches [support] (the over-generalization test, still open) or
       the descent threshold at a position not frozen. *)
    let scratch = Arena.acquire (Bitset.capacity ocs) in
    let scratch_ranks = Arena.acquire oi.graph_count in
    for pos = 0 to positions - 1 do
      let cands = candidates pos slots.(pos) in
      let sets = entries.(pos).sets and child_ranks = rank_sets.(pos) in
      for i = 0 to Array.length cands - 1 do
        let c = cands.(i) in
        stats.intersections <- stats.intersections + 1;
        let bound = Bitset.inter_cardinal ranks child_ranks.(c) in
        let may_descend = pos >= start && bound >= threshold in
        if may_descend || (bound = support && not !over_generalized) then begin
          Bitset.inter_into ~dst:scratch ocs sets.(c);
          let support' =
            Occ_index.ranks_into oi ~dst:scratch_ranks scratch
          in
          if support' = support then over_generalized := true;
          if may_descend && support' >= threshold then begin
            let slots' = Array.copy slots in
            slots'.(pos) <- c;
            if not (Visited.mem visited slots') then begin
              Visited.add visited slots' ();
              visit slots' scratch scratch_ranks support' pos
            end
          end
        end
      done
    done;
    Arena.release scratch_ranks;
    Arena.release scratch;
    if !over_generalized then
      stats.over_generalized <- stats.over_generalized + 1
    else if support >= min_support then emit_pattern slots ocs
  in
  if positions > 0 (* always: classes have >= 1 edge *) then begin
    let start_slots =
      Array.init positions (fun pos -> advance_start pos entries.(pos).class_slot)
    in
    let ocs = Bitset.copy entries.(0).sets.(start_slots.(0)) in
    for pos = 1 to positions - 1 do
      Bitset.inter_into ~dst:ocs ocs entries.(pos).sets.(start_slots.(pos))
    done;
    let ranks = Bitset.create oi.graph_count in
    let support = Occ_index.ranks_into oi ~dst:ranks ocs in
    Visited.add visited (Array.copy start_slots) ();
    if support > 0 then visit start_slots ocs ranks support 0
  end
